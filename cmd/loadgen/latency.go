package main

import (
	"slices"
	"time"
)

// summarize returns exact order statistics of the round trips a run timed
// (one slice per session, so sessions record without sharing a lock): the
// p50 and p99 — the sample at rank ⌊q·n⌋+1, serve.Histogram's rank rule
// without its 2×-wide buckets — and the mean. All are zero when nothing
// was timed.
func summarize(perSession [][]time.Duration) (p50, p99, mean time.Duration) {
	all := slices.Concat(perSession...)
	if len(all) == 0 {
		return 0, 0, 0
	}
	slices.Sort(all)
	var sum time.Duration
	for _, d := range all {
		sum += d
	}
	at := func(q float64) time.Duration { return all[min(int(q*float64(len(all))), len(all)-1)] }
	return at(0.5), at(0.99), sum / time.Duration(len(all))
}
