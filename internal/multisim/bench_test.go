package multisim

import (
	"fmt"
	"testing"
)

// benchMulti builds an n-topology contended cluster at steady state. A
// positive ackMS enables ack timeouts, whose pending checks then fill the
// simulators' FIFO lanes.
func benchMulti(b *testing.B, n int, ackMS float64) *Multi {
	apps := []string{"cq-small", "wc", "log", "cq-medium"}
	sc := &Scenario{
		Name:         "bench",
		Seed:         1,
		DurationMS:   1e18, // stepping is driven manually; no horizon
		AckTimeoutMS: ackMS,
		Cluster:      ClusterSpec{Machines: 10},
	}
	for i := 0; i < n; i++ {
		sc.Topologies = append(sc.Topologies, TopologySpec{
			App:  apps[i%len(apps)],
			Name: fmt.Sprintf("%s-%d", apps[i%len(apps)], i),
		})
	}
	m, err := Build(sc, false)
	if err != nil {
		b.Fatal(err)
	}
	// Reach steady state so the benchmark measures the equilibrium event
	// mix, with queues and heaps at their working size; with ack timeouts
	// that means running past the first timeout, when checks start to be
	// popped as fast as they are pushed.
	m.RunUntil(10_000 + 1.5*ackMS)
	return m
}

// BenchmarkClusterStep measures the shared-clock hot path — one global
// event processed through the instance heap plus the owning instance's
// event queue — as topology count grows, and at 4 topologies with the
// 10 s ack timeout of the faulty and contended tournament regimes. The
// events/sec throughput and allocs/op here are PERFORMANCE.md §9's table.
func BenchmarkClusterStep(b *testing.B) {
	cases := []struct {
		name  string
		n     int
		ackMS float64
	}{
		{"topologies=1", 1, 0},
		{"topologies=2", 2, 0},
		{"topologies=4", 4, 0},
		{"topologies=4,ack=10s", 4, 10_000},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			m := benchMulti(b, c.n, c.ackMS)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !m.Step() {
					b.Fatal("ran out of events")
				}
			}
		})
	}
}
