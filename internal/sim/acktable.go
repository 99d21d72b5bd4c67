package sim

// ackTable maps the root tuples still in flight to their ack records.
// Root ids are issued densely (Sim.nextRoot++) and each is added the
// moment it is issued, so the table is a window over the id space: win
// holds the records of roots [base, base+win.len()), oldest first. A
// retired root leaves a nil slot, and the front of the window advances
// past nil slots. Lookups are an index computation instead of a map
// probe. A root that stays in flight holds the front, so the window
// costs one pointer per root issued since the oldest live one; an ack
// timeout bounds that span to the roots of one timeout period.
type ackTable struct {
	win  ring[*ackState]
	base int64 // root id of the window's front
	live int   // non-nil slots
}

// end returns the next root id the table expects.
func (t *ackTable) end() int64 { return t.base + int64(t.win.len()) }

// put adds the record of a newly issued root, which must be end().
func (t *ackTable) put(root int64, a *ackState) {
	if root != t.end() {
		panic("sim: ack roots must be added in issue order")
	}
	t.win.pushBack(a)
	t.live++
}

// get returns the record of a live root, or nil for a root that was
// retired or never issued.
func (t *ackTable) get(root int64) *ackState {
	if root < t.base || root >= t.end() {
		return nil
	}
	return *t.win.at(int(root - t.base))
}

// remove retires a live root.
func (t *ackTable) remove(root int64) {
	*t.win.at(int(root - t.base)) = nil
	t.live--
	for t.win.len() > 0 && *t.win.at(0) == nil {
		t.win.popFront()
		t.base++
	}
}
