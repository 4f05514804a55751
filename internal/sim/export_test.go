package sim

// Next reports the firing time of the earliest pending event, and whether
// one exists.
func (q *EventQueue) Next() (Time, bool) {
	if q.h.Len() == 0 {
		return 0, false
	}
	return q.h[0].at, true
}
