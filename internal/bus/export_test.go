package bus

// CountQueries wraps every snooper attached to b so that each Query
// adds one to *n. The wrappers keep their slots, so the presence
// directory still routes address cycles to them. Single-threaded runs
// only.
func CountQueries(b *Bus, n *int64) {
	for i, s := range b.snoopers {
		b.snoopers[i] = &countingSnooper{Snooper: s, n: n}
	}
}

type countingSnooper struct {
	Snooper
	n *int64
}

func (c *countingSnooper) Query(tx *Transaction) SnoopResponse {
	*c.n++
	return c.Snooper.Query(tx)
}

// Recover forwards a BS recovery to the wrapped snooper, which asserted
// BS and so is an Aborter.
func (c *countingSnooper) Recover(b *Bus, aborted *Transaction, resp SnoopResponse) error {
	return c.Snooper.(Aborter).Recover(b, aborted, resp)
}
