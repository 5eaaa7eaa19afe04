package sim

import "fmt"

// Counter is a monotone count that processes wait on: WaitFor blocks until
// the count reaches a target. It stands in for one Signal per completion
// where completions happen in a known order (a GPU channel finishing its
// commands FIFO), so waiting for the k-th completion needs no object of its
// own. Make one with NewCounter, which names it for deadlock reports.
type Counter struct {
	n         uint64
	waiters   []countWaiter
	blockName string
}

type countWaiter struct {
	p      *Proc
	target uint64
}

// NewCounter returns a counter at zero. Waiters resume on their own
// process's engine, so the counter needs none of its own.
func NewCounter() *Counter { return &Counter{blockName: "counter"} }

// SetLabel names the counter in deadlock reports and returns it.
func (c *Counter) SetLabel(label string) *Counter {
	c.blockName = fmt.Sprintf("counter %q", label)
	return c
}

// N returns the count.
func (c *Counter) N() uint64 { return c.n }

// Add counts one more and resumes every waiter whose target the count has
// now reached, in the order they parked, at the current time — through the
// same wake-up a Signal's Fire schedules, so a Counter that replaces a
// Signal per completion fires the same events in the same order.
func (c *Counter) Add() {
	c.n++
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if w.target <= c.n {
			w.p.wake()
		} else {
			kept = append(kept, w)
		}
	}
	clear(c.waiters[len(kept):])
	c.waiters = kept
}

// WaitFor blocks p until the count is at least n. It returns at once,
// without yielding, if it already is.
func (c *Counter) WaitFor(p *Proc, n uint64) {
	if c.n >= n {
		return
	}
	c.waiters = append(c.waiters, countWaiter{p: p, target: n})
	p.blockedOn = c.blockName
	p.yield()
}
