package sim

import "time"

// Entry is one scheduled value of a Calendar: the instant it is due and
// the value itself. Its schedule order stays inside the calendar.
type Entry[T any] struct {
	At    time.Duration
	seq   uint64
	Value T
}

// before orders two entries by instant, then by schedule order.
func (e *Entry[T]) before(o *Entry[T]) bool {
	if e.At != o.At {
		return e.At < o.At
	}
	return e.seq < o.seq
}

// Calendar is a discrete-event schedule: a binary min-heap of values,
// each due at an instant. It yields entries by instant and, at one
// instant, in the order they were scheduled, so a seeded run replays
// byte for byte. Entries are held by value, so scheduling allocates
// nothing once the heap has grown to its working size, and a comparison
// reads only the two entries it compares. The zero value is empty and
// ready to use.
type Calendar[T any] struct {
	heap []Entry[T]
	seq  uint64
}

// Len returns the number of scheduled entries.
func (c *Calendar[T]) Len() int { return len(c.heap) }

// Push schedules v at instant at, after every entry already due then.
func (c *Calendar[T]) Push(at time.Duration, v T) {
	c.heap = append(c.heap, Entry[T]{At: at, seq: c.seq, Value: v})
	c.seq++
	c.siftUp(len(c.heap) - 1)
}

// Peek returns the earliest entry without removing it. The calendar
// must not be empty.
func (c *Calendar[T]) Peek() Entry[T] { return c.heap[0] }

// Pop removes and returns the earliest entry. The calendar must not be
// empty.
func (c *Calendar[T]) Pop() Entry[T] {
	top := c.heap[0]
	last := len(c.heap) - 1
	c.heap[0] = c.heap[last]
	c.heap[last] = Entry[T]{} // drop any pointer the value holds
	c.heap = c.heap[:last]
	c.siftDown(0)
	return top
}

// Reschedule moves the earliest entry to instant at, after every entry
// already due then: a Pop and a Push of the same value for one sift.
// The calendar must not be empty.
func (c *Calendar[T]) Reschedule(at time.Duration) {
	c.heap[0].At, c.heap[0].seq = at, c.seq
	c.seq++
	c.siftDown(0)
}

func (c *Calendar[T]) siftUp(i int) {
	h := c.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

func (c *Calendar[T]) siftDown(i int) {
	h := c.heap
	n := len(h)
	if i >= n {
		return
	}
	e := h[i]
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h[r].before(&h[m]) {
			m = r
		}
		if !h[m].before(&e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}
