package shard

import "slices"

// nLanes is how many FIFO lanes stand beside the heap. The paper's
// traffic re-arms at constant delays, at most three of them in one
// kernel (the resynchronisation timer at tau and the scale engine's
// round close at core.CollectWindow(xi); under internal/sim,
// internal/service's sync period, collect window and gossip period), and
// each needs a lane of its own; the fourth is a spare, so one far-future
// event holding a lane does not send a whole timer class to the heap.
// Every further lane is one more compare per executed event.
const nLanes = 4

// lane is a FIFO of events in ascending key order, held in a ring: push
// appends only an event that is after the lane's last, so the head is
// the lane's least without any sifting.
type lane struct {
	buf        []Ev // len is zero or a power of two
	head, tail uint // free-running: the queue is slots head .. tail-1
}

// slot is where the ring keeps free-running index i.
func (l *lane) slot(i uint) *Ev { return &l.buf[i&uint(len(l.buf)-1)] }

// pending is one shard's scheduled events. Its pop sequence is the
// ascending order of the keys it holds, whatever order they arrived in
// and wherever first-fit put them: every lane is sorted, the heap is a
// heap, and the next event is the least of the nLanes+1 heads.
type pending struct {
	lanes [nLanes]lane
	heap  []Ev // 4-ary min-heap of what no lane would take
	seeds []Ev // Kernel.Seed's batch, waiting for the next Run
}

// less orders events by the partition-independent key (At, From, Seq).
func less(a, b *Ev) bool {
	if a.At < b.At {
		return true
	}
	if b.At < a.At {
		return false
	}
	if a.From != b.From {
		return a.From < b.From
	}
	return a.Seq < b.Seq
}

// byKey is less as a three-way comparison, for sorting a seed batch.
func byKey(a, b Ev) int {
	if less(&a, &b) {
		return -1
	}
	if less(&b, &a) {
		return 1
	}
	return 0
}

// admit moves the seed batch into the pending set in key order, so that
// seeds given in node order at random phases fill a lane instead of
// sitting in the heap for a whole first period, and drops the batch's
// array: a kernel is seeded once and the array would be dead weight for
// the rest of the run.
func (q *pending) admit() {
	slices.SortFunc(q.seeds, byKey)
	for i := range q.seeds {
		q.push(q.seeds[i])
	}
	q.seeds = nil
}

// push files ev in the first lane that is empty or ends before ev, and in
// the heap when every lane refuses. A timer re-armed at a constant delay
// always finds its lane: the events that re-arm it execute in time order,
// and now+d is monotone in now.
func (q *pending) push(ev Ev) {
	for i := range q.lanes {
		l := &q.lanes[i]
		if l.head != l.tail && !less(l.slot(l.tail-1), &ev) {
			continue
		}
		if int(l.tail-l.head) == len(l.buf) {
			l.grow()
		}
		*l.slot(l.tail) = ev
		l.tail++
		return
	}
	q.heapPush(ev)
}

// grow doubles a full ring, unwrapping it to start at slot zero.
func (l *lane) grow() {
	buf := make([]Ev, max(2*len(l.buf), 16))
	if len(l.buf) > 0 {
		h := l.head & uint(len(l.buf)-1)
		n := copy(buf, l.buf[h:])
		copy(buf[n:], l.buf[:h])
	}
	l.head, l.tail, l.buf = 0, uint(len(l.buf)), buf
}

// least finds the next event in one scan: it returns the event and where
// it sits (a lane index, or nLanes for the heap), or -1 and nil when
// nothing is pending.
func (q *pending) least() (int, *Ev) {
	src, best := -1, (*Ev)(nil)
	if len(q.heap) > 0 {
		src, best = nLanes, &q.heap[0]
	}
	for i := range q.lanes {
		l := &q.lanes[i]
		if l.head == l.tail {
			continue
		}
		if ev := l.slot(l.head); best == nil || less(ev, best) {
			src, best = i, ev
		}
	}
	return src, best
}

// pop removes and returns the head of src, as least reported it.
func (q *pending) pop(src int) Ev {
	if src == nLanes {
		return q.heapPop()
	}
	l := &q.lanes[src]
	ev := *l.slot(l.head)
	l.head++
	return ev
}

// The heap is 4-ary: parent (i-1)/4, children 4i+1..4i+4. Sift-up walks
// half the levels of a binary heap; sift-down compares up to four
// children per level but over half the levels, so pop breaks even. Both
// directions sift a hole instead of swapping: one 48-byte copy per level
// rather than two.

// heapPush inserts ev.
func (q *pending) heapPush(ev Ev) {
	h := append(q.heap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !less(&ev, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	q.heap = h
}

// heapPop removes and returns the minimum event, sifting a hole down for
// the displaced last element. The heap must be non-empty.
func (q *pending) heapPop() Ev {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	q.heap = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		for r := c + 1; r < end; r++ {
			if less(&h[r], &h[c]) {
				c = r
			}
		}
		if !less(&h[c], &last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top
}
