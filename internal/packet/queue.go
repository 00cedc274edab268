package packet

// Queue is a FIFO of packets on a ring that doubles when full. Popped
// slots are reused, so a queue allocates only when its occupancy reaches
// a new high, however many packets pass through it. The zero value is an
// empty queue.
type Queue struct {
	buf     []*Packet // len is zero or a power of two
	head, n int32
}

// queueFirst is the length of a queue's first ring.
const queueFirst = 4

// Ring is a queue's first ring. An owner of many queues carves Rings from
// a slab and hands each queue its first one with Seed, so that its
// queues do not allocate one ring each.
type Ring [queueFirst]*Packet

// Seed gives a queue that has no ring yet its first one.
func (q *Queue) Seed(r *Ring) { q.buf = r[:] }

// Seeded reports whether the queue has a ring.
func (q *Queue) Seeded() bool { return q.buf != nil }

// Push appends p at the tail.
func (q *Queue) Push(p *Packet) {
	if int(q.n) == len(q.buf) {
		q.grow()
	}
	q.buf[(int(q.head)+int(q.n))&(len(q.buf)-1)] = p
	q.n++
}

// grow doubles the ring, unrolling the contents to the front.
func (q *Queue) grow() {
	buf := make([]*Packet, max(2*len(q.buf), queueFirst))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// Empty reports whether the queue holds no packet.
func (q *Queue) Empty() bool { return q.n == 0 }

// Len reports the number of queued packets.
func (q *Queue) Len() int { return int(q.n) }

// Peek returns the head packet without removing it; the queue must not be
// empty.
func (q *Queue) Peek() *Packet { return q.buf[q.head] }

// Pop removes and returns the head packet; the queue must not be empty.
func (q *Queue) Pop() *Packet {
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & int32(len(q.buf)-1)
	q.n--
	return p
}

// At returns the i-th packet from the head, 0 <= i < Len.
func (q *Queue) At(i int) *Packet { return q.buf[(int(q.head)+i)&(len(q.buf)-1)] }
