// Package packet defines the unit of data moved by the fabric: packets,
// their kinds (data, acknowledgement, congestion notification), and the
// TCD congestion code points from Table 1 of the paper.
package packet

import (
	"fmt"

	"github.com/tcdnet/tcd/internal/units"
)

// CodePoint is the 2-bit ternary congestion notification field carried by
// every TCD-capable packet (Table 1 of the paper). It generalizes the ECN
// field: switches upgrade the code point as the packet traverses ports in
// undetermined or congestion states.
type CodePoint uint8

const (
	// NotCapable marks transports that do not understand TCD (code 00).
	NotCapable CodePoint = 0
	// Capable marks a TCD-capable transport with no event yet (code 01).
	Capable CodePoint = 1
	// UE — Undetermined Encountered (code 10): the packet passed through
	// at least one port in the undetermined state and no congestion port.
	UE CodePoint = 2
	// CE — Congestion Encountered (code 11): the packet passed through a
	// port in the congestion state. CE is sticky: UE never downgrades it.
	CE CodePoint = 3
)

// String renders the code point as in Table 1.
func (c CodePoint) String() string {
	switch c {
	case NotCapable:
		return "00(non-TCD)"
	case Capable:
		return "01(capable)"
	case UE:
		return "10(UE)"
	case CE:
		return "11(CE)"
	}
	return fmt.Sprintf("CodePoint(%d)", uint8(c))
}

// MarkUE applies the paper's rule "UE can only be marked when the current
// code point is not CE" and returns the updated code point.
func (c CodePoint) MarkUE() CodePoint {
	if c == CE || c == NotCapable {
		return c
	}
	return UE
}

// MarkCE applies the rule "switches mark CE whenever the port is in a
// congestion state" and returns the updated code point.
func (c CodePoint) MarkCE() CodePoint {
	if c == NotCapable {
		return c
	}
	return CE
}

// Kind distinguishes the packet populations in the simulator. Hop-by-hop
// flow-control frames (PAUSE/RESUME/FCCL) are not packets: they travel on
// the fabric's out-of-band control channel.
type Kind uint8

const (
	// Data carries flow payload.
	Data Kind = iota
	// Ack is a receiver acknowledgement (used by TIMELY for RTT samples
	// and by all transports to complete messages).
	Ack
	// CNP is a congestion notification packet from the notification point
	// back to the reaction point (DCQCN CNP / InfiniBand BECN carrier).
	CNP
)

func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case Ack:
		return "ack"
	case CNP:
		return "cnp"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// FlowID identifies a flow (a message in flight between two hosts).
type FlowID int32

// NodeID identifies a host or switch in the topology.
type NodeID int32

// Packet is a frame in flight. Packets are allocated once at the sender
// and mutated in place as they traverse the fabric (code point upgrades,
// input-port bookkeeping), mirroring how a real frame carries its header
// fields through the network.
type Packet struct {
	// The fields are ordered widest first so that the struct packs into
	// 64 bytes: one cache line, and 512 of them to a 32 KB arena chunk.

	// Size is the wire size in bytes, headers included.
	Size units.ByteSize
	// Payload is the number of flow-payload bytes (Size minus headers).
	Payload units.ByteSize
	// SentAt is the timestamp the sender's NIC released the packet; ACKs
	// echo it back so TIMELY can compute RTTs without a clock exchange.
	SentAt units.Time
	// Flow is the owning flow; CNPs and ACKs carry the flow they concern.
	Flow FlowID
	// Src and Dst are the endpoints.
	Src, Dst NodeID
	// Seq is the zero-based index of this packet within its flow.
	Seq int32
	// InPort tracks, inside a switch, which input port the packet arrived
	// on so ingress accounting can be released on departure. It is
	// meaningless outside the switch that set it; hosts inject with -1.
	InPort int32
	// To is the fabric-wide index of the port the packet is propagating
	// toward while it is on a wire, so that one receive callback per
	// network serves every link and the packet stays pointer-free.
	To int32
	// h is the packet's arena handle (its slab index), stamped by
	// Arena.Get and preserved across the zeroing reset so Put can return
	// the packet to the free list without a pointer-to-index lookup.
	h Handle
	// Kind is the packet population.
	Kind Kind
	// Last marks the final data packet of the flow's message.
	Last bool
	// Priority is the PFC priority / InfiniBand virtual lane.
	Priority uint8
	// Code is the TCD/ECN congestion code point, updated by switches.
	Code CodePoint
	// EchoUE and EchoCE are set on CNP/ACK packets to carry the receiver's
	// observation back to the sender (the paper's ternary notification).
	EchoUE, EchoCE bool
	// Hops counts switch traversals (routing-loop guard).
	Hops int8
}

// String renders a compact description for traces and test failures.
func (p *Packet) String() string {
	return fmt.Sprintf("%s flow=%d seq=%d %v %s", p.Kind, p.Flow, p.Seq, p.Size, p.Code)
}

// HeaderBytes is the per-packet header overhead (Ethernet+IP+UDP+RoCE, or
// the IB transport headers — both are ~48 B at the fidelity this simulator
// needs).
const HeaderBytes units.ByteSize = 48

// MTU is the data payload per packet (1000 B in the paper). Hosts frame
// messages by it, and TCD's max(Ton) model (Eqn 3's τ = 2·MTU/C + 2·t_p)
// is sized by it, so the two cannot disagree.
const MTU units.ByteSize = 1000

// AckBytes is the wire size of an acknowledgement.
const AckBytes units.ByteSize = 64

// Handle is the index-based identity of an arena packet: chunk number in
// the high bits, offset within the chunk in the low ChunkBits.
type Handle uint32

// Arena geometry: packets are allocated in fixed slabs of 2^ChunkBits.
// 512 × 64 B = 32 KB per slab, the largest small-object size class — big
// enough that a fig3-scale run lives in a handful of slabs, small enough
// that tiny unit-test networks don't balloon.
const (
	ChunkBits = 9
	chunkSize = 1 << ChunkBits
	chunkMask = chunkSize - 1
)

// Arena is a chunked slab allocator for one simulation run's packets.
// Packet is deliberately pointer-free, so a slab is opaque to the garbage
// collector: the collector neither scans slab interiors nor tracks one
// object per packet, and pointers into a slab never go stale because
// chunks, once allocated, are never moved or resized. Packets die at the
// sinks (every packet is eventually consumed by a host), so within a
// single-threaded run the fabric recycles indices through a free list
// instead of allocating ~one object per packet per run. An Arena must not
// be shared between concurrently running simulations; parallel sweeps
// give each run its own network and therefore its own arena.
type Arena struct {
	chunks [][]Packet
	free   []Handle
	// used is the bump-allocation high-water mark: handles below it have
	// been handed out at least once.
	used uint32
	// Recycled counts Put calls, for instrumentation.
	Recycled uint64
}

// Get returns a zeroed packet, reusing a free slab slot when one is
// available and bump-allocating (growing the arena by one chunk at a
// time) otherwise. The returned pointer is stable for the packet's
// lifetime but must not be used after Put.
func (a *Arena) Get() *Packet {
	var h Handle
	if n := len(a.free); n > 0 {
		h = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		h = Handle(a.used)
		a.used++
		if int(h>>ChunkBits) == len(a.chunks) {
			a.chunks = append(a.chunks, make([]Packet, chunkSize))
		}
	}
	pkt := &a.chunks[h>>ChunkBits][h&chunkMask]
	*pkt = Packet{h: h}
	return pkt
}

// Put recycles a dead arena packet by pushing its handle back on the
// free list. The caller must not touch pkt afterwards: the next Get may
// hand the same slot to an unrelated flow. Only packets obtained from
// this arena's Get may be Put.
func (a *Arena) Put(pkt *Packet) {
	if pkt == nil {
		return
	}
	a.free = append(a.free, pkt.h)
	a.Recycled++
}

// CNPBytes is the wire size of a congestion notification packet.
const CNPBytes units.ByteSize = 64
