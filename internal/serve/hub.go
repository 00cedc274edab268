package serve

import (
	"fmt"
	"slices"
	"strings"
)

// Event is one SSE frame: a typed, JSON-bodied message on a run's
// stream. Types: "queued", "running", "progress", "done", "failed",
// "canceled".
type Event struct {
	Type string
	Data string // a single-line JSON object (or a quoted string)
}

// terminal reports whether the event ends the stream.
func (e Event) terminal() bool {
	switch e.Type {
	case "done", "failed", "canceled":
		return true
	}
	return false
}

// sse renders the wire format. Data is guaranteed single-line by the
// publishers (newlines are escaped inside JSON strings), so one data:
// line suffices.
func (e Event) sse() string {
	return fmt.Sprintf("event: %s\ndata: %s\n\n", e.Type, strings.ReplaceAll(e.Data, "\n", " "))
}

// replayCap bounds a run's replay ring: a late subscriber catches up on
// at most this many events, the newest.
const replayCap = 256

// subscriberCap is a live subscriber's channel buffer. The publisher
// never blocks on a slow subscriber: a progress event past the buffer is
// dropped and counted, and a terminal event replaces the oldest one.
const subscriberCap = 64

// stream is the event feed of a run in flight, carried by its cache
// entry from the "queued" event to the terminal one. Publishers append
// to a bounded replay ring and fan out to live subscribers; subscribers
// get the replay first, then their channel. All of it is guarded by
// Server.mu — event rates here are run-lifecycle scale (a handful per run
// plus progress ticks), not packet scale.
type stream struct {
	replay []Event
	head   int // oldest event once the ring is full
	subs   []chan Event
}

// publish appends ev to e's replay ring and offers it to every live
// subscriber. A terminal event is always delivered, closes the
// subscriber channels and drops the stream, so a resolved entry carries
// none. A publish to an entry with no stream, such as a progress line an
// executor writes after its run returned, is dropped. Callers hold s.mu,
// which makes the publisher the channels' only sender.
func (s *Server) publish(e *cacheEntry, ev Event) {
	st := e.stream
	if st == nil {
		return
	}
	if len(st.replay) < replayCap {
		st.replay = append(st.replay, ev)
	} else {
		st.replay[st.head] = ev
		st.head = (st.head + 1) % replayCap
	}
	last := ev.terminal()
	for _, ch := range st.subs {
		if last && len(ch) == cap(ch) {
			// The stream must end on its terminal event: make room by
			// taking out the oldest undelivered event.
			select {
			case <-ch:
				s.sseDropped++
			default:
			}
		}
		select {
		case ch <- ev:
		default:
			s.sseDropped++
		}
	}
	if last {
		for _, ch := range st.subs {
			close(ch)
		}
		e.stream = nil
	}
}

// subscribe returns the replay so far and a live channel on e's stream,
// which must be open. Callers hold Server.mu.
func (e *cacheEntry) subscribe() (replay []Event, ch chan Event) {
	st := e.stream
	ch = make(chan Event, subscriberCap)
	st.subs = append(st.subs, ch)
	replay = append(replay, st.replay[st.head:]...)
	return append(replay, st.replay[:st.head]...), ch
}

// unsubscribe detaches ch (no-op once the stream has ended). Callers
// hold Server.mu.
func (e *cacheEntry) unsubscribe(ch chan Event) {
	if st := e.stream; st != nil {
		st.subs = slices.DeleteFunc(st.subs, func(c chan Event) bool { return c == ch })
	}
}
