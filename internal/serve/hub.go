package serve

import (
	"fmt"
	"strings"
	"sync"
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

// replayCap bounds the per-topic replay buffer: a late subscriber
// catches up on at most this many events (older ones are dropped
// oldest-first, counted per topic).
const replayCap = 256

// subscriber receives live events on ch; the hub never blocks on a slow
// subscriber — events past the channel buffer are dropped and counted.
type subscriber struct {
	ch chan Event
}

type topic struct {
	buf     []Event
	dropped uint64
	subs    map[*subscriber]struct{}
}

// hub routes the event stream of every run in flight, keyed by spec
// hash: a topic opens when its run is queued and goes with its terminal
// event, so the hub holds nothing for a resolved spec. Publishers append
// to a bounded replay buffer and fan out to live subscribers;
// subscribers get the replay first, then the live channel. All
// operations share one mutex — event rates here are run-lifecycle scale
// (a handful per run plus progress ticks), not packet scale.
type hub struct {
	mu      sync.Mutex
	topics  map[string]*topic
	dropped uint64
}

func newHub() *hub {
	return &hub{topics: make(map[string]*topic)}
}

// open starts the topic of a run that has just been queued.
func (h *hub) open(key string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.topics[key] = &topic{subs: make(map[*subscriber]struct{})}
}

// publish appends ev to the topic's replay buffer and offers it to every
// live subscriber. A terminal event closes the subscriber channels after
// delivery and removes the topic. A publish to no open topic, such as a
// progress line an executor writes after its run returned, is dropped.
func (h *hub) publish(key string, ev Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t := h.topics[key]
	if t == nil {
		return
	}
	if len(t.buf) >= replayCap {
		copy(t.buf, t.buf[1:])
		t.buf = t.buf[:len(t.buf)-1]
		t.dropped++
	}
	t.buf = append(t.buf, ev)
	for s := range t.subs {
		select {
		case s.ch <- ev:
		default:
			h.dropped++
		}
	}
	if ev.terminal() {
		for s := range t.subs {
			close(s.ch)
		}
		delete(h.topics, key)
	}
}

// subscribe returns the replay so far and a live subscription to key's
// topic, which must be open.
func (h *hub) subscribe(key string) (replay []Event, s *subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t := h.topics[key]
	s = &subscriber{ch: make(chan Event, 64)}
	t.subs[s] = struct{}{}
	return append([]Event(nil), t.buf...), s
}

// unsubscribe detaches s (no-op if the topic already closed it).
func (h *hub) unsubscribe(key string, s *subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if t := h.topics[key]; t != nil {
		if _, ok := t.subs[s]; ok {
			delete(t.subs, s)
			close(s.ch)
		}
	}
}

// droppedCount reports fan-out drops (slow subscribers).
func (h *hub) droppedCount() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dropped
}
