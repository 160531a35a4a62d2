package sweep

import (
	"context"
	"encoding/json"
	"io"
	"sync"
)

// EventSink receives the engine's progress events. Emit may be called
// concurrently from every worker goroutine; implementations must be
// race-safe. Events arrive in completion order, not canonical order —
// the stream is observability, never an artifact.
type EventSink interface {
	Emit(Event)
}

// writerSink renders each event as one JSON line — the byte format of
// cmd/paperrepro -events.
type writerSink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewWriterSink adapts w into an EventSink writing JSONL. A nil writer
// yields a nil EventSink (not a nil pointer inside a non-nil interface),
// so the result can go straight into Options.Sink.
func NewWriterSink(w io.Writer) EventSink {
	if w == nil {
		return nil
	}
	return &writerSink{w: w}
}

// Emit implements EventSink: one marshalled JSON object per line, whole
// lines only (the mutex keeps concurrent workers from interleaving).
func (s *writerSink) Emit(ev Event) {
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	s.mu.Lock()
	s.w.Write(append(data, '\n'))
	s.mu.Unlock()
}

// Hub is a race-safe fan-out EventSink with replay: it buffers every
// event it sees, and a Subscription created at any time first replays
// the buffer from the beginning and then follows the live stream. This
// is the service layer's bridge from one engine run to any number of
// late-joining progress watchers (SSE/JSONL clients).
//
// The buffer is unbounded by design: a sweep of J jobs emits O(J)
// events, and the hub lives only as long as its run is worth replaying.
type Hub struct {
	mu     sync.Mutex
	cond   *sync.Cond
	events []Event
	closed bool
}

// NewHub returns an empty open hub.
func NewHub() *Hub {
	h := &Hub{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// Emit implements EventSink.
func (h *Hub) Emit(ev Event) {
	h.mu.Lock()
	if !h.closed {
		h.events = append(h.events, ev)
	}
	h.mu.Unlock()
	h.cond.Broadcast()
}

// Close marks the stream complete: blocked subscribers drain whatever
// remains and then see ok=false. Emit after Close is a no-op. Close is
// idempotent.
func (h *Hub) Close() {
	h.mu.Lock()
	h.closed = true
	h.mu.Unlock()
	h.cond.Broadcast()
}

// Snapshot returns a copy of every event buffered so far.
func (h *Hub) Snapshot() []Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Event, len(h.events))
	copy(out, h.events)
	return out
}

// Subscribe returns a subscription positioned at the start of the
// buffer: the full history replays first, then live events follow.
func (h *Hub) Subscribe() *Subscription {
	return &Subscription{hub: h}
}

// Subscription is one reader's cursor into a Hub. It is not safe for
// concurrent use by multiple goroutines (each reader subscribes
// itself).
type Subscription struct {
	hub  *Hub
	next int
}

// Next blocks until another event is available and returns it. It
// returns ok=false when the hub is closed and fully drained, or when
// ctx is done (whichever happens first).
func (s *Subscription) Next(ctx context.Context) (Event, bool) {
	h := s.hub
	// Wake the cond wait when the context fires; AfterFunc's stop also
	// detaches the watcher once we return.
	stop := context.AfterFunc(ctx, h.cond.Broadcast)
	defer stop()
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if s.next < len(h.events) {
			ev := h.events[s.next]
			s.next++
			return ev, true
		}
		if h.closed || ctx.Err() != nil {
			return Event{}, false
		}
		h.cond.Wait()
	}
}
