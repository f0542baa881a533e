package serve

import (
	"slices"
	"strconv"
	"sync"

	"ssos/internal/obs"
)

// Frame is one streamed event: the session-wide sequence number (the
// event's index in the session collector, so it doubles as the
// ?since= cursor for refetch/resume) and the event itself.
type Frame struct {
	Seq uint64
	Ev  obs.Event
}

// Router wakes a session's live readers when its event log grows. It
// holds no events: a reader is a cursor into the session collector and
// reads everything past it on every wake, so a reader that falls
// behind catches up from the log and loses nothing. Publish never
// blocks: each reader has a one-slot wake channel, and a wake that
// finds the slot full is already pending.
type Router struct {
	mu sync.Mutex
	// wakes is kept as a slice in subscription order, so the fan-out in
	// Publish (which runs under the collector lock) visits readers
	// deterministically — and the detmap analyzer, which now covers this
	// package, has no map iteration to squint at.
	//ssos:guarded-by mu
	wakes []chan struct{}
	//ssos:guarded-by mu
	closed bool
}

// Subscribe registers a reader and returns its wake channel: it holds
// a value whenever the log may have grown since the reader last woke,
// and it is closed when the router closes. Subscribing to a closed
// router yields an already-closed channel rather than an error, so
// teardown races are benign.
func (r *Router) Subscribe() <-chan struct{} {
	wake := make(chan struct{}, 1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		close(wake)
	} else {
		r.wakes = append(r.wakes, wake)
	}
	return wake
}

// Unsubscribe forgets a reader: its wake channel gets no further
// wakes.
func (r *Router) Unsubscribe(wake <-chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, w := range r.wakes {
		if w == wake {
			r.wakes = slices.Delete(r.wakes, i, i+1)
			break
		}
	}
}

// Publish wakes every reader. It is safe to call from the collector
// hook (under the collector lock): per-reader work is a non-blocking
// send.
func (r *Router) Publish() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.wakes {
		select {
		case w <- struct{}{}:
		default:
		}
	}
}

// Close closes every reader's wake channel and rejects future readers.
// A session calls it once on teardown.
func (r *Router) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.wakes {
		close(w)
	}
	r.wakes = nil
	r.closed = true
}

// Subscribers returns the current reader count.
func (r *Router) Subscribers() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.wakes)
}

// AppendSSE renders one frame as a Server-Sent-Events message:
//
//	id: <seq>
//	event: ssos
//	data: {"step":...,"type":"..."}
//
// The id field is the session event cursor, so a client can resume a
// broken stream with ?since=<last id + 1> and lose nothing.
func AppendSSE(b []byte, f Frame) []byte {
	b = append(b, "id: "...)
	b = strconv.AppendUint(b, f.Seq, 10)
	b = append(b, "\nevent: ssos\ndata: "...)
	b = f.Ev.AppendJSON(b)
	return append(b, "\n\n"...)
}
