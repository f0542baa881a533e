package serve

import (
	"testing"

	"ssos/internal/obs"
)

// TestAppendSSEGolden pins the exact wire format of the SSE frames:
// the id line carries the session event cursor, the data line is the
// event's canonical JSON. Resumable streams depend on this shape.
func TestAppendSSEGolden(t *testing.T) {
	var b []byte
	b = AppendSSE(b, Frame{Seq: 0, Ev: obs.Ev(30000, obs.TypeNMI)})
	b = AppendSSE(b, Frame{Seq: 1, Ev: obs.Event{
		Step: 31000, Type: obs.TypeVoteTally,
		Replica: 2, Epoch: 1, Code: 77, Arg: 3, Note: "quorum",
	}})

	want := "id: 0\nevent: ssos\ndata: {\"step\":30000,\"type\":\"nmi\"}\n\n" +
		"id: 1\nevent: ssos\ndata: {\"step\":31000,\"type\":\"vote-tally\"," +
		"\"replica\":2,\"epoch\":1,\"code\":77,\"arg\":3,\"note\":\"quorum\"}\n\n"
	if string(b) != want {
		t.Errorf("SSE rendering drifted:\ngot:\n%s\nwant:\n%s", b, want)
	}
}

// TestRouterClose verifies teardown: an existing reader's wake channel
// delivers its pending wake and then reports closure, late readers are
// born closed, and publishing to a closed router is a harmless no-op.
func TestRouterClose(t *testing.T) {
	var r Router
	wake := r.Subscribe()
	r.Publish()
	r.Close()

	if _, open := <-wake; !open {
		t.Error("the wake published before Close was lost")
	}
	if _, open := <-wake; open {
		t.Error("wake channel not closed after router Close")
	}

	late := r.Subscribe()
	if _, open := <-late; open {
		t.Error("reader subscribed after Close must be born closed")
	}
	r.Publish() // must not panic
	if r.Subscribers() != 0 {
		t.Errorf("closed router reports %d subscribers", r.Subscribers())
	}
}

// TestSubscriberWaitCancel checks a reader's wait honors the caller's
// cancel channel — the mechanism that detaches an SSE handler when its
// client disconnects — and still sees a wake that is already pending.
func TestSubscriberWaitCancel(t *testing.T) {
	var r Router
	wake := r.Subscribe()
	cancel := make(chan struct{})
	close(cancel)
	wait := func() bool {
		select {
		case <-wake:
			return true
		default:
		}
		select {
		case <-wake:
			return true
		case <-cancel:
			return false
		}
	}
	if wait() {
		t.Error("wait with fired cancel and no wake must return false")
	}
	r.Publish()
	r.Publish() // coalesces with the pending wake; must not block
	if !wait() {
		t.Error("wait must report a pending wake even when cancel has fired")
	}
	if wait() {
		t.Error("two publishes before a wait must leave one wake, not two")
	}
}

// TestUnsubscribeStopsDelivery checks a detached reader is woken no
// further and the router forgets it.
func TestUnsubscribeStopsDelivery(t *testing.T) {
	var r Router
	wake := r.Subscribe()
	r.Unsubscribe(wake)
	if r.Subscribers() != 0 {
		t.Fatalf("router still tracks %d subscribers", r.Subscribers())
	}
	r.Publish()
	r.Close()
	select {
	case <-wake:
		t.Error("an unsubscribed reader was woken")
	default:
	}
}
