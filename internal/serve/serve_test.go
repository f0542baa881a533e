package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"ssos/internal/cluster"
	"ssos/internal/core"
	"ssos/internal/dev"
	"ssos/internal/fault"
	"ssos/internal/obs"
)

// apiDo issues one request against the test server and returns the
// status code and body.
func apiDo(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// apiOK is apiDo that requires a 2xx status.
func apiOK(t *testing.T, method, url, body string) []byte {
	t.Helper()
	code, b := apiDo(t, method, url, body)
	if code < 200 || code > 299 {
		t.Fatalf("%s %s: status %d: %s", method, url, code, b)
	}
	return b
}

// createSession posts a session spec and returns the assigned ID.
func createSession(t *testing.T, base, spec string) string {
	t.Helper()
	var st Status
	if err := json.Unmarshal(apiOK(t, "POST", base+"/api/sessions", spec), &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" {
		t.Fatal("create returned no session ID")
	}
	return st.ID
}

func newTestServer(t *testing.T, o Options) (*Registry, *httptest.Server) {
	t.Helper()
	reg := NewRegistry(o)
	ts := httptest.NewServer(NewServer(reg))
	t.Cleanup(func() {
		ts.Close()
		reg.Shutdown(context.Background()) //nolint:errcheck
	})
	return reg, ts
}

// TestMachineBridgeByteIdentical is the determinism bridge for machine
// sessions: the same image/seed/command sequence driven through the
// HTTP API must yield the byte-identical JSONL event stream and
// metrics JSON that the ssos-run batch path produces.
func TestMachineBridgeByteIdentical(t *testing.T) {
	const (
		image = "reinstall"
		seed  = 7
		at    = 40000
		total = 120000
	)

	// Batch path, exactly as cmd/ssos-run sequences it.
	img, ok := LookupImage(image)
	if !ok {
		t.Fatal("image missing")
	}
	sys, err := core.New(img.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	sys.Instrument(col)
	sys.Run(at)
	inj := fault.NewInjector(sys.M, seed)
	if err := InjectFault(sys, inj, "os-blast"); err != nil {
		t.Fatal(err)
	}
	sys.Run(total - at)
	var wantEvents bytes.Buffer
	if err := col.WriteJSONL(&wantEvents); err != nil {
		t.Fatal(err)
	}
	sys.ExportMetrics(col.Metrics)
	obs.RecordEpisodes(col.Metrics, obs.FoldEpisodes(col.Events()))
	var wantMetrics bytes.Buffer
	if err := col.Metrics.WriteJSON(&wantMetrics); err != nil {
		t.Fatal(err)
	}

	// Served path: same image, same seed, same step/fault sequence.
	reg, ts := newTestServer(t, Options{Workers: 2})
	id := createSession(t, ts.URL, `{"image":"reinstall","seed":7}`)
	apiOK(t, "POST", ts.URL+"/api/sessions/"+id+"/run", `{"steps":40000}`)
	apiOK(t, "POST", ts.URL+"/api/sessions/"+id+"/fault", `{"kind":"os-blast"}`)
	apiOK(t, "POST", ts.URL+"/api/sessions/"+id+"/run", `{"steps":80000}`)

	gotEvents := apiOK(t, "GET", ts.URL+"/api/sessions/"+id+"/events", "")
	if !bytes.Equal(gotEvents, wantEvents.Bytes()) {
		t.Errorf("served event stream differs from batch:\nserved:\n%s\nbatch:\n%s",
			gotEvents, wantEvents.Bytes())
	}
	if wantEvents.Len() == 0 {
		t.Fatal("bridge vacuous: batch run emitted no events")
	}

	gotMetrics := apiOK(t, "GET", ts.URL+"/api/sessions/"+id+"/metrics", "")
	if !bytes.Equal(gotMetrics, wantMetrics.Bytes()) {
		t.Errorf("served metrics differ from batch:\nserved:\n%s\nbatch:\n%s",
			gotMetrics, wantMetrics.Bytes())
	}

	// Metrics export must be a snapshot, not a mutation: fetching twice
	// must not double-count.
	again := apiOK(t, "GET", ts.URL+"/api/sessions/"+id+"/metrics", "")
	if !bytes.Equal(again, gotMetrics) {
		t.Error("second metrics fetch differs — export mutated collector state")
	}

	// Cursor refetch: ?since=N returns exactly the suffix.
	sess, ok := reg.Get(id)
	if !ok {
		t.Fatal("session vanished")
	}
	if sess.EventCount() >= 3 {
		var wantTail bytes.Buffer
		if err := obs.WriteJSONL(&wantTail, sess.EventsSince(2)); err != nil {
			t.Fatal(err)
		}
		gotTail := apiOK(t, "GET", ts.URL+"/api/sessions/"+id+"/events?since=2", "")
		if !bytes.Equal(gotTail, wantTail.Bytes()) {
			t.Error("?since= cursor refetch differs from EventsSince")
		}
	}
}

// TestClusterBridgeByteIdentical is the determinism bridge for cluster
// sessions, against the ssos-cluster batch sequence.
func TestClusterBridgeByteIdentical(t *testing.T) {
	const (
		seed   = 5
		epochs = 6
	)
	mode, err := cluster.ParseFaultMode("os-blast")
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	c, err := cluster.New(cluster.Config{
		Replicas:  3,
		Approach:  core.ApproachReinstall,
		Seed:      seed,
		Faults:    mode,
		Collector: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(epochs)
	var wantEvents bytes.Buffer
	if err := col.WriteJSONL(&wantEvents); err != nil {
		t.Fatal(err)
	}
	c.FinishObservability()
	obs.RecordEpisodes(col.Metrics, obs.FoldEpisodes(col.Events()))
	var wantMetrics bytes.Buffer
	if err := col.Metrics.WriteJSON(&wantMetrics); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Options{Workers: 2})
	id := createSession(t, ts.URL,
		`{"kind":"cluster","image":"reinstall","seed":5,"replicas":3,"faults":"os-blast"}`)
	apiOK(t, "POST", ts.URL+"/api/sessions/"+id+"/run", `{"epochs":6}`)

	gotEvents := apiOK(t, "GET", ts.URL+"/api/sessions/"+id+"/events", "")
	if !bytes.Equal(gotEvents, wantEvents.Bytes()) {
		t.Errorf("served cluster event stream differs from batch:\nserved:\n%s\nbatch:\n%s",
			gotEvents, wantEvents.Bytes())
	}
	if wantEvents.Len() == 0 {
		t.Fatal("bridge vacuous: batch cluster run emitted no events")
	}
	gotMetrics := apiOK(t, "GET", ts.URL+"/api/sessions/"+id+"/metrics", "")
	if !bytes.Equal(gotMetrics, wantMetrics.Bytes()) {
		t.Errorf("served cluster metrics differ from batch:\nserved:\n%s\nbatch:\n%s",
			gotMetrics, wantMetrics.Bytes())
	}
}

// TestClusterOnDemandStrike checks the fault endpoint lands a strike
// on a cluster session between epochs.
func TestClusterOnDemandStrike(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	id := createSession(t, ts.URL, `{"kind":"cluster","image":"reinstall","seed":3,"replicas":3}`)
	apiOK(t, "POST", ts.URL+"/api/sessions/"+id+"/run", `{"epochs":2}`)
	var res FaultResult
	body := apiOK(t, "POST", ts.URL+"/api/sessions/"+id+"/fault", `{"kind":"os-blast","replica":1}`)
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Injected) != 1 {
		t.Fatalf("strike reported %v, want one injection", res.Injected)
	}
	var st Status
	if err := json.Unmarshal(apiOK(t, "POST", ts.URL+"/api/sessions/"+id+"/run", `{"epochs":2}`), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil || st.Cluster.Epochs != 4 {
		t.Errorf("status after strike+run: %+v, want 4 epochs", st.Cluster)
	}

	// A strike naming a bogus replica or an inert mode must fail.
	if code, _ := apiDo(t, "POST", ts.URL+"/api/sessions/"+id+"/fault", `{"kind":"os-blast","replica":9}`); code != http.StatusBadRequest {
		t.Errorf("bogus replica: status %d, want 400", code)
	}
	if code, _ := apiDo(t, "POST", ts.URL+"/api/sessions/"+id+"/fault", `{"kind":"none"}`); code != http.StatusBadRequest {
		t.Errorf("inert strike: status %d, want 400", code)
	}
}

// evictionTrace drives one fixed operation sequence against a small
// registry and records which sessions fall to the idle sweep.
func evictionTrace(t *testing.T) (evicted []string, surviving []string) {
	t.Helper()
	reg := NewRegistry(Options{MaxSessions: 16, IdleOps: 3, Workers: 1})
	defer reg.Shutdown(context.Background()) //nolint:errcheck

	var ss []*Session
	for i := 0; i < 3; i++ {
		s, err := reg.Create(SessionSpec{Image: "baseline", Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(context.Background(), RunRequest{Steps: 1000}); err != nil {
			t.Fatal(err)
		}
		ss = append(ss, s)
	}
	// Keep the last session warm; the first two age out after exactly
	// IdleOps=3 further operations each (logical clock, no wall time).
	for i := 0; i < 5; i++ {
		reg.Touch(ss[2])
		if _, err := ss[2].Run(context.Background(), RunRequest{Steps: 100}); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range ss {
		if _, ok := reg.Get(s.ID); !ok {
			evicted = append(evicted, s.ID)
			if _, err := s.Status(context.Background()); !errors.Is(err, ErrEvicted) {
				t.Errorf("evicted session %s: command error = %v, want ErrEvicted", s.ID, err)
			}
		} else {
			surviving = append(surviving, s.ID)
		}
	}
	if got := reg.Evicted(); got != uint64(len(evicted)) {
		t.Errorf("Evicted() = %d, want %d", got, len(evicted))
	}
	return evicted, surviving
}

// TestIdleEvictionDeterministic checks both that idle sessions fall on
// the logical-clock horizon and that the outcome is a pure function of
// the operation sequence: two identical runs evict identical sessions.
func TestIdleEvictionDeterministic(t *testing.T) {
	ev1, sv1 := evictionTrace(t)
	ev2, sv2 := evictionTrace(t)
	if len(ev1) != 2 || len(sv1) != 1 {
		t.Fatalf("trace evicted %v kept %v; want 2 evicted, 1 kept", ev1, sv1)
	}
	if strings.Join(ev1, ",") != strings.Join(ev2, ",") || strings.Join(sv1, ",") != strings.Join(sv2, ",") {
		t.Errorf("eviction not deterministic: run1 evicted %v kept %v, run2 evicted %v kept %v",
			ev1, sv1, ev2, sv2)
	}
}

// TestRegistryCapAndDelete covers ErrFull at the session cap and
// explicit deletion semantics.
func TestRegistryCapAndDelete(t *testing.T) {
	reg := NewRegistry(Options{MaxSessions: 2, IdleOps: -1, Workers: 1})
	defer reg.Shutdown(context.Background()) //nolint:errcheck

	s1, err := reg.Create(SessionSpec{Image: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create(SessionSpec{Image: "baseline"}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create(SessionSpec{Image: "baseline"}); !errors.Is(err, ErrFull) {
		t.Fatalf("third create: err = %v, want ErrFull", err)
	}
	if !reg.Delete(s1.ID) {
		t.Fatal("delete of live session failed")
	}
	if reg.Delete(s1.ID) {
		t.Error("double delete reported success")
	}
	if _, err := s1.Status(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("deleted session command: err = %v, want ErrClosed", err)
	}
	if _, err := reg.Create(SessionSpec{Image: "baseline"}); err != nil {
		t.Errorf("create after delete: %v (cap slot not reclaimed)", err)
	}
	if reg.Len() != 2 {
		t.Errorf("Len() = %d, want 2", reg.Len())
	}
}

// TestDeleteReleasesSession checks that deleting a session leaves no
// stale pointer in the creation-order slice's backing array: no slot up
// to cap holds a deleted session, and the spare capacity past len is
// all nil. A duplicate left there by an in-place shift would keep a
// session's machines reachable once that session is deleted in turn.
// And a session deleted right after a command ran is unreachable: no
// part of the daemon its command passed through still points at it.
func TestDeleteReleasesSession(t *testing.T) {
	reg := NewRegistry(Options{IdleOps: -1, Workers: 1})
	defer reg.Shutdown(context.Background()) //nolint:errcheck

	var sessions []*Session
	for i := 0; i < 3; i++ {
		s, err := reg.Create(SessionSpec{Image: "baseline"})
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	check := func(deleted ...*Session) {
		t.Helper()
		reg.mu.Lock()
		defer reg.mu.Unlock()
		for i, s := range reg.order[:cap(reg.order)] {
			if slices.Contains(deleted, s) {
				t.Fatalf("order slot %d (len %d, cap %d) still holds deleted session %s",
					i, len(reg.order), cap(reg.order), s.ID)
			}
			if i >= len(reg.order) && s != nil {
				t.Fatalf("spare order slot %d (len %d) holds session %s",
					i, len(reg.order), s.ID)
			}
		}
	}
	first, last := sessions[0], sessions[2]
	if !reg.Delete(first.ID) {
		t.Fatal("delete of first session failed")
	}
	check(first)
	if !reg.Delete(last.ID) {
		t.Fatal("delete of last session failed")
	}
	check(first, last)

	ran, err := reg.Create(SessionSpec{Image: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ran.Run(context.Background(), RunRequest{Steps: 1000}); err != nil {
		t.Fatal(err)
	}
	gone := weak.Make(ran)
	if !reg.Delete(ran.ID) {
		t.Fatal("delete of the session that ran failed")
	}
	ran = nil
	runtime.GC()
	if gone.Value() != nil {
		t.Error("a session deleted right after a command ran is still reachable")
	}
}

// TestShutdownFailsFast checks a shut-down registry rejects new work
// and fails open sessions with ErrShutdown, idempotently.
func TestShutdownFailsFast(t *testing.T) {
	reg := NewRegistry(Options{Workers: 1})
	s, err := reg.Create(SessionSpec{Image: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create(SessionSpec{Image: "baseline"}); !errors.Is(err, ErrShutdown) {
		t.Errorf("create after shutdown: err = %v, want ErrShutdown", err)
	}
	if _, err := s.Status(context.Background()); !errors.Is(err, ErrShutdown) {
		t.Errorf("session command after shutdown: err = %v, want ErrShutdown", err)
	}
	if err := reg.Shutdown(context.Background()); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

// TestStreamReplayMatchesGolden drives the SSE endpoint end to end:
// the replayed prefix must be exactly the AppendSSE rendering of the
// retained event log, and closing the client must detach the handler.
func TestStreamReplayMatchesGolden(t *testing.T) {
	reg, ts := newTestServer(t, Options{Workers: 1})
	id := createSession(t, ts.URL, `{"image":"reinstall","seed":3}`)
	apiOK(t, "POST", ts.URL+"/api/sessions/"+id+"/run", `{"steps":70000}`)

	sess, ok := reg.Get(id)
	if !ok {
		t.Fatal("session missing")
	}
	events := sess.EventsSince(0)
	if len(events) < 2 {
		t.Fatalf("run produced %d events; want enough to stream", len(events))
	}
	var want []byte
	for i, e := range events {
		want = AppendSSE(want, Frame{Seq: uint64(i), Ev: e})
	}

	resp, err := http.Get(ts.URL + "/api/sessions/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}
	got := make([]byte, len(want))
	if _, err := io.ReadFull(resp.Body, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("SSE replay differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if sess.EventCount() != len(events) {
		t.Error("streaming mutated the retained log")
	}
}

// stallingWriter is a streaming response writer whose writes block
// until release is closed; entered is closed by the first write.
type stallingWriter struct {
	*httptest.ResponseRecorder
	once             sync.Once
	entered, release chan struct{}
}

func (w *stallingWriter) Write(b []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return w.ResponseRecorder.Write(b)
}

// TestStreamStalledReaderGetsWholeLog: a stream reader whose writes
// block while its session emits hundreds of events (more than a
// 256-frame per-reader buffer would hold), and which then reads on to
// the session's deletion, receives exactly the session's event log:
// every event once, in order, and nothing else.
func TestStreamStalledReaderGetsWholeLog(t *testing.T) {
	reg := NewRegistry(Options{Workers: 1})
	t.Cleanup(func() { reg.Shutdown(context.Background()) }) //nolint:errcheck
	srv := NewServer(reg)
	sess, err := reg.Create(SessionSpec{Image: "scheduler", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for sess.EventCount() == 0 {
		if _, err := sess.Run(context.Background(), RunRequest{Steps: 10000}); err != nil {
			t.Fatal(err)
		}
	}

	w := &stallingWriter{ResponseRecorder: httptest.NewRecorder(),
		entered: make(chan struct{}), release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.ServeHTTP(w, httptest.NewRequest("GET", "/api/sessions/"+sess.ID+"/stream", nil))
	}()
	<-w.entered
	before := sess.EventCount()
	if _, err := sess.Run(context.Background(), RunRequest{Steps: 2_000_000}); err != nil {
		t.Fatal(err)
	}
	if emitted := sess.EventCount() - before; emitted <= 256 {
		t.Fatalf("the session emitted %d events while its reader stalled, want more than 256", emitted)
	}
	close(w.release)
	reg.Delete(sess.ID)
	select {
	case <-served:
	case <-time.After(20 * time.Second):
		t.Fatal("the stream did not end after its session was deleted")
	}

	var want []byte
	for i, e := range sess.EventsSince(0) {
		want = AppendSSE(want, Frame{Seq: uint64(i), Ev: e})
	}
	if got := w.Body.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("stalled reader got %d bytes (drop frame: %v), want the %d-byte log",
			len(got), bytes.Contains(got, []byte("ssos-drop")), len(want))
	}
}

// TestAPIErrors pins the error mapping for the common client mistakes.
func TestAPIErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	if code, _ := apiDo(t, "POST", ts.URL+"/api/sessions", `{"image":"nope"}`); code != http.StatusBadRequest {
		t.Errorf("unknown image: status %d, want 400", code)
	}
	if code, _ := apiDo(t, "GET", ts.URL+"/api/sessions/zzz", ""); code != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", code)
	}
	tooMany := fmt.Sprintf(`{"kind":"cluster","image":"reinstall","replicas":%d}`, MaxReplicas+1)
	if code, body := apiDo(t, "POST", ts.URL+"/api/sessions", tooMany); code != http.StatusBadRequest ||
		!strings.Contains(string(body), strconv.Itoa(MaxReplicas)) {
		t.Errorf("create over the replica cap: status %d, body %s; want 400 naming the cap", code, body)
	}
	if code, body := apiDo(t, "POST", ts.URL+"/api/sessions", `{"kind":"cluster","image":"reinstall","epoch_steps":-5}`); code != http.StatusBadRequest {
		t.Errorf("create with negative epoch steps: status %d, body %s; want 400", code, body)
	}
	longEpoch := fmt.Sprintf(`{"kind":"cluster","image":"reinstall","epoch_steps":%d}`, MaxRunSteps+1)
	if code, body := apiDo(t, "POST", ts.URL+"/api/sessions", longEpoch); code != http.StatusBadRequest ||
		!strings.Contains(string(body), strconv.Itoa(MaxRunSteps)) {
		t.Errorf("create with an epoch over the step cap: status %d, body %s; want 400 naming the cap", code, body)
	}
	if code, _ := apiDo(t, "DELETE", ts.URL+"/api/sessions/zzz", ""); code != http.StatusNotFound {
		t.Errorf("delete unknown session: status %d, want 404", code)
	}
	id := createSession(t, ts.URL, `{"image":"baseline"}`)
	if code, _ := apiDo(t, "POST", ts.URL+"/api/sessions/"+id+"/run", `{"steps":0}`); code != http.StatusBadRequest {
		t.Errorf("zero-step run: status %d, want 400", code)
	}
	over := fmt.Sprintf(`{"steps":%d}`, MaxRunSteps+1)
	if code, body := apiDo(t, "POST", ts.URL+"/api/sessions/"+id+"/run", over); code != http.StatusBadRequest ||
		!strings.Contains(string(body), strconv.Itoa(MaxRunSteps)) {
		t.Errorf("run over the step cap: status %d, body %s; want 400 naming the cap", code, body)
	}
	if code, _ := apiDo(t, "POST", ts.URL+"/api/sessions/"+id+"/fault", `{"kind":"gamma-ray"}`); code != http.StatusBadRequest {
		t.Errorf("unknown fault: status %d, want 400", code)
	}
	if code, _ := apiDo(t, "GET", ts.URL+"/api/sessions/"+id+"/events?since=-1", ""); code != http.StatusBadRequest {
		t.Errorf("negative cursor: status %d, want 400", code)
	}
	apiOK(t, "DELETE", ts.URL+"/api/sessions/"+id, "")
	if code, _ := apiDo(t, "GET", ts.URL+"/api/sessions/"+id, ""); code != http.StatusNotFound {
		t.Errorf("status of deleted session: status %d, want 404", code)
	}
}

// TestOversizedBodyRefused pins the request-body cap: a body over
// maxBodyBytes gets 413 in the API's JSON error shape and leaves the
// session untouched, on every route that reads a body, while a normal
// body on the same session still works.
func TestOversizedBodyRefused(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	id := createSession(t, ts.URL, `{"image":"baseline"}`)
	before := apiOK(t, "GET", ts.URL+"/api/sessions/"+id, "")

	pad := strings.Repeat(" ", maxBodyBytes)
	for _, c := range []struct{ path, body string }{
		{"/api/sessions", `{"image":"baseline","pad":"` + strings.Repeat("x", maxBodyBytes) + `"}`},
		{"/api/sessions/" + id + "/run", `{"steps":1000}` + pad},
		{"/api/sessions/" + id + "/fault", `{"kind":"os-blast"}` + pad},
	} {
		code, body := apiDo(t, "POST", ts.URL+c.path, c.body)
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with %d bytes: status %d, want 413", c.path, len(c.body), code)
		}
		var e apiError
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("POST %s: 413 body is not the JSON error shape: %s", c.path, body)
		}
	}
	if after := apiOK(t, "GET", ts.URL+"/api/sessions/"+id, ""); !bytes.Equal(before, after) {
		t.Fatalf("refused requests changed the session:\nbefore %s\nafter  %s", before, after)
	}
	var list []listEntry
	if err := json.Unmarshal(apiOK(t, "GET", ts.URL+"/api/sessions", ""), &list); err != nil || len(list) != 1 {
		t.Fatalf("refused create left %d sessions (%v), want 1", len(list), err)
	}

	var st Status
	if err := json.Unmarshal(apiOK(t, "POST", ts.URL+"/api/sessions/"+id+"/run", `{"steps":1000}`), &st); err != nil {
		t.Fatal(err)
	}
	if st.Machine == nil || st.Machine.Steps != 1000 {
		t.Fatalf("normal run after refusals: status %+v, want 1000 steps", st.Machine)
	}
}

// TestCatalogEndpoints sanity-checks the static catalog routes.
func TestCatalogEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	var imgs []struct{ Name string }
	if err := json.Unmarshal(apiOK(t, "GET", ts.URL+"/api/images", ""), &imgs); err != nil {
		t.Fatal(err)
	}
	if len(imgs) != len(Images()) || imgs[0].Name != "baseline" {
		t.Errorf("images catalog: got %d entries first %q", len(imgs), imgs[0].Name)
	}
	var kinds []string
	if err := json.Unmarshal(apiOK(t, "GET", ts.URL+"/api/faults", ""), &kinds); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != len(FaultKinds()) {
		t.Errorf("fault catalog: got %d kinds, want %d", len(kinds), len(FaultKinds()))
	}
	var st Stats
	if err := json.Unmarshal(apiOK(t, "GET", ts.URL+"/healthz", ""), &st); err != nil {
		t.Fatal(err)
	}
	if st.Workers < 1 {
		t.Errorf("healthz reports %d workers", st.Workers)
	}
}

// TestStressManySessions sustains 500+ concurrent live sessions on a
// bounded worker set, then ages them out via the logical clock. It
// demonstrates the scaling contract: goroutines stay bounded by the
// worker budget (sessions are actors, not goroutine owners), and idle
// eviction reclaims sessions wholesale.
func TestStressManySessions(t *testing.T) {
	const n = 510
	reg := NewRegistry(Options{MaxSessions: n + 16, IdleOps: 4 * n, Workers: 8})
	defer reg.Shutdown(context.Background()) //nolint:errcheck

	baseline := runtime.NumGoroutine()

	var wg sync.WaitGroup
	sessions := make([]*Session, n)
	errs := make([]error, n)
	gate := make(chan struct{}, 32)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gate <- struct{}{}
			defer func() { <-gate }()
			s, err := reg.Create(SessionSpec{Image: "baseline", Seed: int64(i + 1)})
			if err != nil {
				errs[i] = err
				return
			}
			sessions[i] = s
			reg.Touch(s)
			if _, err := s.Run(context.Background(), RunRequest{Steps: 200}); err != nil {
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	if got := reg.Len(); got < 500 {
		t.Fatalf("sustained %d concurrent sessions, want >= 500", got)
	}
	// The worker set, not the session count, bounds goroutines.
	if g := runtime.NumGoroutine(); g > baseline+64 {
		t.Errorf("goroutines grew to %d (baseline %d) for %d sessions", g, baseline, n)
	}

	// Age every session but one out: the keeper's touches advance the
	// logical clock past everyone else's idle horizon.
	keeper := sessions[0]
	for i := 0; i < 4*n+n+1; i++ {
		reg.Touch(keeper)
	}
	if got := reg.Len(); got != 1 {
		t.Errorf("after idle sweep: %d sessions live, want 1 (the keeper)", got)
	}
	if ev := reg.Evicted(); ev != n-1 {
		t.Errorf("Evicted() = %d, want %d", ev, n-1)
	}
	if _, ok := reg.Get(keeper.ID); !ok {
		t.Error("keeper was evicted despite being touched")
	}
	if _, err := sessions[1].Status(context.Background()); !errors.Is(err, ErrEvicted) {
		t.Errorf("aged-out session error = %v, want ErrEvicted", err)
	}
}

// TestCommandsOnOneSessionTakeTurns: commands sent to one session from
// many goroutines at once run one at a time — under -race, any overlap
// on the machine is reported — and each runs exactly once.
func TestCommandsOnOneSessionTakeTurns(t *testing.T) {
	reg := NewRegistry(Options{Workers: 4})
	t.Cleanup(func() { reg.Shutdown(context.Background()) }) //nolint:errcheck
	s, err := reg.Create(SessionSpec{Image: "reinstall", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const clients, steps = 8, 5000
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			if _, err := s.Run(ctx, RunRequest{Steps: steps}); err != nil {
				t.Error(err)
			}
			if _, err := s.Inject(ctx, FaultRequest{Kind: "bitflip"}); err != nil {
				t.Error(err)
			}
			if _, err := s.Metrics(ctx); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st, err := s.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Machine.Steps != clients*steps || len(s.inj.Log) != clients {
		t.Errorf("after %d clients: %d steps and %d faults, want %d and %d",
			clients, st.Machine.Steps, len(s.inj.Log), clients*steps, clients)
	}
}

// statusOf fetches a session's status over HTTP with client, failing
// the test on any error or non-2xx reply.
func statusOf(t *testing.T, client *http.Client, base, id string) Status {
	t.Helper()
	resp, err := client.Get(base + "/api/sessions/" + id)
	if err != nil {
		t.Fatalf("status of %s: %v", id, err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status of %s: HTTP %d", id, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRunChunkingIsInvisible extends the determinism bridge over the
// run chunks: Run(a) then Run(b) and one Run(a+b), with a+b spanning
// several chunks (machine) or epochs (cluster), give byte-identical
// /events and equal status.
func TestRunChunkingIsInvisible(t *testing.T) {
	for _, tc := range []struct {
		spec string
		a, b RunRequest
	}{
		{`{"image":"reinstall","seed":7}`,
			RunRequest{Steps: runChunk + 12345}, RunRequest{Steps: 2*runChunk + 6789}},
		{`{"kind":"cluster","image":"reinstall","seed":5,"replicas":3,"faults":"os-blast"}`,
			RunRequest{Epochs: 2}, RunRequest{Epochs: 3}},
	} {
		reg, ts := newTestServer(t, Options{Workers: 2})
		split := createSession(t, ts.URL, tc.spec)
		whole := createSession(t, ts.URL, tc.spec)
		run := func(id string, req RunRequest) {
			s, _ := reg.Get(id)
			if _, err := s.Run(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
		run(split, tc.a)
		run(split, tc.b)
		run(whole, RunRequest{Steps: tc.a.Steps + tc.b.Steps, Epochs: tc.a.Epochs + tc.b.Epochs})

		got := apiOK(t, "GET", ts.URL+"/api/sessions/"+split+"/events", "")
		want := apiOK(t, "GET", ts.URL+"/api/sessions/"+whole+"/events", "")
		if !bytes.Equal(got, want) {
			t.Errorf("%s: split run's events differ from the whole run's", tc.spec)
		}
		if len(want) == 0 {
			t.Fatalf("%s: bridge vacuous: no events", tc.spec)
		}
		sa, sb := statusOf(t, http.DefaultClient, ts.URL, split), statusOf(t, http.DefaultClient, ts.URL, whole)
		sa.ID, sa.CreatedOp, sa.LastTouchOp = sb.ID, sb.CreatedOp, sb.LastTouchOp
		if !reflect.DeepEqual(sa, sb) {
			t.Errorf("%s: status differs:\nsplit %+v %+v\nwhole %+v %+v", tc.spec, sa, sa.Machine, sb, sb.Machine)
		}
	}
}

// TestRunCancelFreesWorker pins the fix for a run request that could
// pin a worker forever. On a one-worker daemon, a client asks for
// MaxRunSteps steps and hangs up once the run is under way. The run must stop at
// its next chunk boundary: the session answers status within seconds,
// with a step count that is a whole number of chunks (so a run queued
// meanwhile by a request that had already ended ran no chunk), and
// another session's run then completes on the freed worker.
func TestRunCancelFreesWorker(t *testing.T) {
	reg, ts := newTestServer(t, Options{Workers: 1})
	id := createSession(t, ts.URL, `{"image":"reinstall","seed":3}`)
	other := createSession(t, ts.URL, `{"image":"baseline","seed":4}`)
	sess, _ := reg.Get(id)

	ctx, hangUp := context.WithCancel(context.Background())
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/api/sessions/"+id+"/run",
			strings.NewReader(fmt.Sprintf(`{"steps":%d}`, MaxRunSteps)))
		if err != nil {
			t.Error(err)
			return
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			t.Error("a MaxRunSteps run answered before its client hung up")
		}
	}()
	for sess.EventCount() == 0 { // the watchdog's events show the run is under way
		time.Sleep(time.Millisecond)
	}
	ended, end := context.WithCancel(context.Background())
	end()
	if _, err := sess.Run(ended, RunRequest{Steps: 5}); !errors.Is(err, context.Canceled) {
		t.Fatalf("run with an ended context: err = %v, want context.Canceled", err)
	}
	hangUp()
	<-returned

	client := &http.Client{Timeout: 20 * time.Second}
	st := statusOf(t, client, ts.URL, id)
	if st.Machine.Steps == 0 || st.Machine.Steps%runChunk != 0 {
		t.Errorf("cancelled run left %d steps, want a positive multiple of %d", st.Machine.Steps, runChunk)
	}
	resp, err := client.Post(ts.URL+"/api/sessions/"+other+"/run", "application/json",
		strings.NewReader(`{"steps":1000}`))
	if err != nil {
		t.Fatalf("the other session's run after the cancellation: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("the other session's run: HTTP %d", resp.StatusCode)
	}
}

// TestStatusAndMetricsReturnWhenClientHangsUp: on a one-worker daemon
// busy with a MaxRunSteps run, a status, metrics or fault request
// waiting behind the run returns its context's error as soon as its
// client hangs up, instead of waiting out the whole run, and the fault
// is never injected. Once the run is cancelled the session answers
// status normally.
func TestStatusAndMetricsReturnWhenClientHangsUp(t *testing.T) {
	reg, ts := newTestServer(t, Options{Workers: 1})
	id := createSession(t, ts.URL, `{"image":"reinstall","seed":3}`)
	sess, _ := reg.Get(id)

	runCtx, stopRun := context.WithCancel(context.Background())
	defer stopRun()
	runDone := make(chan error, 1)
	go func() {
		_, err := sess.Run(runCtx, RunRequest{Steps: MaxRunSteps})
		runDone <- err
	}()
	for sess.EventCount() == 0 { // the watchdog's events show the run is under way
		time.Sleep(time.Millisecond)
	}

	for _, req := range []struct {
		name string
		call func(context.Context) error
	}{
		{"status", func(ctx context.Context) error { _, err := sess.Status(ctx); return err }},
		{"metrics", func(ctx context.Context) error { _, err := sess.Metrics(ctx); return err }},
		{"fault", func(ctx context.Context) error {
			_, err := sess.Inject(ctx, FaultRequest{Kind: "os-blast"})
			return err
		}},
	} {
		ctx, hangUp := context.WithCancel(context.Background())
		time.AfterFunc(50*time.Millisecond, hangUp)
		got := make(chan error, 1)
		go func() { got <- req.call(ctx) }()
		select {
		case err := <-got:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s after its client hung up: err = %v, want context.Canceled", req.name, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s request still waiting on the run a second after its client hung up", req.name)
		}
	}

	stopRun()
	select {
	case err := <-runDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the run did not stop after its context was cancelled")
	}
	st, err := sess.Status(context.Background())
	if err != nil {
		t.Fatalf("status after the run stopped: %v", err)
	}
	if st.Machine == nil || st.Machine.Steps == 0 {
		t.Errorf("status after the run stopped: %+v, want a machine session with steps run", st)
	}
	for _, e := range sess.EventsSince(0) {
		if e.Type == obs.TypeFaultInjected {
			t.Fatalf("a fault whose client hung up before its turn was injected: %+v", e)
		}
	}
}

// TestSessionConsolesBounded pins the console cap of machine sessions:
// a served system runs for tens of millions of steps, and each of its
// consoles still holds at most sessionConsoleCap writes while its
// write count, which status reports, keeps counting every write.
func TestSessionConsolesBounded(t *testing.T) {
	reg := NewRegistry(Options{Workers: 1})
	t.Cleanup(func() { reg.Shutdown(context.Background()) }) //nolint:errcheck
	for _, image := range []string{"reinstall", "monitor", "scheduler"} {
		s, err := reg.Create(SessionSpec{Image: image, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(context.Background(), RunRequest{Steps: 20_000_000}); err != nil {
			t.Fatal(err)
		}
		consoles := append([]*dev.Console{s.sys.Heartbeat, s.sys.Repairs}, s.sys.ProcBeats...)
		var total uint64
		for i, c := range consoles {
			if c == nil {
				continue
			}
			total += c.Total()
			if n := len(c.Writes()); n > sessionConsoleCap {
				t.Errorf("%s: console %d retains %d writes, cap %d", image, i, n, sessionConsoleCap)
			}
		}
		if total <= sessionConsoleCap {
			t.Errorf("%s: consoles saw %d writes in 20M steps; the cap went untested", image, total)
		}
	}
}
