package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"ssos/internal/core"
	"ssos/internal/fault"
	"ssos/internal/guest"
	"ssos/internal/machine"
	"ssos/internal/obs"
	"ssos/internal/serve"
)

// serve: the daemon behind httptest on loopback, driven by a closed loop
// of two clients — scripts that wait for each reply, like the CI
// serve-smoke job. Each client keeps one long-lived scheduler "watch"
// session that it advances and polls between short sessions, and runs
// short sessions back to back: create, ten rounds of (run, events since
// the last cursor, status), one fault at a seeded index, metrics,
// episodes, a Prometheus scrape, delete. A round is a batch of eight
// short sessions on each client, seven over the seeded image catalog and
// one a 3-replica cluster session. Reads spend
// their time in serve and obs and never step; runs spend theirs mostly
// in the machine; the watch sessions make event retention show in the
// heap.
var serveWorkload = &workload{
	name:   "serve",
	why:    "a closed loop of 2 HTTP clients over the daemon: short fault-injected sessions plus long-lived watch sessions",
	prefix: 5,
	setup:  setupServe,
}

// serveRoutes name the API calls the clients make, for per-route
// latencies.
var serveRoutes = []string{"create", "run", "fault", "events", "status", "metrics", "episodes", "scrape", "delete"}

// readRoute reports whether a route only reads: it never steps a
// simulation.
func readRoute(route string) bool {
	switch route {
	case "events", "status", "metrics", "episodes", "scrape":
		return true
	}
	return false
}

// routeOf names the route of a request path (without query).
func routeOf(method, path string) string {
	switch {
	case path == "/metrics":
		return "scrape"
	case method == http.MethodDelete:
		return "delete"
	case path == "/api/sessions":
		return "create"
	case strings.HasSuffix(path, "/run"):
		return "run"
	case strings.HasSuffix(path, "/fault"):
		return "fault"
	case strings.HasSuffix(path, "/events"):
		return "events"
	case strings.HasSuffix(path, "/metrics"):
		return "metrics"
	case strings.HasSuffix(path, "/episodes"):
		return "episodes"
	}
	return "status"
}

const (
	serveClients     = 2
	serveWorkers     = 2
	watchSteps       = 20_000
	shortSteps       = 25_000
	shortRuns        = 10
	sessionsPerRound = 8 // short sessions per round, one a cluster session
	clusterReplicas  = 3
	requestTimeout   = time.Minute
)

// Cluster sessions take plain approach images and strike modes.
var (
	clusterImages = []string{"baseline", "reinstall", "continue", "monitor"}
	clusterFaults = []string{"bitflip", "os-blast", "cpu-blast", "blast"}
)

type serveInst struct {
	reg     *serve.Registry
	ts      *httptest.Server
	tr      *http.Transport
	hc      *http.Client
	clients []*client
}

// client is one closed-loop caller with its own seeded script.
type client struct {
	s     *serveInst
	t     *track
	rng   *rand.Rand
	watch string
	// watchCursor is the watch session's event count read so far.
	watchCursor int

	// What the prefix sessions produced, for the snapshot: requests and
	// event bytes so far, each short session's final status and the
	// digest of its served event stream.
	requests, eventsBytes int
	finals                []serve.Status
	streams               []uint64
}

func setupServe(t *track) (instance, error) {
	if err := assemble(t, func() error { _, err := guest.LintImages(); return err }); err != nil {
		return nil, err
	}
	s := &serveInst{reg: serve.NewRegistry(serve.Options{Workers: serveWorkers})}
	var h http.Handler = serve.NewServer(s.reg)
	if t.r.tr != nil {
		h = t.r.tr.wrap(h)
	}
	s.ts = httptest.NewServer(h)
	s.tr = &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}
	s.hc = &http.Client{Transport: s.tr, Timeout: requestTimeout}
	for k := 0; k < serveClients; k++ {
		c := &client{s: s, t: &track{r: t.r, tid: k + 1},
			rng: rand.New(rand.NewSource(t.r.seed*serveClients + int64(k)))}
		body, ok := c.call(t, http.MethodPost, "/api/sessions",
			fmt.Sprintf(`{"image":"scheduler","seed":%d}`, c.rng.Int63n(1<<31)+1))
		var st serve.Status
		if !ok || json.Unmarshal(body, &st) != nil {
			s.close()
			return nil, fmt.Errorf("creating the watch session: %s", body)
		}
		c.watch = st.ID
		c.advanceWatch(t)
		s.clients = append(s.clients, c)
	}
	return s, nil
}

func (s *serveInst) close() {
	s.ts.Close()
	s.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	if err := s.reg.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "bench: serve shutdown: %v\n", err)
	}
}

// round runs round i of every client concurrently and waits for all of
// them, so a round's time is the slower client's, and the calibration
// after it runs with the daemon idle. After the last prefix round it
// settles the registry, so the heap and the counts are taken at the same
// fixed work on every run.
func (s *serveInst) round(t *track, i int) {
	var wg sync.WaitGroup
	for _, c := range s.clients {
		c.t.traced, c.t.group = t.traced, t.group
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			start := time.Now()
			c.round(i)
			t.r.addTrackTime(time.Since(start))
		}(c)
	}
	wg.Wait()
	if i == t.r.prefix()-1 {
		s.clients[0].settleRegistry()
	}
}

// settleRegistry makes what the registry still references the same on
// every run, before the prefix heap is measured. A deleted session stays
// reachable from the spare capacity of the registry's order slice until
// a later create overwrites its slot, so which of the clients' last
// sessions survive depends on the order of their final deletes. Creating
// one session per client and deleting them newest first leaves exactly
// those in the spare slots.
func (c *client) settleRegistry() {
	var ids []string
	for k := 0; k < serveClients; k++ {
		body, ok := c.call(c.t, http.MethodPost, "/api/sessions", `{"image":"baseline"}`)
		var st serve.Status
		if ok && json.Unmarshal(body, &st) == nil {
			ids = append(ids, st.ID)
		}
	}
	for k := len(ids) - 1; k >= 0; k-- {
		c.call(c.t, http.MethodDelete, "/api/sessions/"+ids[k], "")
	}
}

func (s *serveInst) snapshot(sn *snapshot) {
	for _, c := range s.clients {
		for k, st := range c.finals {
			sn.digest("stream %016x events %d\n", c.streams[k], st.Events)
			sn.add("obs.events", float64(st.Events))
			sn.add("fault.injections", 1)
			if m := st.Machine; m != nil {
				sn.machine(machine.Stats{Steps: m.Steps, Instrs: m.Instrs, NMIs: m.NMIs, IRQs: m.IRQs,
					Exceptions: m.Exceptions, Resets: m.Resets, Blocks: m.Blocks,
					BlockInstrs: m.BlockInstrs, BlockBails: m.BlockBails})
				sn.digest("beats %d\n", m.Heartbeats)
			}
			if cl := st.Cluster; cl != nil {
				sn.digest("cluster %+v\n", *cl)
				sn.add("cluster.epochs", float64(cl.Epochs))
				sn.add("cluster.legal_epochs", float64(cl.LegalEpochs))
				sn.add("cluster.evictions", float64(cl.Evictions))
				sn.add("cluster.fresh_boots", float64(cl.FreshBoots))
			}
		}
		sn.digest("watch %d\n", c.watchCursor)
		sn.add("obs.retained_events", float64(c.watchCursor))
		sn.add("serve.requests", float64(c.requests))
		sn.add("serve.events_bytes", float64(c.eventsBytes))
	}
}

// call makes one request and returns the body; a transport error or a
// non-2xx status is a failed check. The workload's op is a run request:
// the call that steps a simulation. The reads' round trips (~0.05 ms)
// are timed per route in traced runs; on a shared host their median
// moves with the host's scheduling more than with the daemon.
func (c *client) call(t *track, method, path, body string) ([]byte, bool) {
	route := routeOf(method, strings.SplitN(path, "?", 2)[0])
	call := t.do
	if route == "run" {
		call = t.op
	}
	var out []byte
	var err error
	status := 0
	call("http", route, 0, func() {
		var req *http.Request
		req, err = http.NewRequest(method, c.s.ts.URL+path, strings.NewReader(body))
		if err != nil {
			return
		}
		if t.traced {
			req.Header.Set(spanHeader, t.header())
		}
		var resp *http.Response
		resp, err = c.s.hc.Do(req)
		if err != nil {
			return
		}
		out, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	})
	c.requests++
	ok := err == nil && status/100 == 2
	t.check(ok, "serve %s %s: status %d, %v: %s", method, path, status, err, out)
	return out, ok
}

// poll fetches a session's events past *cursor and advances it.
func (c *client) poll(t *track, id string, cursor *int) []byte {
	body, ok := c.call(t, http.MethodGet, fmt.Sprintf("/api/sessions/%s/events?since=%d", id, *cursor), "")
	if !ok {
		return nil
	}
	*cursor += bytes.Count(body, []byte{'\n'})
	c.eventsBytes += len(body)
	return body
}

func (c *client) advanceWatch(t *track) {
	c.call(t, http.MethodPost, "/api/sessions/"+c.watch+"/run", fmt.Sprintf(`{"steps":%d}`, watchSteps))
	c.poll(t, c.watch, &c.watchCursor)
}

// shortSpec is one short session's seeded script.
type shortSpec struct {
	kind, image, fault string
	seed               int64
	faultAt, replica   int
}

// pick draws one short session's script: a machine session over the
// whole image catalog, or a cluster session.
func (c *client) pick(cluster bool) shortSpec {
	sp := shortSpec{kind: serve.KindMachine, seed: c.rng.Int63n(1<<31) + 1, faultAt: c.rng.Intn(shortRuns)}
	if cluster {
		sp.kind = serve.KindCluster
		sp.image = clusterImages[c.rng.Intn(len(clusterImages))]
		sp.fault = clusterFaults[c.rng.Intn(len(clusterFaults))]
		sp.replica = c.rng.Intn(clusterReplicas)
		return sp
	}
	images := serve.Images()
	kinds := serve.FaultKinds()
	sp.image = images[c.rng.Intn(len(images))].Name
	sp.fault = kinds[c.rng.Intn(len(kinds))]
	return sp
}

// round is one round of a client: a batch of short sessions, each after
// advancing and polling the watch session. One session of every batch
// is a cluster session, never the first or the last: the first session
// of the run is the one replayed through the batch path, and the
// registry keeps a reference to the most recently deleted session (a
// stale slot of its order slice), so a cluster session last would make
// the prefix heap depend on the seed.
func (c *client) round(i int) {
	t := c.t
	cluster := 1 + c.rng.Intn(sessionsPerRound-2)
	for k := 0; k < sessionsPerRound; k++ {
		c.advanceWatch(t)
		sp := c.pick(k == cluster)
		t.do("bench", "session", 0, func() { c.short(t, sp, i == 0 && k == 0, i < t.r.prefix()) })
	}
}

// short runs one short session from create to delete. replay checks its
// served events against the batch path; inPrefix keeps its outcome for
// the snapshot.
func (c *client) short(t *track, sp shortSpec, replay, inPrefix bool) {
	spec, run := fmt.Sprintf(`{"image":%q,"seed":%d}`, sp.image, sp.seed), fmt.Sprintf(`{"steps":%d}`, shortSteps)
	fault := fmt.Sprintf(`{"kind":%q}`, sp.fault)
	if sp.kind == serve.KindCluster {
		spec = fmt.Sprintf(`{"kind":"cluster","image":%q,"seed":%d,"replicas":%d}`, sp.image, sp.seed, clusterReplicas)
		run = `{"epochs":1}`
		fault = fmt.Sprintf(`{"kind":%q,"replica":%d}`, sp.fault, sp.replica)
	}
	body, ok := c.call(t, http.MethodPost, "/api/sessions", spec)
	var st serve.Status
	if !ok || json.Unmarshal(body, &st) != nil {
		return
	}
	id := st.ID
	path := "/api/sessions/" + id
	cursor := 0
	var stream bytes.Buffer
	for k := 0; k < shortRuns; k++ {
		if k == sp.faultAt {
			c.call(t, http.MethodPost, path+"/fault", fault)
		}
		c.call(t, http.MethodPost, path+"/run", run)
		stream.Write(c.poll(t, id, &cursor))
		if body, ok := c.call(t, http.MethodGet, path, ""); ok {
			t.check(json.Unmarshal(body, &st) == nil, "serve status of %s: %s", path, body)
		}
	}
	c.call(t, http.MethodGet, path+"/metrics", "")
	c.call(t, http.MethodGet, path+"/episodes", "")
	c.call(t, http.MethodGet, "/metrics", "")
	c.call(t, http.MethodDelete, path, "")
	if replay {
		c.replay(t, sp, stream.Bytes())
	}
	if inPrefix {
		h := fnv.New64a()
		h.Write(stream.Bytes()) //nolint:errcheck // hash writes never fail
		c.streams = append(c.streams, h.Sum64())
		c.finals = append(c.finals, st)
	}
}

// replay reruns a machine session's script through the batch path —
// core.New, serve.InjectFault, obs.WriteJSONL, as cmd/ssos-run
// sequences them — and checks the served event stream is byte-identical.
func (c *client) replay(t *track, sp shortSpec, served []byte) {
	cfg, err := imageConfig(sp.image)
	var sys *core.System
	if err == nil {
		sys, err = newSystem(t, cfg)
	}
	if err != nil {
		t.check(false, "serve replay: image %q: %v", sp.image, err)
		return
	}
	col := obs.NewCollector()
	sys.Instrument(col)
	inj := fault.NewInjector(sys.M, sp.seed)
	for k := 0; k < shortRuns; k++ {
		if k == sp.faultAt {
			t.do("fault", "InjectFault", 1, func() { err = serve.InjectFault(sys, inj, sp.fault) })
		}
		t.do("machine", "Run", shortSteps, func() { sys.Run(shortSteps) })
	}
	var batch bytes.Buffer
	t.doN("obs", "WriteJSONL", func() int64 {
		err = obs.WriteJSONL(&batch, col.Events())
		return int64(batch.Len())
	})
	t.check(err == nil && bytes.Equal(batch.Bytes(), served),
		"serve replay of %s seed %d: served events (%d bytes) differ from batch (%d bytes, %v)",
		sp.image, sp.seed, len(served), batch.Len(), err)
}
