package serve

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ssos/internal/core"
	"ssos/internal/fault"
	"ssos/internal/obs"
)

// runBridgePair drives the canonical machine scenario (reinstall image,
// seed 7, os-blast at 40000 of 120000 steps) through both the batch
// path and a served session, returning the batch collector and the
// served session's base URL pieces.
func runBridgePair(t *testing.T) (*obs.Collector, string, string) {
	t.Helper()
	img, ok := LookupImage("reinstall")
	if !ok {
		t.Fatal("image missing")
	}
	sys, err := core.New(img.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	sys.Instrument(col)
	sys.Run(40000)
	inj := fault.NewInjector(sys.M, 7)
	if err := InjectFault(sys, inj, "os-blast"); err != nil {
		t.Fatal(err)
	}
	sys.Run(80000)

	_, ts := newTestServer(t, Options{Workers: 2})
	id := createSession(t, ts.URL, `{"image":"reinstall","seed":7}`)
	apiOK(t, "POST", ts.URL+"/api/sessions/"+id+"/run", `{"steps":40000}`)
	apiOK(t, "POST", ts.URL+"/api/sessions/"+id+"/fault", `{"kind":"os-blast"}`)
	apiOK(t, "POST", ts.URL+"/api/sessions/"+id+"/run", `{"steps":80000}`)
	return col, ts.URL, id
}

// TestEpisodesEndpointMatchesBatchFold: the served episode list is the
// same reconstruction the batch CLIs compute with obs.FoldEpisodes over
// the same event stream.
func TestEpisodesEndpointMatchesBatchFold(t *testing.T) {
	col, base, id := runBridgePair(t)
	want := obs.FoldEpisodes(col.Events())
	if len(want) == 0 {
		t.Fatal("bridge vacuous: batch fold found no episodes")
	}

	var got []obs.Episode
	if err := json.Unmarshal(apiOK(t, "GET", base+"/api/sessions/"+id+"/episodes", ""), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("served episodes differ from batch fold:\nserved: %+v\nbatch:  %+v", got, want)
	}
	if !got[0].Resolved {
		t.Errorf("scenario episode unresolved: %+v", got[0])
	}
}

// promValue extracts one sample value from an exposition document by
// its exact name-plus-labels prefix.
func promValue(t *testing.T, doc, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(doc, "\n") {
		if !strings.HasPrefix(line, prefix+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, prefix+" "), 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("no sample %q in exposition:\n%s", prefix, doc)
	return 0
}

// TestPromMetricsMatchBatchQuantiles: the scraped episode-latency
// quantiles equal the batch computation (obs.Quantile over the same
// RecordEpisodes samples) — the served text format is a view of the
// deterministic registry, not a second estimator.
func TestPromMetricsMatchBatchQuantiles(t *testing.T) {
	col, base, id := runBridgePair(t)
	m := obs.NewMetrics()
	obs.RecordEpisodes(m, obs.FoldEpisodes(col.Events()))
	sorted := m.SortedSamples("episode.latency")
	if len(sorted) == 0 {
		t.Fatal("bridge vacuous: no resolved episodes in batch fold")
	}

	doc := string(apiOK(t, "GET", base+"/metrics", ""))
	sel := `ssos_episode_latency_steps{session="` + id + `"`
	for _, q := range []struct {
		label string
		pct   int
	}{{"0.5", 50}, {"0.9", 90}, {"0.99", 99}} {
		got := promValue(t, doc, sel+`,quantile="`+q.label+`"}`)
		if want := float64(obs.Quantile(sorted, q.pct)); got != want {
			t.Errorf("quantile %s: scraped %v, batch %v", q.label, got, want)
		}
	}
	if got := promValue(t, doc, `ssos_episode_latency_steps_count{session="`+id+`"}`); got != float64(len(sorted)) {
		t.Errorf("count: scraped %v, batch %d", got, len(sorted))
	}
	if got := promValue(t, doc, `ssos_episode_latency_steps_max{session="`+id+`"}`); got != float64(sorted[len(sorted)-1]) {
		t.Errorf("max: scraped %v, batch %d", got, sorted[len(sorted)-1])
	}
	if got := promValue(t, doc, `ssos_episodes_resolved_total{session="`+id+`"}`); got != float64(m.Counter("episodes.resolved")) {
		t.Errorf("resolved: scraped %v, batch %d", got, m.Counter("episodes.resolved"))
	}

	// The fault-class split carries the same samples for this scenario
	// (one class), so its quantiles must agree too.
	cls := obs.FoldEpisodes(col.Events())[0].FaultClass
	fsel := `ssos_episode_fault_latency_steps{session="` + id + `",fault="` + cls + `",quantile="0.5"}`
	if got := promValue(t, doc, fsel); got != float64(obs.Quantile(sorted, 50)) {
		t.Errorf("fault-split p50: scraped %v, batch %v", got, obs.Quantile(sorted, 50))
	}

	// A scrape is read-only: the registry clock and the session are
	// untouched, so a second scrape is byte-identical.
	if again := string(apiOK(t, "GET", base+"/metrics", "")); again != doc {
		t.Error("second scrape differs — scraping perturbed the daemon")
	}
}

// TestPromBlockTelemetry: the scraped superblock-engine counters equal
// the session's own status counters, and a run long enough to warm the
// engine actually retires work through blocks — the exported telemetry
// is live, not a dead zero.
func TestPromBlockTelemetry(t *testing.T) {
	_, base, id := runBridgePair(t)

	var st Status
	if err := json.Unmarshal(apiOK(t, "GET", base+"/api/sessions/"+id, ""), &st); err != nil {
		t.Fatal(err)
	}
	if st.Machine == nil {
		t.Fatal("machine session reported no machine status")
	}
	if st.Machine.Blocks == 0 || st.Machine.BlockInstrs == 0 {
		t.Fatalf("superblock engine never engaged: %+v", st.Machine)
	}

	doc := string(apiOK(t, "GET", base+"/metrics", ""))
	for _, c := range []struct {
		family string
		want   uint64
	}{
		{"ssos_session_blocks_total", st.Machine.Blocks},
		{"ssos_session_block_instrs_total", st.Machine.BlockInstrs},
		{"ssos_session_block_bails_total", st.Machine.BlockBails},
	} {
		got := promValue(t, doc, c.family+`{session="`+id+`"}`)
		if got != float64(c.want) {
			t.Errorf("%s: scraped %v, status %d", c.family, got, c.want)
		}
	}
}

var updateProm = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current scrape")

// promGolden is the checked-in exposition of promScenario's registry.
const promGolden = "testdata/metrics.golden"

// promScenario drives a machine session whose episodes cover every
// fold outcome — resolved under two fault classes, preempted and in
// flight — and a cluster session resolving strikes on several
// replicas, and returns the /metrics document.
func promScenario(t *testing.T) string {
	t.Helper()
	_, ts := newTestServer(t, Options{Workers: 2})
	m := createSession(t, ts.URL, `{"image":"reinstall","seed":7}`)
	for _, req := range []struct{ path, body string }{
		{"run", `{"steps":40000}`},
		{"fault", `{"kind":"os-blast"}`},
		{"run", `{"steps":80000}`},
		{"fault", `{"kind":"pc"}`},
		{"run", `{"steps":80000}`},
		{"fault", `{"kind":"os-blast"}`},
		{"run", `{"steps":100}`},
		{"fault", `{"kind":"cpu-blast"}`},
		{"run", `{"steps":100}`},
	} {
		apiOK(t, "POST", ts.URL+"/api/sessions/"+m+"/"+req.path, req.body)
	}
	c := createSession(t, ts.URL,
		`{"kind":"cluster","image":"reinstall","seed":5,"replicas":3,"faults":"os-blast","strike_prob":0.6}`)
	apiOK(t, "POST", ts.URL+"/api/sessions/"+c+"/run", `{"epochs":6}`)
	return string(apiOK(t, "GET", ts.URL+"/metrics", ""))
}

// TestPromMetricsGolden pins the scrape byte for byte: every family,
// sample, label and ordering of promScenario's exposition.
func TestPromMetricsGolden(t *testing.T) {
	doc := promScenario(t)
	if *updateProm {
		if err := os.MkdirAll(filepath.Dir(promGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(promGolden, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(promGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if doc != string(want) {
		t.Errorf("scrape differs from %s:\ngot:\n%s\nwant:\n%s", promGolden, doc, want)
	}
	// The scenario must reach every outcome.
	for _, sample := range []string{
		`ssos_episodes_resolved_total{session="s1"}`,
		`ssos_episodes_preempted_total{session="s1"}`,
		`ssos_episodes_in_flight{session="s1"}`,
		`ssos_episodes_resolved_total{session="s2"}`,
	} {
		if promValue(t, doc, sample) == 0 {
			t.Errorf("scenario vacuous: %s is 0", sample)
		}
	}
}
