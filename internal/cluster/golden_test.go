package cluster

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ssos/internal/core"
	"ssos/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from the current cluster")

// goldenVoter is the checked-in record of the voter's complete output
// — every EpochStat, every reconfiguration Event and the JSONL event
// stream — for each supported approach under each strike mode. It pins
// the verdicts, digests and evictions so a change to how the voter
// judges an epoch cannot move any of them. Regenerate it with -update
// only when the guest images, the machine or the voter's definition of
// an epoch change on purpose.
const goldenVoter = "testdata/voter.golden.gz"

// goldenEpochs is each run's length: 4 approaches × 5 strike modes ×
// 100 epochs = 2000 epochs in all. Epochs are half the default length
// (still well past every approach's MaxGap), which halves the grid's
// cost under the race detector.
const (
	goldenEpochs     = 100
	goldenEpochSteps = DefaultEpochSteps / 2
)

// voterRun is one recorded cluster run.
type voterRun struct {
	Name   string      `json:"name"`
	Stats  []EpochStat `json:"stats"`
	Events []Event     `json:"events"`
	JSONL  string      `json:"jsonl"`
}

// runVoterGrid runs every approach × strike mode with a collector
// attached.
func runVoterGrid(t *testing.T) []voterRun {
	t.Helper()
	var runs []voterRun
	for _, a := range []core.Approach{
		core.ApproachBaseline, core.ApproachReinstall,
		core.ApproachContinue, core.ApproachMonitor,
	} {
		for _, m := range []FaultMode{ModeNone, ModeBitflip, ModeOSBlast, ModeCPUBlast, ModeBlast} {
			col := obs.NewCollector()
			c := MustNew(Config{Replicas: 5, Approach: a, EpochSteps: goldenEpochSteps, Seed: 1, Faults: m, Collector: col})
			c.Run(goldenEpochs)
			c.FinishObservability()
			var b bytes.Buffer
			if err := col.WriteJSONL(&b); err != nil {
				t.Fatal(err)
			}
			runs = append(runs, voterRun{Name: a.String() + "/" + m.String(), Stats: c.Stats, Events: c.Events, JSONL: b.String()})
		}
	}
	return runs
}

// TestVoterGolden re-runs the grid and compares each run with the
// recorded output.
func TestVoterGolden(t *testing.T) {
	got := runVoterGrid(t)
	if *update {
		writeGolden(t, goldenVoter, got)
		return
	}
	var want []voterRun
	readGolden(t, goldenVoter, &want)
	if len(got) != len(want) {
		t.Fatalf("grid has %d runs, golden %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name {
			t.Fatalf("run %d is %s, golden %s", i, g.Name, w.Name)
		}
		for e := range w.Stats {
			if e >= len(g.Stats) || !sameJSON(t, g.Stats[e], w.Stats[e]) {
				t.Errorf("%s: first differing epoch %d", w.Name, e)
				break
			}
		}
		if !sameJSON(t, g.Stats, w.Stats) {
			t.Errorf("%s: epoch stats differ", w.Name)
		}
		if !sameJSON(t, g.Events, w.Events) {
			t.Errorf("%s: reconfiguration events differ:\n got  %v\n want %v", w.Name, g.Events, w.Events)
		}
		if g.JSONL != w.JSONL {
			t.Errorf("%s: JSONL event streams differ", w.Name)
		}
	}
}

// goldenPaths is the checked-in record of every other path that
// mutates or observes a replica, beyond the voter grid's strike
// cadence: per-replica strike probabilities (E14's cells and
// ssos-cluster -strike-prob), on-demand strikes between epochs (the
// served session's fault endpoint), flight-recorder dumps shorter and
// longer than an epoch, hand-placed schedules (two strikes on one
// replica in one epoch, strikes at offset 0, at the same offset and
// past the epoch's end) and fleet-wide fresh boots. Every run carries
// a collector, so the event streams and merged metrics are pinned
// too. Regenerate it with -update under the same rule as goldenVoter.
const goldenPaths = "testdata/paths.golden.gz"

// pathRun is one recorded run of the path golden. Flight-recorder
// dumps longer than pinLines lines are pinned by length and hash.
type pathRun struct {
	Name    string      `json:"name"`
	Stats   []EpochStat `json:"stats"`
	Events  []Event     `json:"events"`
	JSONL   string      `json:"jsonl"`
	Metrics string      `json:"metrics"`
}

const pinLines = 16

// pathCase is one configuration of the path golden; before[e] lists
// the on-demand strikes (Replica and Mode) applied with Cluster.Strike
// just before epoch e.
type pathCase struct {
	name   string
	cfg    Config
	epochs int
	before map[int][]Strike
}

func pathCases() []pathCase {
	var cs []pathCase
	for _, n := range []int{5, 9} {
		cs = append(cs, pathCase{
			name:   fmt.Sprintf("prob/os-blast/%d", n),
			cfg:    Config{Replicas: n, Approach: core.ApproachReinstall, Seed: 1, Faults: ModeOSBlast, StrikeProb: 0.35},
			epochs: 30,
		})
	}
	cs = append(cs, pathCase{
		name:   "prob/bitflip/5",
		cfg:    Config{Replicas: 5, Approach: core.ApproachMonitor, Seed: 1, Faults: ModeBitflip, StrikeProb: 0.35},
		epochs: 30,
	})

	for _, a := range []core.Approach{core.ApproachReinstall, core.ApproachMonitor} {
		for _, m := range []FaultMode{ModeNone, ModeBitflip, ModeOSBlast, ModeCPUBlast, ModeBlast} {
			cs = append(cs, pathCase{
				name:   "strike/" + a.String() + "/" + m.String(),
				cfg:    Config{Replicas: 3, Approach: a, Seed: 5},
				epochs: 6,
				before: map[int][]Strike{
					1: {{Replica: 0, Mode: m}},
					2: {{Replica: 1, Mode: m}, {Replica: 1, Mode: m}},
					3: {{Replica: 2, Mode: m}, {Replica: 0, Mode: m}},
				},
			})
		}
	}

	cs = append(cs,
		pathCase{
			name:   "trace/8",
			cfg:    Config{Replicas: 5, Approach: core.ApproachReinstall, Seed: 1, Faults: ModeOSBlast, TraceN: 8},
			epochs: 9,
		},
		pathCase{
			// Strikes every epoch evict some replicas in consecutive
			// epochs, so their dumps hold only the steps since rejoin.
			name: "trace/long",
			cfg: Config{Replicas: 5, Approach: core.ApproachBaseline, EpochSteps: goldenEpochSteps, Seed: 3,
				Faults: ModeBlast, StrikeEvery: 1, TraceN: goldenEpochSteps + goldenEpochSteps/3},
			epochs: 6,
		})

	sched := []Strike{
		{Epoch: 1, Replica: 2, Offset: 5000, Mode: ModeOSBlast},
		{Epoch: 1, Replica: 2, Offset: 21000, Mode: ModeCPUBlast},
		{Epoch: 1, Replica: 4, Offset: 0, Mode: ModeOSBlast},
		{Epoch: 2, Replica: 0, Offset: 0, Mode: ModeBitflip},
		{Epoch: 2, Replica: 0, Offset: 0, Mode: ModeBlast},
		{Epoch: 2, Replica: 3, Offset: 7000, Mode: ModeNone},
		{Epoch: 3, Replica: 1, Offset: 2 * DefaultEpochSteps, Mode: ModeOSBlast},
		{Epoch: 4, Replica: 1, Offset: 100, Mode: ModeBitflip},
		{Epoch: 4, Replica: 3, Offset: 100, Mode: ModeBitflip},
	}
	for _, a := range []core.Approach{core.ApproachReinstall, core.ApproachMonitor} {
		cs = append(cs, pathCase{
			name:   "schedule/" + a.String(),
			cfg:    Config{Replicas: 5, Approach: a, Seed: 9, Schedule: sched, TraceN: 8},
			epochs: 6,
		})
	}

	var crash, blastAll []Strike
	for i := 0; i < 3; i++ {
		crash = append(crash, Strike{Epoch: 1, Replica: i, Offset: 1000 + i*100, Mode: ModeBlast})
	}
	for i := 0; i < 5; i++ {
		blastAll = append(blastAll, Strike{Epoch: 2, Replica: i, Offset: 20000 + i*1000, Mode: ModeBlast})
	}
	cs = append(cs,
		pathCase{
			name:   "fresh-boot/baseline",
			cfg:    Config{Replicas: 3, Approach: core.ApproachBaseline, Seed: 21, Schedule: crash, TraceN: 8},
			epochs: 5,
		},
		pathCase{
			name:   "fresh-boot/reinstall",
			cfg:    Config{Replicas: 5, Approach: core.ApproachReinstall, Seed: 13, Schedule: blastAll},
			epochs: 8,
		})
	return cs
}

// runPathCases runs every path case with a collector attached.
func runPathCases(t *testing.T) []pathRun {
	t.Helper()
	var runs []pathRun
	for _, pc := range pathCases() {
		col := obs.NewCollector()
		cfg := pc.cfg
		cfg.Collector = col
		c := MustNew(cfg)
		for e := 0; e < pc.epochs; e++ {
			for _, s := range pc.before[e] {
				if err := c.Strike(s.Replica, s.Mode); err != nil {
					t.Fatal(err)
				}
			}
			c.Run(1)
		}
		c.FinishObservability()
		var b bytes.Buffer
		if err := col.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		m, err := col.Metrics.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		events := append([]Event(nil), c.Events...)
		for i := range events {
			events[i].Trace = pinTrace(events[i].Trace)
		}
		runs = append(runs, pathRun{Name: pc.name, Stats: c.Stats, Events: events, JSONL: b.String(), Metrics: string(m)})
	}
	return runs
}

// pinTrace keeps a short flight-recorder dump as is and reduces a long
// one to its line count and SHA-256.
func pinTrace(dump string) string {
	n := strings.Count(dump, "\n")
	if n <= pinLines {
		return dump
	}
	return fmt.Sprintf("%d lines, sha256 %x", n, sha256.Sum256([]byte(dump)))
}

// TestPathsGolden re-runs the path cases and compares each run with
// the recorded output.
func TestPathsGolden(t *testing.T) {
	got := runPathCases(t)
	if *update {
		writeGolden(t, goldenPaths, got)
		return
	}
	var want []pathRun
	readGolden(t, goldenPaths, &want)
	if len(got) != len(want) {
		t.Fatalf("%d path cases, golden %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name {
			t.Fatalf("run %d is %s, golden %s", i, g.Name, w.Name)
		}
		for e := range w.Stats {
			if e >= len(g.Stats) || !sameJSON(t, g.Stats[e], w.Stats[e]) {
				t.Errorf("%s: first differing epoch %d", w.Name, e)
				break
			}
		}
		if !sameJSON(t, g.Stats, w.Stats) {
			t.Errorf("%s: epoch stats differ", w.Name)
		}
		if !sameJSON(t, g.Events, w.Events) {
			t.Errorf("%s: reconfiguration events differ:\n got  %v\n want %v", w.Name, g.Events, w.Events)
		}
		if g.JSONL != w.JSONL {
			t.Errorf("%s: JSONL event streams differ", w.Name)
		}
		if g.Metrics != w.Metrics {
			t.Errorf("%s: metrics differ", w.Name)
		}
	}
}

// writeGolden records runs as the golden file at path.
func writeGolden(t *testing.T, path string, runs any) {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := json.NewEncoder(zw).Encode(runs); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readGolden loads the golden file at path into runs.
func readGolden(t *testing.T, path string, runs any) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, runs); err != nil {
		t.Fatal(err)
	}
}

// sameJSON reports whether a and b encode identically.
func sameJSON(t *testing.T, a, b any) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ja, jb)
}
