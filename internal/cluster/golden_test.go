package cluster

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"ssos/internal/core"
	"ssos/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/voter.golden.gz from the current voter")

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
		writeVoterGolden(t, got)
		return
	}
	want := readVoterGolden(t)
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

// writeVoterGolden records runs as the golden file.
func writeVoterGolden(t *testing.T, runs []voterRun) {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := json.NewEncoder(zw).Encode(runs); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenVoter), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenVoter, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readVoterGolden loads the golden file.
func readVoterGolden(t *testing.T) []voterRun {
	t.Helper()
	f, err := os.Open(goldenVoter)
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
	var runs []voterRun
	if err := json.Unmarshal(b, &runs); err != nil {
		t.Fatal(err)
	}
	return runs
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
