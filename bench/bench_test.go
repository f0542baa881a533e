package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestWorkloadsTiny runs every workload at a tiny size through the same
// functions the command uses, once untraced and once traced with the
// same seed: every check passes, every metric is printed with its unit,
// and both runs simulate exactly the same thing (tracing must never
// reach the simulation).
func TestWorkloadsTiny(t *testing.T) {
	tiny := size{prefix: 1, setups: 1}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var digests []string
			for _, traced := range []bool{false, true} {
				r := newRun(w, 3, tiny, traced)
				res, err := r.measure()
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d: %v",
						traced, res.Correct, res.Attempted, res.Failed, r.errs)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, m.name, got, m.unit)
					}
				}
				if !traced {
					for name, v := range res.Metrics {
						if v.Value <= 0 {
							t.Errorf("end-to-end %s = %v, want > 0", name, v.Value)
						}
					}
				}
				if _, err := json.Marshal(res); err != nil {
					t.Errorf("traced=%v: result does not encode: %v", traced, err)
				}
				digests = append(digests, r.simDigest())
			}
			if digests[0] == "" || digests[0] != digests[1] {
				t.Errorf("same-seed sim digests differ: untraced %q, traced %q", digests[0], digests[1])
			}
		})
	}
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the tables here.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(f.Command, want) {
		t.Errorf("command %v, want %v", f.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(f.Paths, want) {
		t.Errorf("paths %v, want %v", f.Paths, want)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, want %s: %s", i, f.Workloads[i], w.name, w.why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := f.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, got, m)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := f.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, got, m)
		}
	}
}

// TestCalibrationAllocatesNothing: the reference work must leave the
// program's heap and GC alone.
func TestCalibrationAllocatesNothing(t *testing.T) {
	calibrate()
	if n := testing.AllocsPerRun(5, func() { calibrate() }); n != 0 {
		t.Errorf("calibrate allocates %v times per run", n)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4) values for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 1, 3}, 1, 5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestVerdict covers each label of the comparator's rule.
func TestVerdict(t *testing.T) {
	lower := metric{name: "round_ms", better: "lower", bound: 0.10}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + by
		}
		return out
	}
	noisy := []float64{70, 130, 100, 80, 120, 100, 75, 125, 100, 90}
	cases := []struct {
		name                string
		parent, chg         []float64
		moreFailures        bool
		want                string
		wantWins, wantPairs int
	}{
		{"faster by more than the spread", parent, shift(parent, -5), false, "improved", 10, 10},
		{"faster but failing more", parent, shift(parent, -5), true, "unchanged", 10, 10},
		{"slower beyond the bound", parent, shift(parent, 15), false, "regressed", 0, 10},
		{"within noise", parent, shift(parent, 0.5), false, "unchanged", 0, 10},
		{"too few pairs to claim", parent[:5], shift(parent[:5], -5), false, "unchanged", 5, 5},
		{"spread wider than the bound", noisy, shift(noisy, -1), false, "unresolved", 10, 10},
	}
	for _, c := range cases {
		got, wins, pairs := verdict(lower, c.parent, c.chg, c.moreFailures)
		if got != c.want || wins != c.wantWins || pairs != c.wantPairs {
			t.Errorf("%s: verdict %s, wins %d/%d; want %s, %d/%d", c.name, got, wins, pairs, c.want, c.wantWins, c.wantPairs)
		}
	}
}
