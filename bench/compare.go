package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// readRecords loads the --out records of a file, untraced runs only.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace == 0 {
			out = append(out, rec)
		}
	}
	return out, sc.Err()
}

// byWorkload groups records by workload, keeping file order.
func byWorkload(recs []record) map[string][]record {
	m := map[string][]record{}
	for _, r := range recs {
		m[r.Workload] = append(m[r.Workload], r)
	}
	return m
}

func values(recs []record, name string) []float64 {
	var xs []float64
	for _, r := range recs {
		if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

func failedOps(recs []record) int {
	n := 0
	for _, r := range recs {
		n += r.Failed
	}
	return n
}

// worsening is how much b is worse than a, as a share of a (negative
// when b is better).
func worsening(m metric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / a
	if m.better == "higher" {
		return -d
	}
	return d
}

// verdict labels one workload × metric pairing:
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - improved: the change wins at least 9 of every 10 pairs (ties count
//     for neither) over at least 10 pairs, the medians differ by more
//     than the parent's interquartile range, and the change fails no
//     more operations than the parent;
//   - unresolved: the parent's own spread is wider than the bound, and
//     not every change run beats every parent run;
//   - unchanged: otherwise.
func verdict(m metric, parent, change []float64, moreFailures bool) (label string, wins, pairs int) {
	pairs = len(parent)
	if len(change) < pairs {
		pairs = len(change)
	}
	if pairs == 0 {
		return "unresolved", 0, 0
	}
	for i := 0; i < pairs; i++ {
		if worsening(m, parent[i], change[i]) < 0 {
			wins++
		}
	}
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	switch {
	case worsening(m, pm, cm) > m.bound:
		return "regressed", wins, pairs
	case pairs >= 10 && wins*10 >= 9*pairs && math.Abs(cm-pm) > q3-q1 &&
		worsening(m, pm, cm) < 0 && !moreFailures:
		return "improved", wins, pairs
	case pm != 0 && (q3-q1)/math.Abs(pm) > m.bound && !allBetter(m, parent, change):
		return "unresolved", wins, pairs
	}
	return "unchanged", wins, pairs
}

// allBetter reports whether every change run reads better than every
// parent run.
func allBetter(m metric, parent, change []float64) bool {
	for _, p := range parent {
		for _, c := range change {
			if worsening(m, p, c) >= 0 {
				return false
			}
		}
	}
	return true
}

// compareFiles prints the verdict for every workload × end-to-end
// metric of two record files, pairing runs in file order (alternate
// which side runs first when collecting them). It returns 1 when any
// pairing regressed.
func compareFiles(w io.Writer, parentPath, changePath string) int {
	parent, err := readRecords(parentPath)
	if err == nil {
		var change []record
		change, err = readRecords(changePath)
		if err == nil {
			return compareRecords(w, parent, change)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 2
}

func compareRecords(w io.Writer, parent, change []record) int {
	pw, cw := byWorkload(parent), byWorkload(change)
	status := 0
	for _, wl := range workloads {
		p, c := pw[wl.name], cw[wl.name]
		if len(p) == 0 && len(c) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s: %d parent runs, %d change runs; failed ops %d vs %d; sim digests %s\n",
			wl.name, len(p), len(c), failedOps(p), failedOps(c), digestAgreement(p, c))
		for _, m := range endToEnd {
			pv, cv := values(p, m.name), values(c, m.name)
			label, wins, pairs := verdict(m, pv, cv, failedOps(c) > failedOps(p))
			if label == "regressed" {
				status = 1
			}
			pq1, pq3 := quartiles(pv)
			cq1, cq3 := quartiles(cv)
			fmt.Fprintf(w, "  %-10s %-12s parent %10.4g [%.4g, %.4g]  change %10.4g [%.4g, %.4g]  %+6.1f%%  wins %d/%d  bound %.0f%%\n",
				label, m.name, median(pv), pq1, pq3, median(cv), cq1, cq3,
				100*worsening(m, median(pv), median(cv)), wins, pairs, 100*m.bound)
		}
	}
	return status
}

// digestAgreement reports whether same-seed runs simulated the same
// thing on both sides.
func digestAgreement(parent, change []record) string {
	want := map[int64]string{}
	for _, r := range parent {
		want[r.Seed] = r.SimDigest
	}
	same, differ := 0, 0
	for _, r := range change {
		if d, ok := want[r.Seed]; ok {
			if d == r.SimDigest {
				same++
			} else {
				differ++
			}
		}
	}
	if differ > 0 {
		return fmt.Sprintf("DIFFER on %d same-seed runs (%d agree)", differ, same)
	}
	return fmt.Sprintf("identical on %d same-seed runs", same)
}

// quartileSummary is one metric over one set of runs.
type quartileSummary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
	// Spread is (q3 - q1) / median.
	Spread float64 `json:"spread"`
}

type workloadSummary struct {
	Runs       int                        `json:"runs"`
	Failed     int                        `json:"failed"`
	Metrics    map[string]quartileSummary `json:"metrics"`
	SimDigests map[string]string          `json:"sim_digests"`
}

type setSummary struct {
	File      string                     `json:"file"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]workloadSummary `json:"workloads"`
}

// agreement is how a metric's second set compares with its first.
type agreement struct {
	Bound float64 `json:"bound"`
	// Spreads are each set's (q3 - q1) / median; Drift is how much the
	// second median is worse than the first, as a share of it.
	Spreads []float64 `json:"spreads"`
	Drift   float64   `json:"drift"`
	// OK: every spread (setup_s exempt) and the drift within the bound.
	OK bool `json:"ok"`
}

type summary struct {
	Host struct {
		NProc int    `json:"nproc"`
		CPU   string `json:"cpu"`
		Go    string `json:"go"`
	} `json:"host"`
	Sets             []setSummary                    `json:"sets"`
	Agreement        map[string]map[string]agreement `json:"agreement"`
	SimDigestsEqual  bool                            `json:"sim_digests_equal"`
	AllWithinBounds  bool                            `json:"all_within_bounds"`
	WorstSpreadShare float64                         `json:"worst_spread_share_of_bound"`
}

// summarizeFiles prints, as JSON, each set's median, quartiles and run
// count per workload × end-to-end metric, with how the sets agree: the
// record kept as bench/results/baseline.json.
func summarizeFiles(w io.Writer, paths []string) error {
	var s summary
	s.Host.NProc = runtime.NumCPU()
	s.Host.CPU = cpuModel()
	s.Host.Go = runtime.Version()
	for _, path := range paths {
		recs, err := readRecords(path)
		if err != nil {
			return err
		}
		set := setSummary{File: path, Workloads: map[string]workloadSummary{}}
		for name, rs := range byWorkload(recs) {
			ws := workloadSummary{Runs: len(rs), Failed: failedOps(rs),
				Metrics: map[string]quartileSummary{}, SimDigests: map[string]string{}}
			for _, m := range endToEnd {
				xs := values(rs, m.name)
				q1, q3 := quartiles(xs)
				med := median(xs)
				qs := quartileSummary{Median: med, Q1: q1, Q3: q3, N: len(xs), Unit: m.unit}
				if med != 0 {
					qs.Spread = (q3 - q1) / med
				}
				ws.Metrics[m.name] = qs
			}
			for _, r := range rs {
				ws.SimDigests[fmt.Sprint(r.Seed)] = r.SimDigest
				set.Seconds = r.Seconds
			}
			set.Workloads[name] = ws
		}
		s.Sets = append(s.Sets, set)
	}
	s.Agreement = map[string]map[string]agreement{}
	s.SimDigestsEqual, s.AllWithinBounds = true, true
	if len(s.Sets) == 0 {
		return writeJSON(w, s)
	}
	first := s.Sets[0]
	names := make([]string, 0, len(first.Workloads))
	for name := range first.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.Agreement[name] = map[string]agreement{}
		for _, m := range endToEnd {
			a := agreement{Bound: m.bound, OK: true}
			for _, set := range s.Sets {
				q := set.Workloads[name].Metrics[m.name]
				a.Spreads = append(a.Spreads, q.Spread)
				if m.name != "setup_s" {
					a.OK = a.OK && q.Spread <= m.bound
					s.WorstSpreadShare = math.Max(s.WorstSpreadShare, q.Spread/m.bound)
				}
				a.Drift = math.Max(a.Drift, worsening(m, first.Workloads[name].Metrics[m.name].Median, q.Median))
			}
			a.OK = a.OK && a.Drift <= m.bound
			s.AllWithinBounds = s.AllWithinBounds && a.OK
			s.Agreement[name][m.name] = a
		}
		for _, set := range s.Sets[1:] {
			for seed, d := range first.Workloads[name].SimDigests {
				if other, ok := set.Workloads[name].SimDigests[seed]; ok && other != d {
					s.SimDigestsEqual = false
				}
			}
		}
	}
	return writeJSON(w, s)
}

// cpuModel reads the host CPU model name, where Linux provides one.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
