// Package expt implements the reproduction experiments E1-E15 defined
// in DESIGN.md: each one exercises a claim of the paper on the
// simulated systems from internal/core and reports a table (and, where
// the claim is a trend, a data series). cmd/ssos-bench runs them all
// and renders EXPERIMENTS.md's data.
//
// The paper (a workshop paper) reports no quantitative tables; its
// evaluation is the Bochs fault-injection observation in Section 3 plus
// the lemmas and theorems. The experiments therefore measure those
// claims: recovery from corruption (E1), convergence from arbitrary
// configurations across hardware variants (E2), availability under
// sustained fault rates (E3), predicate repair and state preservation
// (E4), the watchdog-period trade-off (E5), primitive-scheduler
// stabilization and fairness (E6), scheduler recovery and fairness with
// the protection ablation (E7), scheduling overhead (E8), the
// checkpoint/rollback comparator (E9), the token-ring composition
// (E10), the memory-protection ablation (E11), the adaptive-watchdog
// comparator (E12), the silent wake-path faults of the interrupt-driven
// guest (E13), the replicated-cluster availability scaling of
// internal/cluster (E14), and the layered mailbox token rings —
// single-machine and one node per replica — of E15.
//
// Independent trials run in parallel on internal/pool (pool.ForEach).
// Each builds its own System, and every seed and fault schedule derives
// from the trial index, so no table depends on scheduling.
package expt

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Table is one experiment's tabular result.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper claim being measured
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render returns the table as aligned ASCII text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "*Claim:* %s\n\n", t.Claim)
	}
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*Note:* %s\n", n)
	}
	return b.String()
}

// Line is one named data line of a series.
type Line struct {
	Name string
	X    []float64
	Y    []float64
}

// Series is one experiment's figure-style result.
type Series struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	XLog   bool
	Lines  []Line
}

// CSV renders the series as comma-separated values (one x column per
// line's sample grid; lines share the grid in all our experiments).
func (s *Series) CSV() string {
	var b strings.Builder
	b.WriteString(s.XLabel)
	for _, l := range s.Lines {
		b.WriteString("," + l.Name)
	}
	b.WriteByte('\n')
	if len(s.Lines) == 0 {
		return b.String()
	}
	for i := range s.Lines[0].X {
		fmt.Fprintf(&b, "%g", s.Lines[0].X[i])
		for _, l := range s.Lines {
			if i < len(l.Y) {
				fmt.Fprintf(&b, ",%g", l.Y[i])
			} else {
				b.WriteString(",")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// JSON renders the series as an indented JSON document — the
// machine-readable twin of CSV, carrying the metadata (title, axis
// labels, log scaling) the CSV header cannot. Field order is fixed by
// the struct, so the output is deterministic.
func (s *Series) JSON() ([]byte, error) {
	type jsonLine struct {
		Name string    `json:"name"`
		X    []float64 `json:"x"`
		Y    []float64 `json:"y"`
	}
	doc := struct {
		ID     string     `json:"id"`
		Title  string     `json:"title"`
		XLabel string     `json:"xlabel"`
		YLabel string     `json:"ylabel"`
		XLog   bool       `json:"xlog,omitempty"`
		Lines  []jsonLine `json:"lines"`
	}{ID: s.ID, Title: s.Title, XLabel: s.XLabel, YLabel: s.YLabel, XLog: s.XLog}
	for _, l := range s.Lines {
		doc.Lines = append(doc.Lines, jsonLine(l))
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Render draws the series as a coarse ASCII chart, one mark per line.
// With XLog set the x axis is log10-scaled (zero x values are plotted
// one decade below the smallest positive sample).
func (s *Series) Render() string {
	const width, height = 64, 16
	var b strings.Builder
	axis := s.XLabel
	if s.XLog {
		axis = "log10 " + axis
	}
	fmt.Fprintf(&b, "%s — %s\n(y: %s, x: %s)\n", s.ID, s.Title, s.YLabel, axis)
	if len(s.Lines) == 0 {
		return b.String()
	}
	lines := s.Lines
	if s.XLog {
		lines = logLines(lines)
	}
	minX, maxX := lines[0].X[0], lines[0].X[0]
	minY, maxY := lines[0].Y[0], lines[0].Y[0]
	for _, l := range lines {
		for i := range l.X {
			minX, maxX = minf(minX, l.X[i]), maxf(maxX, l.X[i])
			minY, maxY = minf(minY, l.Y[i]), maxf(maxY, l.Y[i])
		}
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	marks := "*o+x#@"
	for li, l := range lines {
		for i := range l.X {
			x := int((l.X[i] - minX) / (maxX - minX) * float64(width-1))
			y := int((l.Y[i] - minY) / (maxY - minY) * float64(height-1))
			row := height - 1 - y
			if row >= 0 && row < height && x >= 0 && x < width {
				grid[row][x] = marks[li%len(marks)]
			}
		}
	}
	fmt.Fprintf(&b, "%10.3g ┤\n", maxY)
	for _, row := range grid {
		fmt.Fprintf(&b, "%10s │%s\n", "", string(row))
	}
	fmt.Fprintf(&b, "%10.3g └%s\n", minY, strings.Repeat("─", width))
	fmt.Fprintf(&b, "%10s  %-10.3g%*s\n", "", minX, width-10, fmt.Sprintf("%.3g", maxX))
	for li, l := range s.Lines {
		fmt.Fprintf(&b, "  %c = %s\n", marks[li%len(marks)], l.Name)
	}
	return b.String()
}

// logLines transforms the x values of each line to log10, mapping
// non-positive values one decade below the smallest positive x.
func logLines(in []Line) []Line {
	minPos := 0.0
	for _, l := range in {
		for _, x := range l.X {
			if x > 0 && (minPos == 0 || x < minPos) {
				minPos = x
			}
		}
	}
	if minPos == 0 {
		return in
	}
	floor := math.Log10(minPos) - 1
	out := make([]Line, len(in))
	for i, l := range in {
		out[i] = Line{Name: l.Name, Y: l.Y, X: make([]float64, len(l.X))}
		for j, x := range l.X {
			if x > 0 {
				out[i].X[j] = math.Log10(x)
			} else {
				out[i].X[j] = floor
			}
		}
	}
	return out
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// stats summarizes a sample of measurements.
type stats struct {
	n              int
	mean, p50, p95 float64
	min, max       float64
}

func summarize(xs []uint64) stats {
	if len(xs) == 0 {
		return stats{}
	}
	sorted := make([]uint64, len(xs))
	copy(sorted, xs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum float64
	for _, x := range sorted {
		sum += float64(x)
	}
	return stats{
		n:    len(sorted),
		mean: sum / float64(len(sorted)),
		p50:  float64(sorted[len(sorted)/2]),
		p95:  float64(sorted[len(sorted)*95/100]),
		min:  float64(sorted[0]),
		max:  float64(sorted[len(sorted)-1]),
	}
}

// Options tunes experiment size. Quick mode shrinks trial counts so
// benchmarks finish fast; the full mode is what cmd/ssos-bench uses.
type Options struct {
	// Trials is the number of repetitions per cell (0 = default).
	Trials int
	// Seed makes runs reproducible.
	Seed int64
	// Quick reduces trials and horizons for use inside testing.B loops.
	Quick bool
}

func (o Options) trials(def int) int {
	if o.Trials > 0 {
		return o.Trials
	}
	if o.Quick {
		// The fast step engine makes a machine step roughly 3x cheaper
		// than the byte-wise interpreter, so quick mode affords more trials
		// per cell than the original cap of 5 at the same wall-clock
		// budget; 8 tightens the quick-mode confidence intervals.
		if def > 8 {
			return 8
		}
		return def
	}
	return def
}

// horizon returns the step horizon for an experiment cell. Quick mode
// used to halve horizons; with the ~3x faster step loop the full
// horizon fits the same wall-clock budget, and truncated horizons were
// the main source of quick-vs-full disagreement (slow recoveries were
// scored as failures).
func (o Options) horizon(def int) int { return def }

// Report bundles every experiment output.
type Report struct {
	Tables []*Table
	Series []*Series
}

// Render concatenates all tables and figures as ASCII.
func (r *Report) Render() string {
	var b strings.Builder
	for _, t := range r.Tables {
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	for _, s := range r.Series {
		b.WriteString(s.Render())
		b.WriteByte('\n')
	}
	return b.String()
}

// All runs every experiment.
func All(o Options) *Report {
	r := &Report{}
	t1 := E1RAMCorruption(o)
	t2, f1 := E2ArbitraryState(o)
	t3, f2 := E3FaultRateComparison(o)
	t4 := E4MonitorRepair(o)
	t5, f3 := E5PeriodSweep(o)
	t6 := E6Primitive(o)
	t7 := E7Scheduler(o)
	t8, f5 := E8Overhead(o)
	t9, f6 := E9Checkpoint(o)
	t10 := E10TokenRing(o)
	t11 := E11Protection(o)
	t12 := E12AdaptiveWatchdog(o)
	t13 := E13TickfulSilentFaults(o)
	t14, f7, f7b := E14ClusterAvailability(o)
	t15, f8 := E15LayeredRings(o)
	r.Tables = append(r.Tables, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15)
	r.Series = append(r.Series, f1, f2, f3, E6FairnessFigure(o), f5, f6, f7, f7b, f8)
	return r
}
