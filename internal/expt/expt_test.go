package expt

import (
	"strconv"
	"strings"
	"testing"

	"ssos/internal/dev"
	"ssos/internal/trace"
)

var quick = Options{Quick: true, Seed: 7}

// cellPct parses a "97%" cell.
func cellPct(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("bad pct cell %q", cell)
	}
	return v
}

func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("bad float cell %q", cell)
	}
	return v
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID: "T", Title: "demo", Claim: "c",
		Columns: []string{"a", "bb"},
		Notes:   []string{"n"},
	}
	tab.AddRow("1", "2")
	out := tab.Render()
	for _, want := range []string{"T — demo", "claim: c", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
	md := tab.Markdown()
	if !strings.Contains(md, "| a | bb |") || !strings.Contains(md, "| 1 | 2 |") {
		t.Errorf("markdown:\n%s", md)
	}
}

func TestSeriesRenderingAndCSV(t *testing.T) {
	s := &Series{
		ID: "F", Title: "demo", XLabel: "x", YLabel: "y",
		Lines: []Line{{Name: "l", X: []float64{1, 2, 3}, Y: []float64{1, 4, 9}}},
	}
	out := s.Render()
	if !strings.Contains(out, "F — demo") || !strings.Contains(out, "* = l") {
		t.Errorf("series render:\n%s", out)
	}
	csv := s.CSV()
	if !strings.HasPrefix(csv, "x,l\n1,1\n") {
		t.Errorf("csv:\n%s", csv)
	}
	// Degenerate series must not panic.
	empty := &Series{ID: "E", Title: "none"}
	if empty.Render() == "" {
		t.Error("empty series render")
	}
	flat := &Series{ID: "C", Lines: []Line{{Name: "c", X: []float64{1}, Y: []float64{5}}}}
	if flat.Render() == "" {
		t.Error("flat series render")
	}
}

func TestSummarize(t *testing.T) {
	st := summarize([]uint64{5, 1, 9, 3, 7})
	if st.n != 5 || st.min != 1 || st.max != 9 || st.p50 != 5 {
		t.Fatalf("stats: %+v", st)
	}
	if st.mean != 5 {
		t.Fatalf("mean: %v", st.mean)
	}
	if z := summarize(nil); z.n != 0 {
		t.Fatal("empty summarize")
	}
}

func TestAvailabilityMetric(t *testing.T) {
	spec := trace.HeartbeatSpec{Start: 1, MaxGap: 100}
	w := []dev.PortWrite{
		{Step: 0, Value: 1}, {Step: 50, Value: 2}, {Step: 100, Value: 3},
		{Step: 500, Value: 1}, // restart after downtime
		{Step: 550, Value: 2},
	}
	av := spec.Availability(w, 1000)
	// Legal up-gaps: 50+50 (first run) + 50 (after restart) = 150.
	if av != 0.15 {
		t.Fatalf("availability = %v", av)
	}
	if spec.Availability(nil, 0) != 0 {
		t.Fatal("zero-run availability")
	}
}

func TestE1AllClassesRecover(t *testing.T) {
	tab := E1RAMCorruption(quick)
	if len(tab.Rows) != 6 { // six fault classes
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if got := cellPct(t, row[2]); got != 100 {
			t.Errorf("%s: recovered %v%%, want 100%%", row[0], got)
		}
	}
}

func TestE2CounterHardwareMatters(t *testing.T) {
	tab, series := E2ArbitraryState(quick)
	paper := cellPct(t, tab.Rows[0][2])
	stock := cellPct(t, tab.Rows[1][2])
	if paper != 100 {
		t.Errorf("paper hardware converged %v%%, want 100%%", paper)
	}
	if stock >= paper {
		t.Errorf("stock latch should lose trials: paper=%v stock=%v", paper, stock)
	}
	if vec := cellPct(t, tab.Rows[2][2]); vec >= stock {
		t.Errorf("RAM-idt vectoring should be the worst: latch=%v vectoring=%v", stock, vec)
	}
	if len(series.Lines) != 1 || len(series.Lines[0].Y) == 0 {
		t.Error("missing F1 CDF data")
	}
}

func TestE3ShapesHold(t *testing.T) {
	tab, series := E3FaultRateComparison(quick)
	// Row 0 is rate 0: every approach but reinstall near 1.
	for col := 1; col <= 4; col++ {
		if v := cellFloat(t, tab.Rows[0][col]); v < 0.5 {
			t.Errorf("rate 0 availability col %d = %v", col, v)
		}
	}
	// Highest rate: baseline must be clearly below monitor.
	last := tab.Rows[len(tab.Rows)-1]
	base := cellFloat(t, last[1])
	monitor := cellFloat(t, last[4])
	if base >= monitor {
		t.Errorf("baseline (%v) should collapse below monitor (%v) at high fault rate", base, monitor)
	}
	if len(series.Lines) != 4 {
		t.Errorf("F2 lines: %d", len(series.Lines))
	}
}

func TestE4RepairAndPreservation(t *testing.T) {
	tab := E4MonitorRepair(quick)
	for _, row := range tab.Rows {
		if got := cellPct(t, row[2]); got != 100 {
			t.Errorf("%s: recovered %v%%", row[0], got)
		}
		if got := cellPct(t, row[5]); got < 80 {
			t.Errorf("%s: counter preserved only %v%%", row[0], got)
		}
	}
}

func TestE5PeriodTradeoff(t *testing.T) {
	tab, series := E5PeriodSweep(quick)
	// Fault-free availability grows with the period.
	first := cellFloat(t, tab.Rows[0][1])
	lastRow := tab.Rows[len(tab.Rows)-1]
	last := cellFloat(t, lastRow[1])
	if first >= last {
		t.Errorf("short period should cost availability: first=%v last=%v", first, last)
	}
	// Silent faults make the longest period WORSE than a middle one:
	// the trade-off crossover.
	mid := cellFloat(t, tab.Rows[3][3])
	long := cellFloat(t, lastRow[3])
	if long >= mid {
		t.Errorf("silent-fault crossover missing: mid=%v long=%v", mid, long)
	}
	if len(series.Lines) != 3 {
		t.Errorf("F3 lines: %d", len(series.Lines))
	}
}

func TestE6PrimitiveSweep(t *testing.T) {
	tab := E6Primitive(quick)
	if got := cellPct(t, tab.Rows[0][2]); got != 100 {
		t.Errorf("aligned sweep stabilized %v%%, want 100%%", got)
	}
	if got := cellPct(t, tab.Rows[1][2]); got != 100 {
		t.Errorf("fill sweep stabilized %v%%, want 100%%", got)
	}
	f := E6FairnessFigure(quick)
	if len(f.Lines) != 4 {
		t.Fatalf("F4 lines: %d", len(f.Lines))
	}
	for _, l := range f.Lines {
		if l.Y[len(l.Y)-1] <= l.Y[0] {
			t.Errorf("process %s beats did not grow", l.Name)
		}
	}
}

func TestE7SchedulerRecovery(t *testing.T) {
	tab := E7Scheduler(Options{Quick: true, Seed: 7, Trials: 3})
	for i, row := range tab.Rows {
		got := cellPct(t, row[2])
		// The bare-scheduler blast rows may lose a trial to the
		// data-aliasing absorbing cycle (a documented finding); the
		// protected variant (last row) must always recover, and no
		// class may collapse.
		if i == len(tab.Rows)-1 && got != 100 {
			t.Errorf("%s: protected variant recovered %v%%, want 100%%", row[0], got)
		}
		if got < 60 {
			t.Errorf("%s: recovered only %v%%", row[0], got)
		}
	}
}

func TestE8OverheadDecreasesWithQuantum(t *testing.T) {
	tab, series := E8Overhead(quick)
	first := cellFloat(t, tab.Rows[0][1])
	last := cellFloat(t, tab.Rows[len(tab.Rows)-1][1])
	if first <= last {
		t.Errorf("overhead should fall with quantum: %v -> %v", first, last)
	}
	if len(series.Lines) != 1 {
		t.Errorf("F5 lines: %d", len(series.Lines))
	}
}

func TestE9CheckpointFailsWhereROMDesignsRecover(t *testing.T) {
	tab, series := E9Checkpoint(quick)
	cp := cellPct(t, tab.Rows[0][2])
	re := cellPct(t, tab.Rows[1][2])
	mo := cellPct(t, tab.Rows[2][2])
	if re != 100 || mo != 100 {
		t.Errorf("ROM designs must fully recover: reinstall=%v monitor=%v", re, mo)
	}
	if cp >= 100 {
		t.Errorf("checkpointing should lose some trials, got %v%%", cp)
	}
	if len(series.Lines) != 1 || len(series.Lines[0].Y) == 0 {
		t.Error("missing F6 data")
	}
}

func TestE10TokenRingConverges(t *testing.T) {
	tab := E10TokenRing(Options{Quick: true, Seed: 7, Trials: 3})
	for _, row := range tab.Rows {
		if got := cellPct(t, row[2]); got != 100 {
			t.Errorf("%s: converged %v%%", row[0], got)
		}
	}
}

func TestE11ProtectionReducesVictimViolations(t *testing.T) {
	tab := E11Protection(Options{Quick: true, Seed: 7, Trials: 3})
	plain := cellFloat(t, tab.Rows[0][2])
	prot := cellFloat(t, tab.Rows[1][2])
	if prot >= plain {
		t.Errorf("protection should reduce victim violations: plain=%v protect=%v", plain, prot)
	}
	if plain == 0 {
		t.Error("the stray-ds fault should cause violations without protection")
	}
}

func TestE12ZombieSeparatesDesigns(t *testing.T) {
	tab := E12AdaptiveWatchdog(Options{Quick: true, Seed: 7, Trials: 4})
	// Row 0 adaptive, row 1 reinstall.
	adAvail := cellFloat(t, tab.Rows[0][1])
	reAvail := cellFloat(t, tab.Rows[1][1])
	if adAvail <= reAvail {
		t.Errorf("adaptive should win fault-free availability: %v vs %v", adAvail, reAvail)
	}
	if got := cellPct(t, tab.Rows[0][2]); got != 100 {
		t.Errorf("adaptive halt recovery %v%%", got)
	}
	if got := cellPct(t, tab.Rows[1][2]); got != 100 {
		t.Errorf("reinstall halt recovery %v%%", got)
	}
	if got := cellPct(t, tab.Rows[0][3]); got != 0 {
		t.Errorf("adaptive should NEVER recover the zombie, got %v%%", got)
	}
	if got := cellPct(t, tab.Rows[1][3]); got != 100 {
		t.Errorf("reinstall zombie recovery %v%%", got)
	}
}

func TestE13SilentFaultsNeedNonMaskableTrigger(t *testing.T) {
	tab := E13TickfulSilentFaults(Options{Quick: true, Seed: 7, Trials: 3})
	for _, row := range tab.Rows {
		// The baseline may get lucky on the IF fault when the strike
		// lands while the CPU happens to be awake (the loop's sti heals
		// it); it must still lose most trials.
		if got := cellPct(t, row[1]); got > 34 {
			t.Errorf("%s: baseline recovered %v%%", row[0], got)
		}
		if got := cellPct(t, row[2]); got != 100 {
			t.Errorf("%s: reinstall recovered %v%%", row[0], got)
		}
		if got := cellPct(t, row[3]); got != 100 {
			t.Errorf("%s: adaptive recovered %v%%", row[0], got)
		}
	}
}

func TestE15LayeredRingsConverge(t *testing.T) {
	tab, fig := E15LayeredRings(Options{Quick: true, Seed: 7, Trials: 2})
	// 3 variants x 3 layers x 2 deployments.
	if len(tab.Rows) != 18 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if got := cellPct(t, row[4]); got != 100 {
			t.Errorf("%s/%s/%s: converged %v%%, want 100%%", row[0], row[1], row[2], got)
		}
	}
	if fig.ID != "F8" || len(fig.Lines) != 6 {
		t.Fatalf("figure: %+v", fig)
	}
	for _, l := range fig.Lines {
		if len(l.X) != 3 {
			t.Fatalf("line %s has %d points", l.Name, len(l.X))
		}
	}
}

func TestE14VotingScalesAvailability(t *testing.T) {
	tab, fig, figLat := E14ClusterAvailability(quick)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	// Column layout: replicas, quorum, one availability column per
	// probability, evictions, then the episode-latency percentiles.
	const pMaxCol = 5
	// Fault-free column is fully available at every fleet size.
	for _, row := range tab.Rows {
		if got := cellFloat(t, row[2]); got != 1 {
			t.Errorf("N=%s fault-free availability %v, want 1", row[0], got)
		}
	}
	// At the harshest fault rate, a real fleet (N>=5) must beat the
	// single node: voting masks what one machine can only repair late.
	single := cellFloat(t, tab.Rows[0][pMaxCol])
	for _, row := range tab.Rows[2:] {
		if got := cellFloat(t, row[pMaxCol]); got < single {
			t.Errorf("N=%s availability %v below single-node %v", row[0], got, single)
		}
	}
	// The instrumented pMax runs strike constantly, so every fleet size
	// must have resolved at least one recovery episode, and p99 >= p50.
	for _, row := range tab.Rows {
		p50, p99 := cellFloat(t, row[pMaxCol+2]), cellFloat(t, row[pMaxCol+3])
		if p50 <= 0 || p99 < p50 {
			t.Errorf("N=%s episode latency p50=%v p99=%v", row[0], p50, p99)
		}
	}
	if fig.ID != "F7" || len(fig.Lines) != 4 {
		t.Fatalf("figure: %+v", fig)
	}
	if figLat.ID != "F7B" || len(figLat.Lines) != 2 || len(figLat.Lines[0].X) != 5 {
		t.Fatalf("latency figure: %+v", figLat)
	}
}
