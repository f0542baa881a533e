package obs

import (
	"encoding/json"
	"io"
	"slices"
	"sort"
	"strings"
)

// Metrics is a registry of named counters, gauges and step-valued
// histograms. It is single-goroutine by design (one registry per
// worker); parallel trials aggregate by merging snapshots in a
// deterministic order, the same contract internal/pool gives results.
type Metrics struct {
	counters map[string]uint64
	gauges   map[string]float64
	hists    map[string][]uint64
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]uint64),
		gauges:   make(map[string]float64),
		hists:    make(map[string][]uint64),
	}
}

// Inc increments the named counter by one.
func (m *Metrics) Inc(name string) { m.counters[name]++ }

// Add increments the named counter by n.
func (m *Metrics) Add(name string, n uint64) { m.counters[name] += n }

// Counter returns the named counter's value.
func (m *Metrics) Counter(name string) uint64 { return m.counters[name] }

// SetGauge sets the named gauge.
func (m *Metrics) SetGauge(name string, v float64) { m.gauges[name] = v }

// Gauge returns the named gauge's value.
func (m *Metrics) Gauge(name string) float64 { return m.gauges[name] }

// Observe appends one sample to the named histogram.
func (m *Metrics) Observe(name string, v uint64) {
	m.hists[name] = append(m.hists[name], v)
}

// Samples returns the named histogram's raw samples.
func (m *Metrics) Samples(name string) []uint64 { return m.hists[name] }

// Snapshot returns a deep copy, safe to hand to another goroutine.
func (m *Metrics) Snapshot() *Metrics {
	s := NewMetrics()
	for k, v := range m.counters {
		s.counters[k] = v
	}
	for k, v := range m.gauges {
		s.gauges[k] = v
	}
	for k, v := range m.hists {
		s.hists[k] = append([]uint64(nil), v...)
	}
	return s
}

// Merge folds another registry into this one: counters add, histogram
// samples append, gauges take the other's value. Merging worker
// snapshots in index order yields the same registry regardless of
// scheduling.
func (m *Metrics) Merge(o *Metrics) {
	for k, v := range o.counters {
		m.counters[k] += v
	}
	for k, v := range o.gauges {
		m.gauges[k] = v
	}
	for k, v := range o.hists {
		m.hists[k] = append(m.hists[k], v...)
	}
}

// HistSummary condenses one histogram for export.
type HistSummary struct {
	Count int     `json:"count"`
	Min   uint64  `json:"min"`
	Max   uint64  `json:"max"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P90   uint64  `json:"p90"`
	P95   uint64  `json:"p95"`
	P99   uint64  `json:"p99"`
}

// Quantile returns the pct-th percentile of ascending-sorted samples,
// using the same rank convention (index n*pct/100) everywhere a
// percentile is reported — histogram summaries, experiment tables and
// the served Prometheus endpoint all call this one function, which is
// what makes a scraped quantile byte-comparable to a batch-computed
// one for the same samples.
func Quantile(sorted []uint64, pct int) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	i := len(sorted) * pct / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// HistogramNames returns the names of the histograms under prefix, in
// ascending order.
func (m *Metrics) HistogramNames(prefix string) []string {
	var names []string
	for k := range m.hists {
		names = append(names, k)
	}
	sort.Strings(names)
	return slices.DeleteFunc(names, func(k string) bool { return !strings.HasPrefix(k, prefix) })
}

// SortedSamples returns the named histogram's samples in ascending
// order, ready for Quantile.
func (m *Metrics) SortedSamples(name string) []uint64 {
	sorted := append([]uint64(nil), m.hists[name]...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted
}

func summarizeHist(xs []uint64) HistSummary {
	if len(xs) == 0 {
		return HistSummary{}
	}
	sorted := append([]uint64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum float64
	for _, x := range sorted {
		sum += float64(x)
	}
	return HistSummary{
		Count: len(sorted),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		Mean:  sum / float64(len(sorted)),
		P50:   Quantile(sorted, 50),
		P90:   Quantile(sorted, 90),
		P95:   Quantile(sorted, 95),
		P99:   Quantile(sorted, 99),
	}
}

// metricsDoc is the exported JSON shape. encoding/json sorts map keys,
// so the document is deterministic for identical registries.
type metricsDoc struct {
	Counters   map[string]uint64      `json:"counters"`
	Gauges     map[string]float64     `json:"gauges,omitempty"`
	Histograms map[string]HistSummary `json:"histograms"`
	Derived    map[string]float64     `json:"derived,omitempty"`
}

// MarshalJSON exports the registry: raw counters and gauges, summarized
// histograms, plus derived headline ratios (repair-vs-reinstall and
// overall availability) when their inputs are present.
func (m *Metrics) MarshalJSON() ([]byte, error) {
	doc := metricsDoc{
		Counters:   m.counters,
		Gauges:     m.gauges,
		Histograms: make(map[string]HistSummary, len(m.hists)),
		Derived:    map[string]float64{},
	}
	for k, v := range m.hists {
		doc.Histograms[k] = summarizeHist(v)
	}
	if re := m.counters["stabilizer.reinstalls"]; re > 0 {
		doc.Derived["stabilizer.repair_vs_reinstall"] =
			float64(m.counters["stabilizer.repairs"]) / float64(re)
	}
	if ep := m.counters["cluster.epochs"]; ep > 0 {
		doc.Derived["cluster.availability"] =
			float64(m.counters["cluster.legal_epochs"]) / float64(ep)
	}
	if len(doc.Derived) == 0 {
		doc.Derived = nil
	}
	return json.MarshalIndent(doc, "", "  ")
}

// WriteJSON writes the exported registry document followed by a
// newline.
func (m *Metrics) WriteJSON(w io.Writer) error {
	b, err := m.MarshalJSON()
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
