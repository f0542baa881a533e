package main

import (
	"math"
	"sort"
)

// metric names one reported number. BENCHMARK.json at the repository
// root lists the same names, units, directions and bounds; bench_test
// keeps the two in step.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (0 for
	// per-layer metrics, which have none).
	bound float64
}

// endToEnd lists the metrics an untraced run prints, every workload
// alike. Each workload is a sequence of fixed-size rounds and has one
// primary call (the ops), so the same numbers mean the same thing on
// all of them; README.md gives each workload's round and op. Times are
// in reference units, scaled by the calibrations around them (calib.go),
// so a host that drifts for longer than a run does not move them.
var endToEnd = []metric{
	// The median of several timed set-ups, so one slow set-up does not
	// decide it.
	{"setup_s", "s", "lower", 0.25},
	// Live heap after a GC at the end of the fixed-work prefix: mostly
	// retained events, independent of how many rounds the time budget
	// allowed.
	{"heap_mb", "MB", "lower", 0.20},
	// Median time of one round. Rounds are fixed work, so this is
	// throughput; a median over rounds rides out contention bursts that
	// a total-work-over-total-time average absorbs.
	{"round_ms", "ms", "lower", 0.25},
	// Median latency of the primary call. Its 99th percentile is printed
	// with the sample count but carries no bound: on a shared host it
	// measures the host's bursts more than the program.
	{"op_p50_ms", "ms", "lower", 0.25},
}

// Units shared by the per-layer table.
const (
	uCount = "count"
	uFrac  = "fraction"
	uRatio = "ratio"
)

// spanLayers are the layers spans are recorded for, named after the
// repository's packages ("http" is the loopback round trip outside the
// serve handler). Each gets a self-time share in the traced output.
var spanLayers = []string{
	"guest", "core", "machine", "isa", "fault", "trace", "obs",
	"cluster", "pool", "http", "serve", "imglint", "model",
}

// perLayer lists the metrics a traced run prints. A layer a workload
// never calls reads 0.
var perLayer = func() []metric {
	ms := []metric{
		{name: "machine.ns_per_step", unit: "ns", better: "lower"},
		{name: "machine.steps", unit: uCount, better: "higher"},
		{name: "machine.instrs", unit: uCount, better: "higher"},
		{name: "machine.instrs_per_block", unit: uRatio, better: "higher"},
		{name: "machine.block_instr_frac", unit: uFrac, better: "higher"},
		{name: "machine.bails_per_kstep", unit: "1/kstep", better: "lower"},
		{name: "machine.nmis", unit: uCount, better: "lower"},
		{name: "machine.exceptions", unit: uCount, better: "lower"},
		{name: "machine.resets", unit: uCount, better: "lower"},
		{name: "machine.halt_frac", unit: uFrac, better: "lower"},
		{name: "machine.interp_speedup", unit: uRatio, better: "higher"},
		{name: "isa.decode_ns", unit: "ns", better: "lower"},
		{name: "guest.build_ms", unit: "ms", better: "lower"},
		{name: "core.new_ms", unit: "ms", better: "lower"},
		{name: "fault.injections", unit: uCount, better: "lower"},
		{name: "fault.inject_us", unit: "us", better: "lower"},
		{name: "fault.resolved_frac", unit: uFrac, better: "higher"},
		{name: "obs.events", unit: uCount, better: "lower"},
		{name: "obs.events_per_kstep", unit: "1/kstep", better: "lower"},
		{name: "obs.retained_events", unit: uCount, better: "lower"},
		{name: "obs.jsonl_mb_per_s", unit: "MB/s", better: "higher"},
		{name: "obs.fold_ms", unit: "ms", better: "lower"},
		{name: "obs.trace_ms", unit: "ms", better: "lower"},
		{name: "obs.metrics_json_ms", unit: "ms", better: "lower"},
		{name: "cluster.epochs", unit: uCount, better: "higher"},
		{name: "cluster.evictions", unit: uCount, better: "lower"},
		{name: "cluster.fresh_boots", unit: uCount, better: "lower"},
		{name: "cluster.availability", unit: uFrac, better: "higher"},
		{name: "cluster.epoch_ms", unit: "ms", better: "lower"},
		{name: "cluster.relay_round_us", unit: "us", better: "lower"},
		{name: "cluster.ring_legal_frac", unit: uFrac, better: "higher"},
		{name: "pool.fanout_us", unit: "us", better: "lower"},
	}
	for _, r := range serveRoutes {
		ms = append(ms, metric{name: "serve." + r + "_ms", unit: "ms", better: "lower"})
	}
	ms = append(ms, []metric{
		{name: "serve.run_p99_ms", unit: "ms", better: "lower"},
		{name: "serve.read_p50_ms", unit: "ms", better: "lower"},
		{name: "serve.read_p99_ms", unit: "ms", better: "lower"},
		{name: "serve.session_ms", unit: "ms", better: "lower"},
		{name: "serve.handler_frac", unit: uFrac, better: "higher"},
		{name: "serve.requests", unit: uCount, better: "lower"},
		{name: "serve.events_bytes", unit: "bytes", better: "lower"},
		{name: "imglint.cert_ms", unit: "ms", better: "lower"},
		{name: "imglint.cert_states", unit: uCount, better: "lower"},
		{name: "imglint.lint_ms", unit: "ms", better: "lower"},
		{name: "model.verify_ms", unit: "ms", better: "lower"},
	}...)
	for _, l := range spanLayers {
		ms = append(ms, metric{name: l + ".self_frac", unit: uFrac, better: "lower"})
	}
	return append(ms,
		metric{name: "bench.attributed_frac", unit: uFrac, better: "higher"},
		metric{name: "bench.trace_overhead", unit: uFrac, better: "lower"},
		// The host's speed during the run: the calibration's median host
		// time (see calib.go).
		metric{name: "bench.calibration_ms", unit: "ms", better: "lower"},
	)
}()

// quantile returns the q-quantile (0..1) of xs by nearest rank; 0 for
// no samples. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the middle value of xs (the mean of the middle two for
// an even count, as Python's statistics.median), leaving xs untouched.
func median(xs []float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch n := len(d); {
	case n == 0:
		return 0
	case n%2 == 1:
		return d[n/2]
	default:
		return (d[n/2-1] + d[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so spreads computed here match ones computed that way.
func quartiles(xs []float64) (q1, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0
	case 1:
		return d[0], d[0]
	}
	m := len(d) + 1
	at := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			return d[0]
		}
		if j >= len(d) {
			return d[len(d)-1]
		}
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
