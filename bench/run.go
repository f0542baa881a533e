package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"ssos/internal/machine"
)

// workload is one fixed traffic mix.
type workload struct {
	name string
	why  string
	// prefix is the number of rounds of fixed work after which the heap
	// is measured and the simulated counts are digested; every run
	// completes it, however short its budget.
	prefix int
	// setup builds the workload from scratch: guest assembly,
	// construction, warm-up. It is timed for setup_s.
	setup func(t *track) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// round runs round i, a fixed amount of work, with its output checks.
	round(t *track, i int)
	// snapshot records the simulated counts at the end of the prefix.
	snapshot(s *snapshot)
	// close releases what set-up started.
	close()
}

// size is how much a run measures. The command line sets budget from
// -seconds; tests pass tiny sizes.
type size struct {
	budget time.Duration // measured phase, after set-up
	prefix int           // overrides the workload's prefix when > 0
	setups int           // set-ups timed for setup_s
}

// run is one benchmark run's measurements.
type run struct {
	w    *workload
	seed int64
	size size
	tr   *tracer // nil when untraced

	mu        sync.Mutex
	ops       []float64 // primary-call latencies, host ms until their segment is scaled
	seg       segment
	rounds    []float64 // round times, host ms
	refRounds []float64 // round times, reference ms
	busy      []float64 // per round, the time its tracks were busy, summed, host ms
	trackMS   float64   // the current round's concurrent tracks' busy time so far
	traced    []bool    // rounds[i] was traced
	attempted int
	failed    int
	errs      []string  // the first few failures, for stderr
	setups    []float64 // set-up times, reference s
	cals      []float64 // every calibration's host time, ms
	snap      *snapshot
	heapMB    float64
	extra     map[string]float64 // per-layer values measured outside rounds
}

// calibrate runs one calibration and records it.
func (r *run) calibrate() float64 {
	c := calibrate()
	r.cals = append(r.cals, c)
	return c
}

func (r *run) addOp(d time.Duration) {
	r.mu.Lock()
	r.ops = append(r.ops, float64(d)/float64(time.Millisecond))
	r.mu.Unlock()
}

// addTrackTime records the time one of a round's concurrent tracks was
// busy in it.
func (r *run) addTrackTime(d time.Duration) {
	r.mu.Lock()
	r.trackMS += float64(d) / float64(time.Millisecond)
	r.mu.Unlock()
}

func (r *run) tally(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *run) setExtra(name string, v float64) {
	r.mu.Lock()
	r.extra[name] = v
	r.mu.Unlock()
}

func (r *run) prefix() int {
	if r.size.prefix > 0 {
		return r.size.prefix
	}
	return r.w.prefix
}

// segmentMax is the longest a timed piece of work runs between two
// calibrations when the main track can split it at an op boundary.
const segmentMax = 100 * time.Millisecond

// segment is the open stretch of a timed piece of work — a round or a
// set-up — that the next calibration scales.
type segment struct {
	start    time.Time
	firstOp  int     // ops from here on fall in the segment
	cal      float64 // the calibration before the segment, host ms
	raw, ref float64 // the piece so far: host ms, reference ms
}

// begin starts timing a piece of work.
func (r *run) begin() {
	r.seg.raw, r.seg.ref = 0, 0
	r.seg.firstOp = len(r.ops)
	r.seg.start = time.Now()
}

// split ends the open segment: its host time, and the ops it holds, are
// scaled by the calibrations on either side of it. The next segment
// starts after the calibration.
func (r *run) split() {
	d := float64(time.Since(r.seg.start)) / float64(time.Millisecond)
	next := r.calibrate()
	scale := 2 * calibrationMS / (r.seg.cal + next)
	r.mu.Lock()
	for k := r.seg.firstOp; k < len(r.ops); k++ {
		r.ops[k] *= scale
	}
	r.seg.firstOp = len(r.ops)
	r.mu.Unlock()
	r.seg.raw += d
	r.seg.ref += d * scale
	r.seg.cal = next
	r.seg.start = time.Now()
}

// loop runs rounds on t until the prefix is done and the measured phase
// has lasted its budget, each ended by a calibration, and takes the
// snapshot after the last prefix round. A traced run traces every other
// round, so the untraced rounds between them measure the tracing
// overhead in the same process.
func (r *run) loop(t *track, start time.Time, inst instance) {
	for i := 0; i < r.prefix() || time.Since(start) < r.size.budget; i++ {
		t.traced = r.tr != nil && i%2 == 0
		if t.traced {
			t.group = r.tr.groups.Add(1)
		}
		r.begin()
		inst.round(t, i)
		r.split()
		r.rounds = append(r.rounds, r.seg.raw)
		r.refRounds = append(r.refRounds, r.seg.ref)
		busy := r.seg.raw
		if r.trackMS > 0 {
			busy, r.trackMS = r.trackMS, 0
		}
		r.busy = append(r.busy, busy)
		r.traced = append(r.traced, t.traced)
		if i == r.prefix()-1 {
			r.takeSnapshot(inst)
		}
	}
	t.traced = false
}

// takeSnapshot measures the live heap and records the simulated counts.
func (r *run) takeSnapshot(inst instance) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := &snapshot{counts: map[string]float64{}, h: fnv.New64a()}
	inst.snapshot(s)
	r.mu.Lock()
	r.heapMB = float64(ms.HeapAlloc) / 1e6
	r.snap = s
	r.mu.Unlock()
}

// snapshot is the simulation's state at the end of the prefix: count
// metrics, and the digest of every simulated count — a change meant
// only to speed things up must leave the digest unchanged.
type snapshot struct {
	counts map[string]float64
	h      hash.Hash64
}

func (s *snapshot) add(name string, v float64) { s.counts[name] += v }

func (s *snapshot) digest(format string, args ...any) { fmt.Fprintf(s.h, format, args...) }

// machine adds one machine's counters: the architectural ones to the
// digest, all of them to the count metrics. The Block* counters are
// engine telemetry and stay out of the digest.
func (s *snapshot) machine(st machine.Stats) {
	a := st.Arch()
	s.digest("machine %d %d %d %d %d %d %d\n", a.Steps, a.Instrs, a.NMIs, a.IRQs, a.Exceptions, a.Resets, a.HaltTicks)
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"machine.steps", st.Steps}, {"machine.instrs", st.Instrs}, {"machine.nmis", st.NMIs},
		{"machine.exceptions", st.Exceptions}, {"machine.resets", st.Resets},
		{"machine.halt_ticks", st.HaltTicks}, {"machine.blocks", st.Blocks},
		{"machine.block_instrs", st.BlockInstrs}, {"machine.block_bails", st.BlockBails},
	} {
		s.add(c.name, float64(c.v))
	}
}

// execute sets the workload up size.setups times (timing each between
// two calibrations; all but the last instance are closed again), then
// measures it.
func (r *run) execute() error {
	t := &track{r: r, traced: r.tr != nil, splits: true}
	var inst instance
	r.seg.cal = r.calibrate()
	for k := 0; k < r.size.setups; k++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		r.begin()
		var err error
		inst, err = r.w.setup(t)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", r.w.name, err)
		}
		r.split()
		r.setups = append(r.setups, r.seg.ref/1000)
	}
	defer inst.close()
	if r.tr != nil {
		probeDecode(r)
	}
	runtime.GC()
	r.loop(t, time.Now(), inst)
	if post, ok := inst.(interface{ afterRounds(r *run) }); ok && r.tr != nil {
		post.afterRounds(r)
	}
	return nil
}

// result is what a run prints last, as one JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metVal `json:"metrics"`
}

type metVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// simDigest renders the prefix digest.
func (r *run) simDigest() string {
	if r.snap == nil {
		return ""
	}
	return fmt.Sprintf("%016x", r.snap.h.Sum64())
}

// result assembles the printed metrics: end-to-end for an untraced run,
// per-layer for a traced one.
func (r *run) result() result {
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metVal{}}
	if r.tr == nil {
		vals := map[string]float64{
			"setup_s":   median(r.setups),
			"heap_mb":   r.heapMB,
			"round_ms":  median(r.refRounds),
			"op_p50_ms": quantile(append([]float64(nil), r.ops...), 0.50),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metVal{vals[m.name], m.unit}
		}
		return res
	}
	vals := r.layerValues()
	for _, m := range perLayer {
		res.Metrics[m.name] = metVal{vals[m.name], m.unit}
	}
	return res
}

// layerValues computes every per-layer metric from the traced rounds'
// spans and the prefix counts.
func (r *run) layerValues() map[string]float64 {
	st := newSpanStats(r.tr.spans)
	c := map[string]float64{}
	if r.snap != nil {
		c = r.snap.counts
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v := map[string]float64{
		"machine.ns_per_step":      st.perN("machine/Run", time.Nanosecond),
		"machine.instrs_per_block": div(c["machine.block_instrs"], c["machine.blocks"]),
		"machine.block_instr_frac": div(c["machine.block_instrs"], c["machine.instrs"]),
		"machine.bails_per_kstep":  div(1000*c["machine.block_bails"], c["machine.steps"]),
		"machine.halt_frac":        div(c["machine.halt_ticks"], c["machine.steps"]),
		"guest.build_ms":           median(st.durs("guest/Build", time.Millisecond, true)),
		"core.new_ms":              median(st.durs("core/New", time.Millisecond, true)),
		"fault.inject_us":          st.p("fault/InjectFault", 0.5, time.Microsecond),
		"fault.resolved_frac":      div(c["fault.resolved"], c["fault.injections"]),
		"obs.events_per_kstep":     div(1000*c["obs.events"], c["machine.steps"]),
		"obs.jsonl_mb_per_s":       div(st.work("obs/WriteJSONL")/1e6, st.total("obs/WriteJSONL").Seconds()),
		"obs.fold_ms":              st.p("obs/FoldEpisodes", 0.5, time.Millisecond),
		"obs.trace_ms":             st.p("obs/WriteTrace", 0.5, time.Millisecond),
		"obs.metrics_json_ms":      st.p("obs/Metrics.WriteJSON", 0.5, time.Millisecond),
		"cluster.availability":     div(c["cluster.legal_epochs"], c["cluster.epochs"]),
		"cluster.epoch_ms":         st.p("cluster/Cluster.Run", 0.5, time.Millisecond),
		"cluster.relay_round_us":   st.p("cluster/RingFleet.Run", 0.5, time.Microsecond),
		"cluster.ring_legal_frac":  div(c["cluster.ring_legal"], c["cluster.ring_samples"]),
		"pool.fanout_us":           st.p("pool/pool.Run", 0.5, time.Microsecond),
		"serve.run_p99_ms":         st.p("http/run", 0.99, time.Millisecond),
		"serve.session_ms":         st.p("bench/session", 0.5, time.Millisecond),
		"imglint.cert_ms":          st.groupSum("imglint/CheckRingCert", time.Millisecond),
		"imglint.lint_ms":          st.groupSum("imglint/Check", time.Millisecond),
		"model.verify_ms":          st.groupSum("model/Verify", time.Millisecond),
	}
	for _, name := range []string{
		"machine.steps", "machine.instrs", "machine.nmis", "machine.exceptions", "machine.resets",
		"fault.injections", "obs.events", "obs.retained_events", "cluster.epochs",
		"cluster.evictions", "cluster.fresh_boots", "serve.requests", "serve.events_bytes",
		"imglint.cert_states",
	} {
		v[name] = c[name]
	}
	var reads, rt []float64
	for _, route := range serveRoutes {
		v["serve."+route+"_ms"] = st.p("http/"+route, 0.5, time.Millisecond)
		if readRoute(route) {
			reads = append(reads, st.durs("http/"+route, time.Millisecond, false)...)
		}
		rt = append(rt, st.durs("http/"+route, time.Millisecond, false)...)
	}
	v["serve.read_p50_ms"] = quantile(reads, 0.5)
	v["serve.read_p99_ms"] = quantile(reads, 0.99)
	var handler time.Duration
	for _, route := range serveRoutes {
		handler += st.total("serve/" + route)
	}
	v["serve.handler_frac"] = div(float64(handler), sum(rt)*float64(time.Millisecond))

	// Self-time shares of the traced rounds' busy time (wall time, summed
	// over concurrent tracks). Work between spans (the benchmark's own
	// bookkeeping) is attributed to no layer.
	var wall, tracedRef, untracedRef []float64
	for i, ms := range r.busy {
		if r.traced[i] {
			wall = append(wall, ms)
			tracedRef = append(tracedRef, r.refRounds[i])
		} else {
			untracedRef = append(untracedRef, r.refRounds[i])
		}
	}
	wallDur := sum(wall) * float64(time.Millisecond)
	var attributed float64
	for _, l := range spanLayers {
		v[l+".self_frac"] = div(float64(st.self[l]), wallDur)
		attributed += float64(st.self[l])
	}
	v["bench.attributed_frac"] = div(attributed, wallDur)
	if len(untracedRef) > 0 {
		v["bench.trace_overhead"] = div(median(tracedRef), median(untracedRef)) - 1
	}
	v["bench.calibration_ms"] = median(r.cals)
	for k, x := range r.extra {
		v[k] = x
	}
	return v
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// report prints the human-readable lines that precede the result line.
func (r *run) report(res result) {
	fmt.Printf("workload %s seed %d: %d rounds (prefix %d), %d set-ups, %d checked calls, %d failed\n",
		r.w.name, r.seed, len(r.rounds), r.prefix(), len(r.setups), r.attempted, r.failed)
	fmt.Printf("sim_digest %s\n", r.simDigest())
	fmt.Printf("calibration %.6g host ms (median of %d); round %.6g host ms before scaling to reference ms\n",
		median(r.cals), len(r.cals), median(r.rounds))
	if r.tr == nil {
		fmt.Printf("op_p99_ms %.6g ms over %d ops (no bound)\n", quantile(append([]float64(nil), r.ops...), 0.99), len(r.ops))
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("  %-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, e := range r.errs {
		fmt.Fprintf(os.Stderr, "bench: check failed: %s\n", e)
	}
}
