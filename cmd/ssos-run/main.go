// Command ssos-run boots one of the self-stabilizing systems, optionally
// injects a transient fault mid-run, and reports what the system did:
// heartbeat legality, recovery point, machine statistics.
//
// Usage:
//
//	ssos-run -approach reinstall -steps 500000 -fault os-blast -at 100000
//
// Approaches: baseline, reinstall, continue, monitor, primitive,
// scheduler, checkpoint, adaptive, plus the workload images
// scheduler-mbox-{kstate,dijkstra3,ghosh4} (token rings communicating
// through the shared mailbox region). Faults: none, or a class of
// internal/fault's table (-h lists them; DESIGN.md "Fault vocabulary").
// -events-out/-metrics-out write the structured event
// stream (JSONL) and the stabilization metrics (JSON) described in
// README "Observability".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"ssos/internal/core"
	"ssos/internal/fault"
	"ssos/internal/obs"
	"ssos/internal/pool"
	"ssos/internal/serve"
	"ssos/internal/trace"
)

func main() {
	approach := flag.String("approach", "reinstall", "system design: baseline|reinstall|continue|monitor|primitive|scheduler|checkpoint|adaptive")
	steps := flag.Int("steps", 500000, "total steps to run")
	period := flag.Uint("period", 0, "watchdog period / scheduling quantum (0 = default)")
	faultKind := flag.String("fault", "none", "fault to inject: none|"+strings.Join(serve.FaultKinds(), "|"))
	at := flag.Int("at", 100000, "step at which the fault is injected")
	seed := flag.Int64("seed", 1, "fault-injection seed")
	stock := flag.Bool("stock-nmi", false, "disable the paper's NMI-counter hardware")
	protect := flag.Bool("protect", false, "enable the memory-protection extension (scheduler only)")
	traceN := flag.Int("trace", 0, "dump the last N executed steps at the end")
	eventsOut := flag.String("events-out", "", "write the structured event stream as JSONL to this file")
	metricsOut := flag.String("metrics-out", "", "write the stabilization metrics as JSON to this file")
	traceSpansOut := flag.String("trace-spans-out", "", "write the recovery-episode span tree as Chrome trace_event JSON (Perfetto-loadable) to this file")
	workers := flag.Int("workers", 0, "worker pool size override (0 = GOMAXPROCS); results are identical for any setting")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	flag.Parse()
	pool.Workers = *workers

	if *cpuprofile != "" {
		stop, err := startCPUProfile(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ssos-run:", err)
			os.Exit(1)
		}
		defer stop()
	}
	if *memprofile != "" {
		defer writeHeapProfile(*memprofile)
	}

	// The named-image catalog in internal/serve is the construction
	// path shared with the service daemon: both resolve the same image
	// and feed it through core.New, which is what keeps a served
	// session's event stream byte-identical to this CLI's.
	img, ok := serve.LookupImage(*approach)
	if !ok {
		fmt.Fprintf(os.Stderr, "ssos-run: unknown approach %q\n", *approach)
		os.Exit(2)
	}
	a := img.Cfg.Approach
	cfg := img.Cfg
	cfg.WatchdogPeriod = uint32(*period)
	cfg.DisableNMICounter = *stock
	cfg.ProtectMemory = *protect
	s, err := core.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssos-run:", err)
		os.Exit(1)
	}
	var col *obs.Collector
	if *eventsOut != "" || *metricsOut != "" || *traceSpansOut != "" {
		col = obs.NewCollector()
		s.Instrument(col)
	}
	var rec *trace.Recorder
	if *traceN > 0 {
		rec = trace.NewRecorder(*traceN)
		s.M.AfterStep = rec.Observe
	}

	if *at > *steps {
		*at = *steps
	}
	s.Run(*at)
	faultStep := s.Steps()
	if *faultKind != "none" {
		inj := fault.NewInjector(s.M, *seed)
		if err := serve.InjectFault(s, inj, *faultKind); err != nil {
			fmt.Fprintln(os.Stderr, "ssos-run:", err)
			os.Exit(2)
		}
		for _, r := range inj.Log {
			fmt.Println("fault:", r)
		}
	}
	s.Run(*steps - *at)

	fmt.Printf("approach=%v steps=%d instrs=%d nmis=%d irqs=%d exceptions=%d resets=%d\n",
		a, s.Steps(), s.M.Stats.Instrs, s.M.Stats.NMIs, s.M.Stats.IRQs,
		s.M.Stats.Exceptions, s.M.Stats.Resets)
	if s.Watchdog != nil {
		fmt.Printf("watchdog: period=%d fires=%d\n", s.Watchdog.Period, s.Watchdog.Fires)
	}

	if s.Heartbeat != nil {
		reportStream("heartbeat", s, faultStep)
		if s.Repairs != nil {
			fmt.Printf("repairs: %d", s.Repairs.Total())
			for _, r := range s.Repairs.Writes() {
				fmt.Printf(" [step %d code %#x]", r.Step, r.Value)
			}
			fmt.Println()
		}
	}
	for i, c := range s.ProcBeats {
		spec := s.ProcSpec(i)
		w := c.Writes()
		legal := len(w) - spec.LegalSuffixStart(w)
		fmt.Printf("process %d: beats=%d legal-suffix=%d\n", i, c.Total(), legal)
	}
	if v, ok := s.Cfg.Workload.MailboxVariant(); ok {
		ring := s.MailboxRing()
		fmt.Printf("mailbox ring (%v): privileges=%v x=[", v, s.MailboxPrivileges())
		for i := 0; i < s.MailboxNodes(); i++ {
			if i > 0 {
				fmt.Print(" ")
			}
			fmt.Print(ring[i])
		}
		fmt.Println("]")
	}
	if s.Checkpoint != nil {
		fmt.Printf("checkpoint: snapshots=%d restores=%d period=%d\n",
			s.Checkpoint.Snapshots, s.Checkpoint.Restores, s.Checkpoint.Period)
	}
	if rec != nil {
		fmt.Println("last steps:")
		fmt.Print(rec.Dump())
	}
	if col != nil {
		s.ExportMetrics(col.Metrics)
		eps := obs.FoldEpisodes(col.Events())
		obs.RecordEpisodes(col.Metrics, eps)
		if *eventsOut != "" {
			writeOut(*eventsOut, col.WriteJSONL)
		}
		if *metricsOut != "" {
			writeOut(*metricsOut, col.Metrics.WriteJSON)
		}
		if *traceSpansOut != "" {
			writeOut(*traceSpansOut, func(w io.Writer) error {
				return obs.WriteTrace(w, eps, s.Steps())
			})
		}
	}
}

// startCPUProfile begins CPU profiling into path and returns the stop
// function. Note the error exits elsewhere in main bypass deferred
// stops; profiles are complete only for successful runs.
func startCPUProfile(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeHeapProfile records the live-heap profile at exit.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssos-run:", err)
		return
	}
	defer f.Close()
	runtime.GC() // settle the heap so the profile reflects live objects
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "ssos-run:", err)
	}
}

// writeOut writes one observability artifact via the given renderer,
// exiting on I/O errors (truncated telemetry must not look like a
// clean run).
func writeOut(path string, render func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssos-run:", err)
		os.Exit(1)
	}
	if err := render(f); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssos-run:", err)
		os.Exit(1)
	}
}

func reportStream(name string, s *core.System, faultStep uint64) {
	w := s.Heartbeat.Writes()
	spec := s.Spec()
	fmt.Printf("%s: beats=%d\n", name, s.Heartbeat.Total())
	viol := spec.Violations(w, s.Steps())
	for i, v := range viol {
		if i >= 5 {
			fmt.Printf("  ... %d more violations\n", len(viol)-i)
			break
		}
		fmt.Println("  violation:", v)
	}
	if step, ok := spec.RecoveredAfter(w, faultStep, 10); ok {
		fmt.Printf("  recovered: legal from step %d (%d steps after fault point)\n",
			step, step-faultStep)
	} else {
		fmt.Println("  NOT recovered by end of run")
	}
}
