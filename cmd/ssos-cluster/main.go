// Command ssos-cluster runs a replicated self-stabilizing fleet: N
// core.System replicas in lockstep epochs on a worker pool, a majority
// voter over their per-epoch outputs (heartbeat legality plus a digest
// of console output and OS-state RAM), and a reconfigurator that
// evicts divergent or halted replicas, reinstalls them from the ROM
// image and rejoins them to the quorum by state transfer — the paper's
// Section-3 remedy applied at replica rather than process level.
//
// Usage:
//
//	ssos-cluster -replicas 5 -approach reinstall -faults os-blast -epochs 30 -seed 1
//
// Approaches: baseline, reinstall, continue, monitor. Faults: none or
// a strike mode of cluster.FaultModes, whose classes come from
// internal/fault's table (-h lists them). By default every third epoch
// strikes a random minority of replicas mid-epoch; -strike-prob
// switches to independent per-replica strikes with that probability.
// The run prints per-epoch vote tallies, every eviction/rejoin event,
// and a final cluster-availability summary; output is byte-identical
// for a fixed flag set, regardless of how many cores execute it.
// -trace N attaches a per-replica flight recorder and dumps an evicted
// replica's last N steps; -events-out/-metrics-out write the
// structured event stream (JSONL) and the stabilization metrics (JSON)
// described in README "Observability".
//
// -ring kstate|dijkstra3|ghosh4 switches to the distributed token-ring
// mode: one mailbox ring node per replica, connected only by the relay
// shim. The fleet converges, every replica is scrambled at the layer
// selected by -ring-scramble (one of cluster.RingScrambles), and the
// run reports the fleet-level steps-to-legal of the recovery.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ssos/internal/cluster"
	"ssos/internal/core"
	"ssos/internal/guest"
	"ssos/internal/obs"
	"ssos/internal/pool"
)

var approaches = map[string]core.Approach{
	"baseline":  core.ApproachBaseline,
	"reinstall": core.ApproachReinstall,
	"continue":  core.ApproachContinue,
	"monitor":   core.ApproachMonitor,
}

func main() {
	replicas := flag.Int("replicas", cluster.DefaultReplicas, "fleet size N (voting quorum is N/2+1)")
	approach := flag.String("approach", "reinstall", "per-replica system design: baseline|reinstall|continue|monitor")
	faults := flag.String("faults", "none", "strike fault class: "+names(cluster.FaultModes()))
	epochs := flag.Int("epochs", 30, "number of voting epochs to run")
	seed := flag.Int64("seed", 1, "seed for the strike schedule and all replica injectors")
	epochSteps := flag.Int("epoch-steps", cluster.DefaultEpochSteps, "machine steps per epoch")
	strikeEvery := flag.Int("strike-every", cluster.DefaultStrikeEvery, "strike a random minority every k-th epoch")
	strikeProb := flag.Float64("strike-prob", 0, "strike each replica with this probability per epoch (overrides -strike-every)")
	ringVariant := flag.String("ring", "", "ring-fleet mode: run this token-ring protocol (kstate|dijkstra3|ghosh4) one node per replica instead of the voting cluster")
	ringScramble := flag.String("ring-scramble", "joint", "ring-fleet scramble class applied after initial convergence: "+names(cluster.RingScrambles()))
	traceN := flag.Int("trace", 0, "keep a flight recorder of each replica's last N steps; dump it on eviction")
	eventsOut := flag.String("events-out", "", "write the structured event stream as JSONL to this file")
	metricsOut := flag.String("metrics-out", "", "write the stabilization metrics as JSON to this file")
	traceSpansOut := flag.String("trace-spans-out", "", "write the recovery-episode span tree as Chrome trace_event JSON (Perfetto-loadable) to this file")
	workers := flag.Int("workers", 0, "worker pool size override (0 = GOMAXPROCS); results are identical for any setting")
	flag.Parse()
	pool.Workers = *workers

	if *ringVariant != "" {
		runRingFleet(*ringVariant, *ringScramble, *replicas, *seed,
			*eventsOut, *metricsOut, *traceSpansOut)
		return
	}

	a, ok := approaches[*approach]
	if !ok {
		fmt.Fprintf(os.Stderr, "ssos-cluster: unknown approach %q\n", *approach)
		os.Exit(2)
	}
	mode, err := cluster.ParseFaultMode(*faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssos-cluster:", err)
		os.Exit(2)
	}

	var col *obs.Collector
	if *eventsOut != "" || *metricsOut != "" || *traceSpansOut != "" {
		col = obs.NewCollector()
	}
	c, err := cluster.New(cluster.Config{
		Replicas:    *replicas,
		Approach:    a,
		EpochSteps:  *epochSteps,
		Seed:        *seed,
		Faults:      mode,
		StrikeEvery: *strikeEvery,
		StrikeProb:  *strikeProb,
		Collector:   col,
		TraceN:      *traceN,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssos-cluster:", err)
		os.Exit(1)
	}

	fmt.Printf("cluster: %d x %v replicas, quorum %d, epoch %d steps, faults %v, seed %d\n",
		c.Summary().Replicas, a, c.Quorum(), *epochSteps, mode, *seed)
	c.Run(*epochs)
	fmt.Print(c.RenderLog())
	if col != nil {
		c.FinishObservability()
		eps := obs.FoldEpisodes(col.Events())
		obs.RecordEpisodes(col.Metrics, eps)
		if *eventsOut != "" {
			writeOut(*eventsOut, col.WriteJSONL)
		}
		if *metricsOut != "" {
			writeOut(*metricsOut, col.Metrics.WriteJSON)
		}
		if *traceSpansOut != "" {
			horizon := uint64(*epochs) * uint64(*epochSteps)
			writeOut(*traceSpansOut, func(w io.Writer) error {
				return obs.WriteTrace(w, eps, horizon)
			})
		}
	}
}

// runRingFleet is the distributed token-ring mode: one mailbox ring
// node per replica, the relay shim as the only channel. It converges
// the fleet, scrambles the selected layer on every replica at once,
// re-converges, and reports both recovery points; the observability
// artifacts go through the same writers as the voting mode.
func runRingFleet(variant, scramble string, replicas int, seed int64,
	eventsOut, metricsOut, traceSpansOut string) {
	v, err := guest.ParseRingVariant(variant)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssos-cluster:", err)
		os.Exit(2)
	}
	m, err := cluster.ParseRingScramble(scramble)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssos-cluster:", err)
		os.Exit(2)
	}
	var col *obs.Collector
	if eventsOut != "" || metricsOut != "" || traceSpansOut != "" {
		col = obs.NewCollector()
	}
	f, err := cluster.NewRingFleet(cluster.RingFleetConfig{
		Variant:   v,
		Replicas:  replicas,
		Seed:      seed,
		Collector: col,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssos-cluster:", err)
		os.Exit(1)
	}
	fmt.Printf("ring fleet: %d replicas, protocol %v, scramble %v, seed %d\n",
		f.Nodes(), v, m, seed)
	const window = 50
	since, ok := f.Converged(6000000, window)
	if !ok {
		fmt.Printf("no initial convergence within %d steps; ring=%v\n", f.Steps(), f.Ring())
		os.Exit(1)
	}
	fmt.Printf("converged: legal from fleet step %d, ring=%v\n", since, f.Ring())
	scrambleAt := f.Steps()
	f.Scramble(m)
	fmt.Printf("scramble(%v) at fleet step %d\n", m, scrambleAt)
	since, ok = f.Converged(12000000, window)
	if !ok {
		fmt.Printf("NOT re-converged by fleet step %d; privileges=%v ring=%v\n",
			f.Steps(), f.Privileges(), f.Ring())
	} else {
		fmt.Printf("re-converged: legal from fleet step %d (%d steps after scramble), ring=%v\n",
			since, since-scrambleAt, f.Ring())
	}
	if col != nil {
		eps := obs.FoldEpisodes(col.Events())
		obs.RecordEpisodes(col.Metrics, eps)
		if eventsOut != "" {
			writeOut(eventsOut, col.WriteJSONL)
		}
		if metricsOut != "" {
			writeOut(metricsOut, col.Metrics.WriteJSON)
		}
		if traceSpansOut != "" {
			writeOut(traceSpansOut, func(w io.Writer) error {
				return obs.WriteTrace(w, eps, f.Steps())
			})
		}
	}
}

// names joins the values' names for a usage string.
func names[T fmt.Stringer](values []T) string {
	s := make([]string, len(values))
	for i, v := range values {
		s[i] = v.String()
	}
	return strings.Join(s, "|")
}

// writeOut writes one observability artifact via the given renderer,
// exiting on I/O errors (truncated telemetry must not look like a
// clean run).
func writeOut(path string, render func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssos-cluster:", err)
		os.Exit(1)
	}
	if err := render(f); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssos-cluster:", err)
		os.Exit(1)
	}
}
