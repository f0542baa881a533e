package expt

import (
	"ssos/internal/core"
	"ssos/internal/fault"
)

// recoveryResult is one fault-injection trial outcome.
type recoveryResult struct {
	recovered bool
	latency   uint64 // steps from injection to first legal beat of the final legal run
}

// measureRecovery builds a fresh system, runs a warmup, applies the
// injection, runs the horizon and checks for a confirmed legal suffix.
func measureRecovery(cfg core.Config, seed int64, warmup, horizon, confirm int,
	inject func(*core.System, *fault.Injector)) recoveryResult {
	s := core.MustNew(cfg)
	s.Run(warmup)
	inj := fault.NewInjector(s.M, seed)
	inject(s, inj)
	faultStep := s.Steps()
	s.Run(horizon)
	step, ok := s.Spec().RecoveredAfter(s.Heartbeat.Writes(), faultStep, confirm)
	if !ok {
		return recoveryResult{}
	}
	return recoveryResult{recovered: true, latency: step - faultStep}
}

// trialSet aggregates recovery trials.
type trialSet struct {
	latencies []uint64
	failures  int
}

func (ts *trialSet) add(r recoveryResult) {
	if r.recovered {
		ts.latencies = append(ts.latencies, r.latency)
	} else {
		ts.failures++
	}
}

func (ts *trialSet) recoveredPct() float64 {
	n := len(ts.latencies) + ts.failures
	if n == 0 {
		return 0
	}
	return 100 * float64(len(ts.latencies)) / float64(n)
}

// procRecovered reports whether every process stream of an approach-3
// system ends with a confirmed legal suffix, and the latest per-process
// recovery step.
func procRecovered(s *core.System, faultStep uint64, confirm int) (uint64, bool) {
	var worst uint64
	for i := range s.ProcBeats {
		step, ok := s.ProcSpec(i).RecoveredAfter(s.ProcBeats[i].Writes(), faultStep, confirm)
		if !ok {
			return 0, false
		}
		if step > worst {
			worst = step
		}
	}
	return worst, true
}
