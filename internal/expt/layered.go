package expt

import (
	"fmt"

	"ssos/internal/cluster"
	"ssos/internal/core"
	"ssos/internal/fault"
	"ssos/internal/guest"
	"ssos/internal/pool"
)

// E15LayeredRings measures the layered-composition claim on the mailbox
// token rings: for each protocol variant and each corrupted layer
// (algorithm only, OS only, or the joint arbitrary state), how many
// steps until the exactly-one-privilege invariant holds for a sustained
// window — once with all ring nodes as processes of one scheduler, and
// once distributed one node per replica behind the relay shim. The F8
// series plots the median steps-to-legal of every (variant, deployment)
// pair across the three layers.
func E15LayeredRings(o Options) (*Table, *Series) {
	t := &Table{
		ID:    "E15",
		Title: "Layered stabilization: mailbox token rings, single machine and one node per replica",
		Claim: "once the self-stabilizing operating system stabilizes, the " +
			"self-stabilizing algorithms that implement the applications stabilize — " +
			"composed per machine and across a fleet whose relay moves raw, unchecked words",
		Columns: []string{"protocol", "layer scrambled", "deployment", "trials", "converged", "steps-to-legal p50"},
	}
	machineTrials := o.trials(6)
	fleetTrials := o.trials(3)
	machineHorizon := o.horizon(4000000)
	fleetHorizon := o.horizon(12000000)
	layers := cluster.RingScrambles()

	lines := make([]Line, 0, 2*len(guest.RingVariants()))
	for _, v := range guest.RingVariants() {
		machine := Line{Name: fmt.Sprintf("%v machine", v)}
		fleet := Line{Name: fmt.Sprintf("%v fleet", v)}
		for li, m := range layers {
			// Single machine: the whole ring as processes of one
			// scheduler, scrambled after a warmup with the classes
			// the fleet's Scramble injects at this layer.
			var mts trialSet
			variant, layer := v, m
			pool.ForEach(machineTrials, func(i int) interface{} {
				s := core.MustNew(core.Config{
					Approach: core.ApproachScheduler,
					Workload: core.MailboxWorkload(variant),
				})
				s.Run(200000 + i*311)
				inj := fault.NewInjector(s.M, o.Seed+int64(i))
				inj.Inject(0, layer.Classes()...)
				faultStep := s.Steps()
				step, ok := s.MailboxConverged(machineHorizon, 500, 100)
				return recoveryResult{recovered: ok, latency: step - faultStep}
			}, func(_ int, r interface{}) {
				mts.add(r.(recoveryResult))
			})
			mp50 := summarize(mts.latencies).p50
			t.AddRow(v.String(), m.String(), "machine", fmt.Sprint(machineTrials),
				fmtPct(mts.recoveredPct()), fmtSteps(mp50))
			machine.X = append(machine.X, float64(li))
			machine.Y = append(machine.Y, mp50)

			// Fleet: one node per replica, every replica scrambled at
			// once. Trials run serially — each fleet already fans its
			// replicas out on the worker pool.
			var fts trialSet
			for i := 0; i < fleetTrials; i++ {
				f := cluster.MustNewRingFleet(cluster.RingFleetConfig{
					Variant: v, Seed: o.Seed + int64(100+i),
				})
				if _, ok := f.Converged(fleetHorizon/2, 50); !ok {
					fts.add(recoveryResult{})
					continue
				}
				scrambleAt := f.Steps()
				f.Scramble(m)
				since, ok := f.Converged(fleetHorizon, 50)
				fts.add(recoveryResult{recovered: ok, latency: since - scrambleAt})
			}
			fp50 := summarize(fts.latencies).p50
			t.AddRow(v.String(), m.String(), "fleet", fmt.Sprint(fleetTrials),
				fmtPct(fts.recoveredPct()), fmtSteps(fp50))
			fleet.X = append(fleet.X, float64(li))
			fleet.Y = append(fleet.Y, fp50)
		}
		lines = append(lines, machine, fleet)
	}
	t.Notes = append(t.Notes,
		"converged = exactly one privilege held at every sample across a sustained window; "+
			"fleet legality is evaluated on α of each node's own slot after every relay round")
	t.Notes = append(t.Notes,
		"fleet recoveries include the relay latency: a corrupted word must first travel to "+
			"its reader before the reader's normalization discipline can contain it")
	f := &Series{ID: "F8", Title: "Layered steps-to-legal by scrambled layer (median)",
		XLabel: "scrambled layer (0=ring 1=os 2=joint)", YLabel: "steps to legal", Lines: lines}
	return t, f
}
