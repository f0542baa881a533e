package main

import (
	"fmt"
	"time"

	"ssos/internal/core"
	"ssos/internal/dev"
	"ssos/internal/fault"
	"ssos/internal/guest"
	"ssos/internal/serve"
	"ssos/internal/trace"
)

// steady: three uninstrumented machines — the conventional baseline,
// the §5.2 scheduler, and the scheduler running the K-state mailbox
// ring — each stepped 1M steps per round in 100k-step calls. The step
// engine does all the work; obs, cluster and serve are idle, so a
// machine-layer change shows its full effect here and a serve- or
// obs-only change should show none.
var steadyWorkload = &workload{
	name:   "steady",
	why:    "the step engine does all the work: three uninstrumented machines, no faults after one seeded ring scramble",
	prefix: 20,
	setup:  setupSteady,
}

// steadyMachines are the three systems and how many heartbeats each
// keeps. The per-round legality check reads that window rather than the
// whole history, so it must hold more than a round of beats: the guest
// kernel beats every ~43 steps, the busiest scheduler process every
// ~370. checkHeartbeats fails a round whose beats overflowed it.
var steadyMachines = []struct {
	image      string
	consoleCap int
}{
	{"baseline", 32768},
	{"scheduler", 4096},
	{"scheduler-mbox-kstate", 4096},
}

const (
	steadyChunk  = 100_000 // steps per primary call
	steadyChunks = 10      // calls per machine per round
	warmSteps    = 100_000
)

type steadyInst struct {
	systems []*core.System
	ring    *core.System // the mailbox machine, scrambled at set-up
	// checked is each console's beat total at its last check.
	checked map[*dev.Console]uint64
}

func setupSteady(t *track) (instance, error) {
	if err := assemble(t,
		func() error { _, err := guest.BuildKernel(false); return err },
		func() error { _, err := guest.BuildScheduler(false); return err },
		func() error { _, err := guest.BuildProcesses(); return err },
		func() error { _, err := guest.BuildMailboxProcesses(guest.VariantKState); return err },
	); err != nil {
		return nil, err
	}
	s := &steadyInst{checked: map[*dev.Console]uint64{}}
	for _, m := range steadyMachines {
		cfg, err := imageConfig(m.image)
		if err != nil {
			return nil, err
		}
		cfg.ConsoleCap = m.consoleCap
		sys, err := newSystem(t, cfg)
		if err != nil {
			return nil, err
		}
		t.do("machine", "Run", warmSteps, func() { sys.Run(warmSteps) })
		s.systems = append(s.systems, sys)
		if _, ok := sys.Cfg.Workload.MailboxVariant(); ok {
			s.ring = sys
		}
	}
	inj := fault.NewInjector(s.ring.M, t.r.seed)
	var err error
	t.do("fault", "InjectFault", 1, func() { err = serve.InjectFault(s.ring, inj, "mailbox") })
	return s, err
}

func (s *steadyInst) round(t *track, i int) {
	for c := 0; c < steadyChunks; c++ {
		for _, sys := range s.systems {
			t.op("machine", "Run", steadyChunk, func() { sys.Run(steadyChunk) })
		}
	}
	for _, sys := range s.systems {
		s.checkHeartbeats(t, sys)
	}
	var privs []int
	t.do("core", "MailboxPrivileges", 0, func() { privs = s.ring.MailboxPrivileges() })
	t.check(len(privs) == 1, "steady round %d: mailbox ring holds %d privileges after its scramble", i, len(privs))
}

// checkHeartbeats checks every heartbeat since the last check against
// the system's legal-execution specification: the guest OS heartbeat
// for kernel systems, every process heartbeat for scheduler systems.
func (s *steadyInst) checkHeartbeats(t *track, sys *core.System) {
	var bad []string
	check := func(name string, spec trace.HeartbeatSpec, c *dev.Console) {
		writes := c.Writes()
		if fresh := c.Total() - s.checked[c]; fresh >= uint64(len(writes)) && s.checked[c] > 0 {
			bad = append(bad, fmt.Sprintf("%s: %d beats since the last check overflow the %d kept", name, fresh, len(writes)))
		}
		s.checked[c] = c.Total()
		for _, v := range spec.Violations(writes, sys.Steps()) {
			bad = append(bad, fmt.Sprintf("%s: %v", name, v))
		}
	}
	t.do("trace", "Violations", 0, func() {
		if sys.Heartbeat != nil {
			check("kernel", sys.Spec(), sys.Heartbeat)
		}
		for p, c := range sys.ProcBeats {
			check(fmt.Sprintf("process %d", p), sys.ProcSpec(p), c)
		}
	})
	t.check(len(bad) == 0, "%v heartbeats illegal: %v", sys.Cfg.Approach, bad)
}

func (s *steadyInst) snapshot(sn *snapshot) {
	for _, sys := range s.systems {
		sn.machine(sys.M.Stats)
		if sys.Heartbeat != nil {
			sn.digest("beats %d\n", sys.Heartbeat.Total())
		}
		for _, c := range sys.ProcBeats {
			sn.digest("proc beats %d\n", c.Total())
		}
	}
	sn.digest("ring %v\n", s.ring.MailboxRing())
}

func (s *steadyInst) close() {}

// afterRounds measures machine.interp_speedup in a traced run: each
// steady configuration is built twice, one copy with the decode cache
// (and so the superblock engine) off, and the two are stepped in
// alternating chunks, so the ratio does not depend on the box.
func (s *steadyInst) afterRounds(r *run) {
	var interp, fast []float64
	for _, sys := range s.systems {
		slow, err1 := core.New(sys.Cfg)
		def, err2 := core.New(sys.Cfg)
		if err1 != nil || err2 != nil {
			r.tally(false, "interp_speedup: rebuilding %v failed", sys.Cfg.Approach)
			return
		}
		slow.M.SetDecodeCache(false)
		slow.Run(warmSteps)
		def.Run(warmSteps)
		var a, b []float64
		for k := 0; k < 5; k++ {
			start := time.Now()
			slow.Run(steadyChunk)
			a = append(a, time.Since(start).Seconds())
			start = time.Now()
			def.Run(steadyChunk)
			b = append(b, time.Since(start).Seconds())
		}
		interp = append(interp, median(a))
		fast = append(fast, median(b))
	}
	r.setExtra("machine.interp_speedup", sum(interp)/sum(fast))
}
