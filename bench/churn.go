package main

import (
	"bytes"
	"io"
	"math/rand"

	"ssos/internal/core"
	"ssos/internal/fault"
	"ssos/internal/guest"
	"ssos/internal/obs"
	"ssos/internal/serve"
)

// churn: the paper's Sections 3-4 designs — reinstall, continue,
// monitor — under constant faults, watchdog period 10000, each
// machine's events collected. Each round takes every fault class once,
// in seeded order; for each class every machine takes the fault and
// runs 200k steps, then the batch exporters run over those steps'
// events. Every round so does the same kinds of work, whatever the
// seed. Every Figure 1 reinstall rewrites the OS image, so the block
// engine rebuilds constantly: the same machine layer as steady, with
// writes beside the reads. A block-engine change that speeds steady by
// making rebuilds dearer shows here.
var churnWorkload = &workload{
	name:   "churn",
	why:    "faults every round: OS-image rewrites force block rebuilds, and obs collects and exports every recovery",
	prefix: 25,
	setup:  setupChurn,
}

var churnImages = []string{"reinstall", "continue", "monitor"}

// churnFaults are the injected classes; a 3000-step watchdog period
// would be degenerate (the image copy fills it), 10000 is not.
var churnFaults = []string{"os-blast", "cpu-blast", "bitflip", "pc"}

const (
	churnPeriod = 10_000
	churnSteps  = 200_000
)

type churnMachine struct {
	sys *core.System
	col *obs.Collector
	inj *fault.Injector
	// mark is the collector cursor just before the machine's latest
	// fault.
	mark int
}

type churnInst struct {
	ms  []*churnMachine
	rng *rand.Rand
	// injections counts the injected faults, resolved those whose
	// episode resolved before the machine's next fault.
	injections, resolved int
}

func setupChurn(t *track) (instance, error) {
	if err := assemble(t,
		func() error { _, err := guest.BuildKernel(false); return err },
		func() error { _, err := guest.BuildReinstallHandler(); return err },
		func() error { _, err := guest.BuildContinueHandler(); return err },
		func() error {
			k, err := guest.BuildKernel(true)
			if err != nil {
				return err
			}
			_, err = guest.BuildMonitorHandler(k)
			return err
		},
	); err != nil {
		return nil, err
	}
	c := &churnInst{rng: rand.New(rand.NewSource(t.r.seed))}
	for i, name := range churnImages {
		cfg, err := imageConfig(name)
		if err != nil {
			return nil, err
		}
		cfg.WatchdogPeriod = churnPeriod
		sys, err := newSystem(t, cfg)
		if err != nil {
			return nil, err
		}
		m := &churnMachine{sys: sys, col: obs.NewCollector(),
			inj: fault.NewInjector(sys.M, t.r.seed*int64(len(churnImages))+int64(i))}
		sys.Instrument(m.col)
		t.do("machine", "Run", warmSteps, func() { sys.Run(warmSteps) })
		c.ms = append(c.ms, m)
	}
	return c, nil
}

func (c *churnInst) round(t *track, i int) {
	for _, k := range c.rng.Perm(len(churnFaults)) {
		kind := churnFaults[k]
		for _, m := range c.ms {
			m.mark = m.col.Len()
			t.op("bench", "fault+run", churnSteps, func() {
				var err error
				t.do("fault", "InjectFault", 1, func() { err = serve.InjectFault(m.sys, m.inj, kind) })
				t.check(err == nil, "churn: inject %s: %v", kind, err)
				t.do("machine", "Run", churnSteps, func() { m.sys.Run(churnSteps) })
			})
		}
		for _, m := range c.ms {
			c.export(t, m, i)
		}
	}
}

// export runs the batch exporters over the machine's events since its
// last fault and checks the recovery of that fault: it must open an
// episode under its fault id (the injector's latest log ordinal), and
// on the reinstall machine — the one design here that is
// self-stabilizing for every fault class at this period — that episode
// must resolve within the round. The continue and monitor machines'
// resolutions are counted, not required.
func (c *churnInst) export(t *track, m *churnMachine, i int) {
	events := m.col.EventsSince(m.mark)
	var n countingWriter
	var err error
	t.doN("obs", "WriteJSONL", func() int64 {
		err = obs.WriteJSONL(&n, events)
		return int64(n.bytes)
	})
	t.check(err == nil && n.lines == len(events), "churn round %d: JSONL wrote %d lines for %d events (%v)", i, n.lines, len(events), err)
	var eps []obs.Episode
	t.do("obs", "FoldEpisodes", 0, func() { eps = obs.FoldEpisodes(events) })
	var buf bytes.Buffer
	t.do("obs", "WriteTrace", 0, func() { err = obs.WriteTrace(&buf, eps, m.sys.Steps()) })
	t.check(err == nil && buf.Len() > 0, "churn round %d: WriteTrace: %v", i, err)
	buf.Reset()
	t.do("obs", "Metrics.WriteJSON", 0, func() {
		reg := obs.NewMetrics()
		obs.RecordEpisodes(reg, eps)
		err = reg.WriteJSON(&buf)
	})
	t.check(err == nil && buf.Len() > 0, "churn round %d: Metrics.WriteJSON: %v", i, err)

	id := uint64(len(m.inj.Log))
	var ep *obs.Episode
	for k := range eps {
		if eps[k].FaultID == id {
			ep = &eps[k]
		}
	}
	c.injections++
	t.check(ep != nil, "churn round %d: %v fault %d opened no episode", i, m.sys.Cfg.Approach, id)
	if ep != nil && ep.Resolved {
		c.resolved++
	}
	if m.sys.Cfg.Approach == core.ApproachReinstall {
		t.check(ep != nil && ep.Resolved, "churn round %d: reinstall episode of fault %d unresolved", i, id)
	}
}

func (c *churnInst) snapshot(sn *snapshot) {
	for _, m := range c.ms {
		sn.machine(m.sys.M.Stats)
		events := m.col.Events()
		var n countingWriter
		n.h = sn.h
		obs.WriteJSONL(&n, events) //nolint:errcheck // countingWriter never fails
		sn.digest("faults %d\n", len(m.inj.Log))
		sn.add("obs.events", float64(len(events)))
		sn.add("obs.retained_events", float64(m.col.Len()))
	}
	sn.add("fault.injections", float64(c.injections))
	sn.add("fault.resolved", float64(c.resolved))
}

func (c *churnInst) close() {}

// countingWriter counts bytes and lines, optionally feeding a digest.
type countingWriter struct {
	bytes, lines int
	h            io.Writer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.bytes += len(p)
	w.lines += bytes.Count(p, []byte{'\n'})
	if w.h != nil {
		w.h.Write(p) //nolint:errcheck // hash writes never fail
	}
	return len(p), nil
}
