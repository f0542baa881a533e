package core

import (
	"sync"

	"ssos/internal/guest"
)

// Assembled guest programs are immutable, so experiment loops that
// build thousands of systems share one assembly of each component.
var buildCache struct {
	once sync.Once
	err  error

	kernelPlain   *guest.Kernel
	kernelPadded  *guest.Kernel
	kernelTickful *guest.Kernel
	reinstall     *guest.Handler
	cont          *guest.Handler
	monitor       *guest.Handler
	checkpoint    *guest.Handler
	sched         *guest.Scheduler
	schedDS       *guest.Scheduler
	schedProt     *guest.Scheduler
	procs         *guest.ProcSet
	mboxProcs     map[guest.RingVariant]*guest.ProcSet
	prim          *guest.Primitive
}

// nodeSetCache shares the per-(variant, node, ring-size) cluster
// process sets across replica builds; unlike the fixed sets above they
// are assembled on demand.
var nodeSetCache struct {
	mu sync.Mutex
	m  map[nodeSetKey]*guest.ProcSet
}

type nodeSetKey struct {
	v       guest.RingVariant
	node, n int
}

// mailboxNodeSet returns the cached one-node-per-replica process set.
func mailboxNodeSet(v guest.RingVariant, node, n int) (*guest.ProcSet, error) {
	nodeSetCache.mu.Lock()
	defer nodeSetCache.mu.Unlock()
	key := nodeSetKey{v, node, n}
	if set, ok := nodeSetCache.m[key]; ok {
		return set, nil
	}
	set, err := guest.BuildNodeProcesses(v, node, n)
	if err != nil {
		return nil, err
	}
	if nodeSetCache.m == nil {
		nodeSetCache.m = make(map[nodeSetKey]*guest.ProcSet)
	}
	nodeSetCache.m[key] = set
	return set, nil
}

func buildAll() error {
	buildCache.once.Do(func() {
		c := &buildCache
		set := func(err error) {
			if c.err == nil && err != nil {
				c.err = err
			}
		}
		var err error
		c.kernelPlain, err = guest.BuildKernel(false)
		set(err)
		c.kernelPadded, err = guest.BuildKernel(true)
		set(err)
		c.kernelTickful, err = guest.BuildTickfulKernel()
		set(err)
		c.reinstall, err = guest.BuildReinstallHandler()
		set(err)
		c.cont, err = guest.BuildContinueHandler()
		set(err)
		if c.kernelPadded != nil {
			c.monitor, err = guest.BuildMonitorHandler(c.kernelPadded)
			set(err)
		}
		c.checkpoint, err = guest.BuildCheckpointHandler()
		set(err)
		c.sched, err = guest.BuildScheduler(false)
		set(err)
		c.schedDS, err = guest.BuildScheduler(true)
		set(err)
		c.schedProt, err = guest.BuildSchedulerOpts(guest.SchedOptions{ValidateDS: true, Protect: true})
		set(err)
		c.procs, err = guest.BuildProcesses()
		set(err)
		c.mboxProcs = make(map[guest.RingVariant]*guest.ProcSet)
		for _, v := range guest.RingVariants() {
			c.mboxProcs[v], err = guest.BuildMailboxProcesses(v)
			set(err)
		}
		c.prim, err = guest.BuildPrimitive()
		set(err)
	})
	return buildCache.err
}
