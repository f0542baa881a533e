package core

import (
	"fmt"

	"ssos/internal/dev"
	"ssos/internal/guest"
	"ssos/internal/machine"
)

// newSchedulerSystem builds the Section 5.2 tailored system: the
// Figures 2-5 scheduler in ROM, worker processes in RAM (pristine
// images in ROM), the ROM-resident refresher process, and a watchdog
// supplying the scheduling quantum on the NMI pin.
func newSchedulerSystem(cfg Config) (*System, error) {
	if err := buildAll(); err != nil {
		return nil, err
	}
	sched := buildCache.sched
	if cfg.ValidateDS {
		sched = buildCache.schedDS
	}
	if cfg.ProtectMemory {
		sched = buildCache.schedProt
	}
	procs := buildCache.procs
	if v, ok := cfg.Workload.MailboxVariant(); ok {
		if cfg.ProtectMemory {
			// The protection extension confines each process's stores to
			// its own 4 KiB window; mailbox nodes write a shared region
			// outside every window by design.
			return nil, fmt.Errorf("core: mailbox workload %v is incompatible with ProtectMemory", v)
		}
		if cfg.RingNodes != 0 {
			set, err := mailboxNodeSet(v, cfg.RingNode, cfg.RingNodes)
			if err != nil {
				return nil, err
			}
			procs = set
		} else {
			procs = buildCache.mboxProcs[v]
		}
	}

	roms := []romSpec{
		{"scheduler", uint32(guest.HandlerROMSeg) << 4, sched.Prog.Code},
	}
	for i := 0; i < guest.NumProcs; i++ {
		roms = append(roms, romSpec{
			name:  "proc-image",
			start: uint32(guest.ProcROMSeg(i)) << 4,
			data:  procs.Images[i],
		})
	}
	bus, err := busWithROMs(roms...)
	if err != nil {
		return nil, err
	}
	// Preload the worker code regions in RAM, as a manufacturer would;
	// the refresher maintains them from then on.
	for i := 0; i < guest.RefresherIndex; i++ {
		base := uint32(guest.ProcCodeSeg(i)) << 4
		for off, b := range procs.Images[i] {
			bus.Poke(base+uint32(off), b)
		}
	}

	if cfg.WatchdogPeriod == 0 {
		cfg.WatchdogPeriod = DefaultQuantum
	}

	// The scheduler runs 67-ish instructions; the NMI counter leaves
	// generous slack.
	m := machine.New(bus, machine.Options{
		NMICounter:         !cfg.DisableNMICounter,
		NMICounterMax:      DefaultNMISlack,
		HardwiredNMIVector: true,
		NMIVector:          sched.NMIEntry(),
		FixedIDTR:          true,
		ExceptionPolicy:    machine.ExceptionVector,
		ExceptionVector:    sched.ExcEntry(),
		ResetVector:        sched.BootEntry(),
		MemoryProtection:   cfg.ProtectMemory,
	})
	sys := &System{M: m, Cfg: cfg, Sched: sched, Procs: procs}
	for i := 0; i < guest.NumProcs; i++ {
		sys.ProcBeats = append(sys.ProcBeats, newConsole(m, cfg.ConsoleCap))
	}
	sys.Watchdog = dev.NewWatchdog(cfg.WatchdogPeriod, cfg.WatchdogTarget)
	sys.wire()
	return sys, nil
}

// newPrimitiveSystem builds the Section 5.1 tailored system: loop-free
// processes chained in ROM, no interrupts, exceptions restarting the
// chain.
func newPrimitiveSystem(cfg Config) (*System, error) {
	if err := buildAll(); err != nil {
		return nil, err
	}
	prim := buildCache.prim
	bus, err := busWithROMs(
		romSpec{"primitive", uint32(guest.HandlerROMSeg) << 4, prim.Image},
	)
	if err != nil {
		return nil, err
	}
	entry := machine.SegOff{Seg: guest.HandlerROMSeg, Off: 0}
	m := machine.New(bus, machine.Options{
		NMICounter:         !cfg.DisableNMICounter,
		NMICounterMax:      DefaultNMISlack,
		HardwiredNMIVector: true,
		NMIVector:          entry,
		FixedIDTR:          true,
		ExceptionPolicy:    machine.ExceptionVector,
		ExceptionVector:    entry,
		ResetVector:        entry,
	})
	sys := &System{M: m, Cfg: cfg, Prim: prim}
	for i := 0; i < guest.PrimitiveNumProcs; i++ {
		sys.ProcBeats = append(sys.ProcBeats, newConsole(m, cfg.ConsoleCap))
	}
	sys.wire()
	return sys, nil
}
