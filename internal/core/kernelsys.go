package core

import (
	"fmt"

	"ssos/internal/dev"
	"ssos/internal/guest"
	"ssos/internal/machine"
)

// newKernelSystem builds the guest-OS-based systems: baseline,
// approach 1 (reinstall / continue) and approach 2 (monitor).
func newKernelSystem(cfg Config) (*System, error) {
	if err := buildAll(); err != nil {
		return nil, err
	}

	kernel := buildCache.kernelPlain
	if cfg.Approach == ApproachMonitor {
		// The monitor masks the resume ip to 16-byte slot starts.
		kernel = buildCache.kernelPadded
	}
	if cfg.TickfulKernel {
		switch cfg.Approach {
		case ApproachBaseline, ApproachReinstall, ApproachAdaptive:
		default:
			return nil, fmt.Errorf("core: the tickful kernel supports baseline, reinstall and adaptive, not %v", cfg.Approach)
		}
		kernel = buildCache.kernelTickful
	}

	var handler *guest.Handler
	switch cfg.Approach {
	case ApproachBaseline, ApproachReinstall, ApproachAdaptive:
		handler = buildCache.reinstall
	case ApproachContinue:
		handler = buildCache.cont
	case ApproachMonitor:
		handler = buildCache.monitor
	case ApproachCheckpoint:
		handler = buildCache.checkpoint
	default:
		return nil, fmt.Errorf("core: %v is not a kernel system", cfg.Approach)
	}

	bus, err := busWithROMs(
		romSpec{"os-image", uint32(guest.OSROMSeg) << 4, kernel.Image()},
		romSpec{"stabilizer", uint32(guest.HandlerROMSeg) << 4, handler.Prog.Code},
	)
	if err != nil {
		return nil, err
	}

	if cfg.WatchdogPeriod == 0 {
		cfg.WatchdogPeriod = DefaultWatchdogPeriod
	}

	// The NMI counter outlasts the longest handler path, which copies
	// the full image byte by byte.
	opts := machine.Options{
		NMICounter:         !cfg.DisableNMICounter,
		NMICounterMax:      guest.ImageSize + DefaultNMISlack,
		HardwiredNMIVector: true,
		NMIVector:          handler.NMIEntry(),
		FixedIDTR:          true,
		ExceptionPolicy:    machine.ExceptionVector,
		ExceptionVector:    handler.ExcEntry(),
		ResetVector:        handler.BootEntry(),
	}
	if cfg.Approach == ApproachBaseline {
		// A conventional system: exceptions crash the machine.
		opts.ExceptionPolicy = machine.ExceptionHalt
	}
	if cfg.StockVectoring {
		// Stock plumbing: everything vectors through a RAM IDT via a
		// writable IDTR (the paper's introduction hazard).
		opts.HardwiredNMIVector = false
		opts.FixedIDTR = false
		if opts.ExceptionPolicy == machine.ExceptionVector {
			opts.ExceptionPolicy = machine.ExceptionIDT
		}
	}

	m := machine.New(bus, opts)
	if cfg.StockVectoring {
		// Initialize the IDT at base 0 as the BIOS would. It lives in
		// RAM: transient faults can corrupt both it and the IDTR.
		m.SetIDTEntry(machine.VecNMI, handler.NMIEntry())
		m.SetIDTEntry(machine.VecInvalidOpcode, handler.ExcEntry())
		m.SetIDTEntry(machine.VecGP, handler.ExcEntry())
	}
	sys := &System{M: m, Cfg: cfg, Kernel: kernel, heartbeatPort: guest.PortHeartbeat}
	sys.Heartbeat = newConsole(m, cfg.ConsoleCap)
	if cfg.Approach == ApproachAdaptive {
		// The silence watchdog observes the heartbeat port itself,
		// wrapping the recording console; the watchdog period plays
		// the role of the silence limit.
		sys.Silence = dev.NewSilenceWatchdog(sys.Heartbeat, cfg.WatchdogPeriod)
	}
	if cfg.Approach == ApproachMonitor {
		sys.Repairs = newConsole(m, cfg.ConsoleCap)
	}
	if cfg.Approach != ApproachBaseline && cfg.Approach != ApproachAdaptive {
		sys.Watchdog = dev.NewWatchdog(cfg.WatchdogPeriod, cfg.WatchdogTarget)
	}
	if cfg.TickfulKernel {
		sys.Timer = dev.NewTimer(DefaultTimerPeriod, machine.VecTimer)
	}
	if cfg.Approach == ApproachCheckpoint {
		// Snapshots every two thirds of the watchdog period,
		// deliberately not a divisor of it: snapshot and rollback
		// instants interleave instead of coinciding, so some rollbacks
		// find a pre-fault snapshot. (An aligned schedule would snapshot
		// the corruption in the same tick the rollback fires.)
		sys.Checkpoint = dev.NewCheckpointer(bus, guest.OSImage, cfg.WatchdogPeriod*2/3)
	}
	sys.wire()
	return sys, nil
}
