package core

import (
	"fmt"

	"ssos/internal/dev"
	"ssos/internal/guest"
	"ssos/internal/machine"
)

// CustomConfig describes a user-supplied guest to protect with the
// approach-1 stabilizer. This is the library's extension point: write
// any guest OS in the repository's assembly (see internal/asm), render
// it to a flat image, and NewCustom wraps it in the full Figure 1
// machinery — pristine image in ROM, watchdog on the NMI pin,
// exception-vectored reinstall.
//
// The stabilizer places no requirements on the guest beyond the
// memory map: the image is installed at guest.OSSeg offset 0, execution
// (re)starts at its first byte with ss:sp = StackSeg:StackInit, and the
// image must leave the stabilizer's regions alone. A guest that is
// itself self-stabilizing (re-establishes its segments, masks its
// indices) turns the weakly-stabilizing wrapper into a usable system,
// exactly as the paper prescribes.
type CustomConfig struct {
	// Image is the guest image, installed at guest.OSSeg. Must be
	// non-empty and at most 64 KiB.
	Image []byte
	// WatchdogPeriod is the reinstall period (default
	// DefaultWatchdogPeriod).
	WatchdogPeriod uint32
	// NMICounterMax must exceed the reinstall length; defaults to
	// len(Image) plus slack.
	NMICounterMax uint16
	// HeartbeatPort, when non-zero, attaches a recording console so the
	// guest's output can be observed through System.Heartbeat.
	HeartbeatPort uint16
	// ConsoleCap bounds retained console writes (0 = unlimited).
	ConsoleCap int
	// DisableNMICounter reverts to stock NMI latching.
	DisableNMICounter bool
}

// NewCustom builds an approach-1 (reinstall & restart) system around a
// user-supplied guest image.
func NewCustom(cc CustomConfig) (*System, error) {
	if len(cc.Image) == 0 {
		return nil, fmt.Errorf("core: custom image is empty")
	}
	if len(cc.Image) > 0x10000 {
		return nil, fmt.Errorf("core: custom image %d bytes exceeds 64 KiB", len(cc.Image))
	}
	handler, err := guest.BuildReinstallHandlerSized(len(cc.Image))
	if err != nil {
		return nil, err
	}
	bus, err := busWithROMs(
		romSpec{"os-image", uint32(guest.OSROMSeg) << 4, cc.Image},
		romSpec{"stabilizer", uint32(guest.HandlerROMSeg) << 4, handler.Prog.Code},
	)
	if err != nil {
		return nil, err
	}

	cfg := Config{
		Approach:          ApproachReinstall,
		WatchdogPeriod:    cc.WatchdogPeriod,
		DisableNMICounter: cc.DisableNMICounter,
		ConsoleCap:        cc.ConsoleCap,
	}
	if cfg.WatchdogPeriod == 0 {
		cfg.WatchdogPeriod = DefaultWatchdogPeriod
	}
	nmiMax := cc.NMICounterMax
	if nmiMax == 0 {
		nmiMax = uint16(min(len(cc.Image)+DefaultNMISlack, 0xFFFF))
	}

	m := machine.New(bus, machine.Options{
		NMICounter:         !cc.DisableNMICounter,
		NMICounterMax:      nmiMax,
		HardwiredNMIVector: true,
		NMIVector:          handler.NMIEntry(),
		FixedIDTR:          true,
		ExceptionPolicy:    machine.ExceptionVector,
		ExceptionVector:    handler.ExcEntry(),
		ResetVector:        handler.BootEntry(),
	})
	sys := &System{M: m, Cfg: cfg, heartbeatPort: cc.HeartbeatPort}
	if cc.HeartbeatPort != 0 {
		sys.Heartbeat = newConsole(m, cc.ConsoleCap)
	}
	sys.Watchdog = dev.NewWatchdog(cfg.WatchdogPeriod, cfg.WatchdogTarget)
	sys.wire()
	return sys, nil
}
