package guest

import (
	"fmt"

	"ssos/internal/imglint"
	"ssos/internal/model"
)

// This file declares the imglint contract of every guest ROM image: for
// each builder, exactly which paper invariants its output promises.
// cmd/ssos-lint, cmd/ssos-verify and the guest tests all lint the same
// specifications, so the bytes the simulator installs as ROM are the
// bytes that were proved.

// ROMRanges returns the linear address ranges the full system installs
// as ROM (the conservative union across approaches). No guest store may
// provably target any of them: ROM is incorruptible by contract, so
// such a store could only ever be a bug.
func ROMRanges() []imglint.Range {
	return []imglint.Range{
		{Name: "proc-images", Start: uint32(ProcROMSeg0) << 4, End: uint32(ProcROMSeg0)<<4 + NumProcs*ProcRegionSize},
		{Name: "os-image", Start: uint32(OSROMSeg) << 4, End: uint32(OSROMSeg)<<4 + ImageSize},
		{Name: "handler-rom", Start: uint32(HandlerROMSeg) << 4, End: (uint32(HandlerROMSeg) + 0x1000) << 4},
	}
}

// kernelSpec is the contract of a Kernel ROM image: execution starts at
// offset 0 (plus any interrupt-service entries), the unused code region
// [code_end, DataOff) is jmp-start fill, and padded kernels keep the
// §5.2 slot discipline.
func kernelSpec(name string, k *Kernel, extraEntries ...string) imglint.Image {
	entries := []imglint.Entry{{Name: "start", Off: 0}}
	for _, sym := range extraEntries {
		entries = append(entries, imglint.Entry{Name: sym, Off: k.Prog.MustSymbol(sym)})
	}
	return imglint.Image{
		Name:       name,
		Bytes:      k.Image(),
		Seg:        OSSeg,
		Entries:    entries,
		CodeEnd:    int(k.CodeLen()),
		CheckFill:  true,
		FillEnd:    DataOff,
		FillTarget: 0,
		SlotPadded: k.Padded,
		ROM:        ROMRanges(),
	}
}

// primitiveSpec is the contract of the Section 5.1 primitive-scheduler
// ROM: straight-line loop-free processes, full jmp-start fill, and the
// hardwired NMI/boot/exception entry at offset 0.
func primitiveSpec(pr *Primitive) imglint.Image {
	entries := []imglint.Entry{{Name: "entry", Off: 0}}
	for i, off := range pr.ProcStarts {
		entries = append(entries, imglint.Entry{Name: fmt.Sprintf("proc%d", i), Off: off})
	}
	return imglint.Image{
		Name:         "primitive",
		Bytes:        pr.Image,
		Seg:          HandlerROMSeg,
		Entries:      entries,
		CodeEnd:      int(pr.CodeEnd),
		CheckFill:    true,
		FillTarget:   0,
		StraightLine: true,
		ROM:          ROMRanges(),
	}
}

// handlerSpec is the contract of a stabilizer Handler ROM: the three
// hardwired entries decode and stay inside the image, and any constant
// iret launch frame confines cs to the guest OS segment.
func handlerSpec(name string, h *Handler) imglint.Image {
	return imglint.Image{
		Name:  name,
		Bytes: h.Prog.Code,
		Seg:   HandlerROMSeg,
		Entries: []imglint.Entry{
			{Name: "nmi_entry", Off: h.NMIEntry().Off},
			{Name: "boot_entry", Off: h.BootEntry().Off},
			{Name: "exc_entry", Off: h.ExcEntry().Off},
		},
		CSAllowed: []uint16{OSSeg},
		ROM:       ROMRanges(),
	}
}

// schedulerSpec is the contract of the Figures 2-5 scheduler ROM: the
// three entries decode, the ROM-resident processLimits and processData
// tables hold exactly the fixed per-process segments, and far control
// stays within the scheduled processes' code segments.
func schedulerSpec(name string, s *Scheduler) imglint.Image {
	limits := make([]uint16, NumProcs)
	data := make([]uint16, NumProcs)
	for i := 0; i < NumProcs; i++ {
		limits[i] = ProcCodeSeg(i)
		data[i] = schedDataEntry(i)
	}
	return imglint.Image{
		Name:  name,
		Bytes: s.Prog.Code,
		Seg:   HandlerROMSeg,
		Entries: []imglint.Entry{
			{Name: "nmi_entry", Off: s.NMIEntry().Off},
			{Name: "boot_entry", Off: s.BootEntry().Off},
			{Name: "exc_entry", Off: s.ExcEntry().Off},
		},
		Tables: []imglint.Table{
			{Name: "processLimits", Off: s.Prog.MustSymbol("processLimits"), Want: limits},
			{Name: "processData", Off: s.Prog.MustSymbol("processData"), Want: data},
		},
		CSAllowed: limits,
		ROM:       ROMRanges(),
	}
}

// procSpec is the contract of one scheduled process region image:
// slot-padded code from offset 0, jmp-start fill over the whole
// remaining region (so every maskable ip converges back to the
// process's first instruction).
func procSpec(name string, set *ProcSet, i int) imglint.Image {
	return imglint.Image{
		Name:       name,
		Bytes:      set.Images[i],
		Seg:        ProcCodeSeg(i),
		Entries:    []imglint.Entry{{Name: "start", Off: 0}},
		CodeEnd:    len(set.Progs[i].Code),
		CheckFill:  true,
		FillTarget: 0,
		SlotPadded: true,
		ROM:        ROMRanges(),
	}
}

// LintImages builds every guest ROM image the simulator can install and
// returns each with its invariant specification, ready for
// imglint.Check.
func LintImages() ([]imglint.Image, error) {
	var specs []imglint.Image

	kernel, err := BuildKernel(false)
	if err != nil {
		return nil, err
	}
	specs = append(specs, kernelSpec("kernel", kernel))

	padded, err := BuildKernel(true)
	if err != nil {
		return nil, err
	}
	specs = append(specs, kernelSpec("kernel-padded", padded))

	tickful, err := BuildTickfulKernel()
	if err != nil {
		return nil, err
	}
	specs = append(specs, kernelSpec("kernel-tickful", tickful, "timer_isr"))

	prim, err := BuildPrimitive()
	if err != nil {
		return nil, err
	}
	specs = append(specs, primitiveSpec(prim))

	reinstall, err := BuildReinstallHandler()
	if err != nil {
		return nil, err
	}
	specs = append(specs, handlerSpec("handler-reinstall", reinstall))

	cont, err := BuildContinueHandler()
	if err != nil {
		return nil, err
	}
	specs = append(specs, handlerSpec("handler-continue", cont))

	monitor, err := BuildMonitorHandler(padded)
	if err != nil {
		return nil, err
	}
	specs = append(specs, handlerSpec("handler-monitor", monitor))

	checkpoint, err := BuildCheckpointHandler()
	if err != nil {
		return nil, err
	}
	specs = append(specs, handlerSpec("handler-checkpoint", checkpoint))

	for _, v := range []struct {
		name string
		opts SchedOptions
	}{
		{"scheduler", SchedOptions{}},
		{"scheduler-validate-ds", SchedOptions{ValidateDS: true}},
		{"scheduler-protect", SchedOptions{ValidateDS: true, Protect: true}},
	} {
		s, err := BuildSchedulerOpts(v.opts)
		if err != nil {
			return nil, err
		}
		specs = append(specs, schedulerSpec(v.name, s))
	}

	procs, err := BuildProcesses()
	if err != nil {
		return nil, err
	}
	for i := 0; i < NumProcs; i++ {
		specs = append(specs, procSpec(fmt.Sprintf("proc-%d", i), procs, i))
	}

	// The mailbox token-ring workloads: the single-machine sets (one
	// image per scheduler slot) and, for the cluster's one-node-per-
	// replica deployments, the node image of every (variant, ring size,
	// node) the fleet can build — the worker and refresher slots of
	// those sets are byte-identical to proc-1..proc-3 above.
	for _, v := range RingVariants() {
		set, err := BuildMailboxProcesses(v)
		if err != nil {
			return nil, err
		}
		for i := 0; i < NumProcs; i++ {
			specs = append(specs, procSpec(fmt.Sprintf("mbox-%v-%d", v, i), set, i))
		}
		for n := 2; n <= model.MaxRingNodes; n++ {
			for node := 0; node < n; node++ {
				nset, err := buildNodeProcess(v, node, n)
				if err != nil {
					return nil, err
				}
				specs = append(specs, procSpec(fmt.Sprintf("mbox-%v-n%d-node%d", v, n, node), nset, 0))
			}
		}
	}

	return specs, nil
}
