package fault

import (
	"ssos/internal/guest"
	"ssos/internal/mem"
	"ssos/internal/model"
)

// The fault vocabulary. Every path that injects a named fault — the
// served API and ssos-run, cluster strikes, ring-fleet scrambles, the
// experiments and the examples — takes its classes from the one table
// below, so a class writes the same bytes wherever it is injected.

// Regions the classes target, from internal/guest's layout. A region's
// name is the note its injection records.
var (
	// OSImage is the guest OS image in RAM: code, then data from
	// guest.DataOff. OSCode and OSData are its two parts.
	OSImage = guest.OSImage
	OSCode  = mem.Region{Name: "os", Start: OSImage.Start, Size: guest.DataOff}
	OSData  = mem.Region{Name: "os", Start: OSImage.Start + guest.DataOff, Size: guest.DataLen}
	// ProcessTable is the 5.2 scheduler's RAM state: processIndex and
	// the process table.
	ProcessTable = mem.Region{Name: "table", Start: uint32(guest.SchedSeg) << 4,
		Size: guest.ProcessTableOff + guest.NumProcs*guest.ProcessEntrySize}
	// WorkerCode is scheduled process 0's code region.
	WorkerCode = mem.Region{Name: "p0", Start: uint32(guest.ProcCodeSeg(0)) << 4, Size: guest.ProcRegionSize}
)

// A Class is one named fault class: the injector actions it runs, in
// order, on regions of the guest layout.
type Class struct {
	Name string
	// run injects the class on a machine deployed with ringNodes ring
	// nodes (see Injector.Inject).
	run func(in *Injector, ringNodes int)
}

// The classes, in served order.
var (
	BitFlip    = Class{"bitflip", func(in *Injector, _ int) { in.FlipRAMBit() }}
	OSBlast    = Class{"os-blast", func(in *Injector, _ int) { in.RandomizeRegion(OSImage) }}
	CPUBlast   = Class{"cpu-blast", func(in *Injector, _ int) { in.BlastCPU() }}
	PC         = Class{"pc", func(in *Injector, _ int) { in.CorruptIP(); in.CorruptSegment() }}
	AllRAM     = Class{"all-ram", func(in *Injector, _ int) { in.BlastRAM() }}
	TableBlast = Class{"table-blast", func(in *Injector, _ int) { in.RandomizeRegion(ProcessTable) }}
	ProcCode   = Class{"proc-code", func(in *Injector, _ int) { in.RandomizeRegion(WorkerCode) }}
	// Mailbox is the algorithm-layer fault of the mailbox ring
	// workloads: the shared slots, then the parked neighbour-read
	// registers of the ring processes. A single machine (ringNodes 0)
	// loses all 2·model.MaxRingNodes slot bytes and the registers of
	// its guest.MailboxNodes ring processes; a fleet node loses its
	// ring's 2·ringNodes slot bytes and the registers of slot 0, where
	// its node runs.
	Mailbox = Class{"mailbox", func(in *Injector, ringNodes int) {
		slots, procs := model.MaxRingNodes, guest.MailboxNodes
		if ringNodes > 0 {
			slots, procs = ringNodes, 1
		}
		in.RandomizeRegion(mem.Region{Name: "mailbox", Start: guest.MailboxAddr(0), Size: uint32(2 * slots)})
		for i := 0; i < procs; i++ {
			in.RandomizeRegion(mem.Region{Name: "node-regs", Start: guest.MailboxRegLAddr(i), Size: 4})
		}
	}}
)

// Blast is the paper's "started in any possible state": cpu-blast, then
// all-ram.
var Blast = []Class{CPUBlast, AllRAM}

// table lists the classes in served order; FaultKinds in internal/serve
// and the serve benchmark's traffic index it, so an entry is never
// reordered.
var table = []Class{BitFlip, OSBlast, CPUBlast, PC, AllRAM, TableBlast, ProcCode, Mailbox}

// Classes returns the table in served order.
func Classes() []Class { return append([]Class(nil), table...) }

// LookupClass resolves a class by name.
func LookupClass(name string) (Class, bool) {
	for _, c := range table {
		if c.Name == name {
			return c, true
		}
	}
	return Class{}, false
}

// Inject runs the classes in order. ringNodes is the machine's ring
// deployment, core.Config.RingNodes: 0 on a single machine, the ring
// size on a fleet node.
func (in *Injector) Inject(ringNodes int, classes ...Class) {
	for _, c := range classes {
		c.run(in, ringNodes)
	}
}
