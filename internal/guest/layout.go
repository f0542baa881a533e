// Package guest holds everything that runs *inside* the simulated
// machine: the tiny guest operating system (the paper's protected
// subject), transcriptions of the paper's Figure 1 watchdog/reinstall
// procedure and Figures 2-5 self-stabilizing scheduler, the approach-2
// monitoring handler, scheduler processes, and the builders that
// assemble them into ROM images.
//
// All guest code is written in the repository's NASM-flavoured assembly
// and assembled by internal/asm at system-construction time. The
// addresses below define the system memory map shared by every guest
// component.
package guest

import "ssos/internal/mem"

// Memory map (segment values; linear address = segment << 4).
const (
	// OSSeg is where the guest OS runs (code + data).
	OSSeg = 0x2000
	// OSROMSeg holds the pristine OS image in ROM (the paper's
	// "cd-rom image").
	OSROMSeg = 0xE000
	// HandlerROMSeg holds the stabilizer ROM: NMI handler, reset/boot
	// code, exception handlers. The hardwired NMI vector points at its
	// offset 0.
	HandlerROMSeg = 0xF000
	// StackSeg holds the guest stack.
	StackSeg = 0x3000
	// StackTop is the stack-frame anchor within StackSeg: after an NMI
	// interrupts the steady-state guest, ss:sp = StackSeg:StackTop and
	// the saved ip/cs/flags words sit at StackTop+0/+2/+4 (paper
	// Figures 2 and 3).
	StackTop = 0x0800
	// StackInit is the guest's steady-state sp: StackTop plus the three
	// words an interrupt pushes.
	StackInit = StackTop + 6

	// SchedSeg holds the self-stabilizing scheduler's RAM state:
	// processIndex at offset 0, the process table at offset 2.
	SchedSeg = 0x4000

	// ProcCodeSeg0 is the code segment of scheduled process 0;
	// process i runs at ProcCodeSeg0 + i*ProcSegStride. Each process
	// owns ProcRegionSize bytes of code space.
	ProcCodeSeg0  = 0x5000
	ProcSegStride = 0x0100 // 4 KiB per process region
	// ProcDataSeg0 is the data segment of process 0 (same stride).
	ProcDataSeg0 = 0x6000
	// ProcROMSeg0 is the ROM segment holding the pristine code image
	// of process 0 (same stride); the refresher process copies these
	// images over the RAM code regions, and the refresher itself runs
	// directly from its ROM image (the paper: "The code of the copying
	// process itself should be in rom").
	ProcROMSeg0 = 0xD000
	// ProcRegionSize is the code/data region size per process in bytes.
	ProcRegionSize = 0x1000
	// NumProcs is the number of scheduled processes (a power of two, so
	// that any bit pattern masked with NumProcs-1 is a valid index —
	// the paper's lg(N)-bit index argument).
	NumProcs = 4
)

// I/O ports.
const (
	// PortHeartbeat receives the guest OS heartbeat counter.
	PortHeartbeat = 0x10
	// PortRepair receives one word per repair action the approach-2
	// monitor performs (the value identifies the repaired predicate).
	PortRepair = 0x11
	// PortTrace is a general-purpose guest debug port.
	PortTrace = 0x12
	// PortCheckpoint commands the checkpoint device (rollback-recovery
	// comparator).
	PortCheckpoint = 0x13
	// PortProc0 is the heartbeat port of scheduled process 0; process i
	// uses PortProc0 + i.
	PortProc0 = 0x20
)

// Repair codes written to PortRepair by the approach-2 monitor.
const (
	RepairCanary   = 0xE001 // canary word was wrong
	RepairTaskIdx  = 0xE002 // task index out of range
	RepairChecksum = 0xE003 // task-run checksum mismatch
	RepairResume   = 0xE004 // return cs:ip outside OS code, restarted
	RepairQueue    = 0xE005 // IPC queue index out of range
)

// Guest OS data layout (offsets within OSSeg). The data block starts at
// DataOff; code must end below it. These are compile-time constants so
// that the ROM-resident monitor can check the same addresses the kernel
// uses.
const (
	// DataOff is the start of the guest OS data section.
	DataOff = 0x0E00
	// VarCounter is the heartbeat counter.
	VarCounter = DataOff + 0
	// VarTaskIdx is the round-robin task index (invariant: < NumTasks).
	VarTaskIdx = DataOff + 2
	// VarCanary must always hold CanaryValue (consistency predicate).
	VarCanary = DataOff + 4
	// VarChecksum holds the sum of the task-run counters (invariant:
	// checksum == task_runs[0]+...+task_runs[3] mod 2^16).
	VarChecksum = DataOff + 6
	// VarTaskRuns is the base of NumTasks per-task run counters.
	VarTaskRuns = DataOff + 8
	// VarScratch is task scratch space.
	VarScratch = DataOff + 16
	// VarQHead and VarQTail are the IPC ring-queue indices (invariant:
	// both < QueueCap); VarQBuf is the queue storage (QueueCap words).
	// Task 0 produces telemetry words into the queue; task 2 consumes
	// them — the inter-task communication path the approach-2 monitor
	// guards with predicate P5.
	VarQHead = DataOff + 0x20
	VarQTail = DataOff + 0x22
	VarQBuf  = DataOff + 0x24
	// QueueCap is the IPC queue capacity in words (a power of two).
	QueueCap = 8
	// DataLen is the size of the data section.
	DataLen = 0x40
	// ImageSize is the full OS image size (code region + data).
	ImageSize = DataOff + DataLen
	// NumTasks is the number of kernel tasks (power of two).
	NumTasks = 4
	// CanaryValue is the expected canary content.
	CanaryValue = 0xC0DE
	// InitialCounter is the heartbeat counter in the pristine ROM
	// image; the first beat after a cold start is InitialCounter+1.
	InitialCounter = 0
	// HeartbeatStart is the first heartbeat value after a restart.
	HeartbeatStart = InitialCounter + 1
)

// OSImage is the guest OS image in RAM: code, then data from DataOff.
// The fault classes blast it and approach 3's checkpointer snapshots
// it.
var OSImage = mem.Region{Name: "os", Start: uint32(OSSeg) << 4, Size: ImageSize}
