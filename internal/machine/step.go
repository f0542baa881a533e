package machine

import (
	"ssos/internal/isa"
	"ssos/internal/obs"
)

// Step advances the system by one clock tick: devices tick, then the
// processor performs (at most) one unit of work — a reset, an interrupt
// delivery, one instruction, or an idle halt tick. It returns what
// happened.
//
// This is the paper's "system step": the next configuration is a
// function of the current configuration and the external inputs at the
// clock tick. Step is total: it is well-defined from ANY configuration,
// including corrupted ones, which is what makes the machine a valid
// substrate for self-stabilization experiments.
//
//ssos:hotpath
func (m *Machine) Step() Event {
	m.Stats.Steps++
	for _, t := range m.tickers {
		t.Tick(m)
	}

	// The processor's unit of work, open-coded here (rather than a
	// stepCPU helper) to keep the per-step call chain short: one
	// compare rules out all three external pins; stepPins handles the
	// rare latched cases. Instructions run through the superblock
	// engine unless SetDecodeCache(false) selected the interpreter.
	var ev Event
	handled := false
	if m.pins != 0 {
		ev, handled = m.stepPins()
	}
	if !handled {
		if m.CPU.Halted {
			m.Stats.HaltTicks++
			ev = EventHalted
		} else if m.sblocks != nil {
			ev = m.sbExec()
		} else {
			ev = m.execute()
		}
	}

	// The paper's NMI-counter hardware: decremented on every clock
	// tick until it reaches zero, except on the tick that loaded it
	// (NMI delivery), so the handler gets its full budget.
	if m.Opts.NMICounter && ev != EventNMI && m.CPU.NMICounter > 0 {
		m.CPU.NMICounter--
	}

	if m.AfterStep != nil {
		m.AfterStep(m, ev)
	}
	return ev
}

// Run executes n steps and returns the machine for chaining. It is
// semantically identical to calling Step n times; while no AfterStep
// hook, due ticker, latched pin or halt needs the full step skeleton,
// steps retire through the superblock engine's turbo lane (runBatched).
func (m *Machine) Run(n int) *Machine {
	m.runBatched(n)
	return m
}

// RunUntil steps the machine until pred returns true or limit steps
// have run; it reports whether pred was satisfied.
func (m *Machine) RunUntil(limit int, pred func(*Machine) bool) bool {
	for i := 0; i < limit; i++ {
		m.Step()
		if pred(m) {
			return true
		}
	}
	return false
}

// stepPins reacts to latched external pins in priority order: reset,
// then NMI, then maskable IRQ. It reports whether a pin was acted on;
// a latched-but-undeliverable pin (masked IRQ, in-flight NMI) leaves
// the processor to execute normally.
func (m *Machine) stepPins() (Event, bool) {
	if m.pins&pinReset != 0 {
		m.Reset()
		m.Stats.Resets++
		if m.Probe != nil {
			m.Probe.Emit(obs.Ev(m.Stats.Steps, obs.TypeReset))
		}
		return EventReset, true
	}
	if m.pins&pinNMI != 0 && m.nmiDeliverable() {
		m.deliverNMI()
		m.Stats.NMIs++
		if m.Probe != nil {
			m.Probe.Emit(obs.Ev(m.Stats.Steps, obs.TypeNMI))
		}
		return EventNMI, true
	}
	if m.pins&pinIRQ != 0 && m.CPU.Flags.Has(isa.FlagIF) {
		m.deliverIRQ()
		m.Stats.IRQs++
		if m.Probe != nil {
			m.Probe.Emit(obs.Ev(m.Stats.Steps, obs.TypeIRQ))
		}
		return EventIRQ, true
	}
	return 0, false
}

// nmiDeliverable implements the two hardware variants: the paper's
// counter (react only at zero — and zero is eventually reached from
// any state) or the stock latch (react only when not already in an NMI
// — which an arbitrary state can hold forever).
func (m *Machine) nmiDeliverable() bool {
	if m.Opts.NMICounter {
		return m.CPU.NMICounter == 0
	}
	return !m.CPU.InNMI
}

func (m *Machine) deliverNMI() {
	m.pins &^= pinNMI
	m.push(uint16(m.CPU.Flags))
	m.push(m.CPU.S[isa.CS])
	m.push(m.CPU.IP)
	m.CPU.Flags = m.CPU.Flags.Without(isa.FlagIF | isa.FlagWP)
	m.CPU.Halted = false
	if m.Opts.NMICounter {
		m.CPU.NMICounter = m.Opts.NMICounterMax
	} else {
		m.CPU.InNMI = true
	}
	var target SegOff
	if m.Opts.HardwiredNMIVector {
		target = m.Opts.NMIVector
	} else {
		target = m.idtEntry(VecNMI)
	}
	m.CPU.S[isa.CS] = target.Seg
	m.CPU.IP = target.Off
}

func (m *Machine) deliverIRQ() {
	m.pins &^= pinIRQ
	m.push(uint16(m.CPU.Flags))
	m.push(m.CPU.S[isa.CS])
	m.push(m.CPU.IP)
	m.CPU.Flags = m.CPU.Flags.Without(isa.FlagIF | isa.FlagWP)
	m.CPU.Halted = false
	target := m.idtEntry(m.irqVec)
	m.CPU.S[isa.CS] = target.Seg
	m.CPU.IP = target.Off
}

// raiseException reacts to a processor exception according to the
// configured policy. The program counter still addresses the faulting
// instruction when this is called.
func (m *Machine) raiseException(vec uint8) Event {
	m.Stats.Exceptions++
	if m.Probe != nil {
		ev := obs.Ev(m.Stats.Steps, obs.TypeException)
		ev.Code = uint64(vec)
		m.Probe.Emit(ev)
	}
	switch m.Opts.ExceptionPolicy {
	case ExceptionHalt:
		m.CPU.Halted = true
	case ExceptionVector:
		m.push(uint16(m.CPU.Flags))
		m.push(m.CPU.S[isa.CS])
		m.push(m.CPU.IP)
		m.CPU.Flags = m.CPU.Flags.Without(isa.FlagIF | isa.FlagWP)
		m.CPU.S[isa.CS] = m.Opts.ExceptionVector.Seg
		m.CPU.IP = m.Opts.ExceptionVector.Off
	case ExceptionIDT:
		m.push(uint16(m.CPU.Flags))
		m.push(m.CPU.S[isa.CS])
		m.push(m.CPU.IP)
		m.CPU.Flags = m.CPU.Flags.Without(isa.FlagIF | isa.FlagWP)
		target := m.idtEntry(vec)
		m.CPU.S[isa.CS] = target.Seg
		m.CPU.IP = target.Off
	}
	return EventException
}
