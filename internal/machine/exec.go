package machine

import "ssos/internal/isa"

// execute performs one fetch-decode-execute unit of work through the
// byte-wise reference path. Invalid encodings raise the invalid-opcode
// exception; faulting stores raise the general-protection exception
// with ip still addressing the faulting instruction.
func (m *Machine) execute() Event {
	in, size, ok := m.fetch()
	if !ok {
		return m.raiseException(VecInvalidOpcode)
	}
	return ops[in.Op](m, in, m.CPU.IP+uint16(size))
}

// fetch reads and decodes the instruction at cs:ip byte by byte, with
// full 16-bit segment-offset and 20-bit linear wrap-around. The first
// byte bounds the read via isa.InstLen, so short instructions cost
// proportionally fewer bus loads. The result lands in m.fetched, so the
// step loop never allocates.
func (m *Machine) fetch() (*isa.Inst, int, bool) {
	var buf [isa.MaxInstrSize]byte
	buf[0] = m.Bus.LoadByte(m.Linear(isa.CS, m.CPU.IP))
	n := isa.InstLen(buf[0])
	if n == 0 {
		n = 1 // invalid opcode: Decode needs only the first byte
	}
	for i := 1; i < n; i++ {
		buf[i] = m.Bus.LoadByte(m.Linear(isa.CS, m.CPU.IP+uint16(i)))
	}
	in, size, ok := isa.Decode(buf[:n])
	m.fetched = in
	return &m.fetched, size, ok
}

// opFn executes one decoded instruction whose first byte the current ip
// addresses, with next its sequential successor (ip+size). On normal
// completion it moves ip to the next instruction to run and counts the
// instruction; on an exception ip still addresses the instruction.
type opFn func(m *Machine, in *isa.Inst, next uint16) Event

// ops is the machine's instruction semantics: one executor per opcode
// byte, opInvalid for every byte the isa leaves undefined. Both engines
// dispatch through it — the interpreter per fetched instruction
// (execute), the superblock engine through the executor each block
// entry stores — so the two cannot disagree on what an instruction
// does.
var ops [256]opFn

// The table init is a noalloc root: the engines reach the executors
// only through ops or a block entry's fn (func values, outside the
// static call graph), so rooting the table population here pulls every
// executor into the hot closure.
//
//ssos:hotpath
func init() {
	ops = [256]opFn{
		isa.OpNop:   opNop,
		isa.OpHlt:   opHlt,
		isa.OpCld:   opCld,
		isa.OpStd:   opStd,
		isa.OpSti:   opSti,
		isa.OpCli:   opCli,
		isa.OpIret:  opIret,
		isa.OpPushf: opPushf,
		isa.OpPopf:  opPopf,

		isa.OpMovRI:   opMovRI,
		isa.OpMovRR:   opMovRR,
		isa.OpMovSR:   opMovSR,
		isa.OpMovRS:   opMovRS,
		isa.OpMovRM:   opMovRM,
		isa.OpMovMR:   opMovMR,
		isa.OpMovMI:   opMovMI,
		isa.OpMovSM:   opMovSM,
		isa.OpMovMS:   opMovMS,
		isa.OpMovR8I:  opMovR8I,
		isa.OpMovR8R8: opMovR8R8,

		isa.OpAddRR: opAddRR,
		isa.OpAddRI: opAddRI,
		isa.OpAddRM: opAddRM,
		isa.OpSubRR: opSubRR,
		isa.OpSubRI: opSubRI,
		isa.OpIncR:  opIncR,
		isa.OpDecR:  opDecR,
		isa.OpAndRR: opAndRR,
		isa.OpAndRI: opAndRI,
		isa.OpOrRR:  opOrRR,
		isa.OpOrRI:  opOrRI,
		isa.OpXorRR: opXorRR,
		isa.OpCmpRR: opCmpRR,
		isa.OpCmpRI: opCmpRI,
		isa.OpCmpRM: opCmpRM,
		isa.OpLea:   opLea,
		isa.OpMulR8: opMulR8,
		isa.OpShlRI: opShlRI,
		isa.OpShrRI: opShrRI,

		isa.OpJmp:    opJmp,
		isa.OpJmpFar: opJmpFar,
		isa.OpJe:     opJe,
		isa.OpJne:    opJne,
		isa.OpJb:     opJb,
		isa.OpJbe:    opJbe,
		isa.OpJa:     opJa,
		isa.OpJae:    opJae,
		isa.OpLoop:   opLoop,
		isa.OpCall:   opCall,
		isa.OpRet:    opRet,

		isa.OpPushR: opPushR,
		isa.OpPopR:  opPopR,
		isa.OpPushI: opPushI,
		isa.OpPushS: opPushS,
		isa.OpPopS:  opPopS,

		isa.OpMovsb:    opMovsb,
		isa.OpRepMovsb: opRepMovsb,
		isa.OpStosb:    opStosb,
		isa.OpLodsb:    opLodsb,

		isa.OpOutI:  opOutI,
		isa.OpInI:   opInI,
		isa.OpOutDx: opOutDx,
		isa.OpInDx:  opInDx,
		isa.OpInt:   opInt,
		isa.OpWPSet: opWPSet,
	}
	for i := range ops {
		if ops[i] == nil {
			ops[i] = opInvalid
		}
	}
}

// retire completes an instruction normally: ip moves to next and the
// instruction counts.
func (m *Machine) retire(next uint16) Event {
	m.CPU.IP = next
	m.Stats.Instrs++
	return EventInstr
}

// branch retires a conditional jump: to in.Imm when taken, else to next.
func (m *Machine) branch(taken bool, in *isa.Inst, next uint16) Event {
	if taken {
		next = in.Imm
	}
	return m.retire(next)
}

// storeOp stores v through in's memory operand and retires; a refused
// store raises #GP.
func (m *Machine) storeOp(in *isa.Inst, v, next uint16) Event {
	if !m.storeMem(in, v) {
		return m.raiseException(VecGP)
	}
	return m.retire(next)
}

// pushOp pushes v and retires to next; a refused push restores sp and
// raises #GP.
func (m *Machine) pushOp(v, next uint16) Event {
	if !m.pushGuarded(v) {
		m.CPU.R[isa.SP] += 2
		return m.raiseException(VecGP)
	}
	return m.retire(next)
}

func opInvalid(m *Machine, in *isa.Inst, next uint16) Event {
	return m.raiseException(VecInvalidOpcode)
}

func opNop(m *Machine, in *isa.Inst, next uint16) Event { return m.retire(next) }

func opHlt(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.Halted = true
	return m.retire(next)
}

func opCld(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.Flags = m.CPU.Flags.Without(isa.FlagDF)
	return m.retire(next)
}

func opStd(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.Flags = m.CPU.Flags.With(isa.FlagDF)
	return m.retire(next)
}

func opSti(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.Flags = m.CPU.Flags.With(isa.FlagIF)
	return m.retire(next)
}

func opCli(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.Flags = m.CPU.Flags.Without(isa.FlagIF)
	return m.retire(next)
}

// opIret pops ip, cs, flags and re-arms the NMI machinery. With the
// paper's counter hardware, iret zeroes the counter so a pending NMI is
// deliverable immediately (Section 2).
func opIret(m *Machine, in *isa.Inst, next uint16) Event {
	c := &m.CPU
	ip := m.pop()
	c.S[isa.CS] = m.pop()
	c.Flags = isa.Flags(m.pop())
	c.NMICounter = 0
	c.InNMI = false
	return m.retire(ip)
}

func opPushf(m *Machine, in *isa.Inst, next uint16) Event {
	return m.pushOp(uint16(m.CPU.Flags), next)
}

func opPopf(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.Flags = isa.Flags(m.pop())
	return m.retire(next)
}

func opMovRI(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.R[in.R1] = in.Imm
	return m.retire(next)
}

func opMovRR(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.R[in.R1] = m.CPU.R[in.R2]
	return m.retire(next)
}

func opMovSR(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.S[in.R1] = m.CPU.R[in.R2]
	return m.retire(next)
}

func opMovRS(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.R[in.R1] = m.CPU.S[in.R2]
	return m.retire(next)
}

func opMovRM(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.R[in.R1] = m.loadMem(in)
	return m.retire(next)
}

func opMovMR(m *Machine, in *isa.Inst, next uint16) Event {
	return m.storeOp(in, m.CPU.R[in.R1], next)
}

func opMovMI(m *Machine, in *isa.Inst, next uint16) Event {
	return m.storeOp(in, in.Imm, next)
}

func opMovSM(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.S[in.R1] = m.loadMem(in)
	return m.retire(next)
}

func opMovMS(m *Machine, in *isa.Inst, next uint16) Event {
	return m.storeOp(in, m.CPU.S[in.R1], next)
}

func opMovR8I(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.SetReg8(isa.Reg8(in.R1), uint8(in.Imm))
	return m.retire(next)
}

func opMovR8R8(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.SetReg8(isa.Reg8(in.R1), m.CPU.Reg8(isa.Reg8(in.R2)))
	return m.retire(next)
}

func opAddRR(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.R[in.R1] = m.add16(m.CPU.R[in.R1], m.CPU.R[in.R2])
	return m.retire(next)
}

func opAddRI(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.R[in.R1] = m.add16(m.CPU.R[in.R1], in.Imm)
	return m.retire(next)
}

func opAddRM(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.R[in.R1] = m.add16(m.CPU.R[in.R1], m.loadMem(in))
	return m.retire(next)
}

func opSubRR(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.R[in.R1] = m.sub16(m.CPU.R[in.R1], m.CPU.R[in.R2])
	return m.retire(next)
}

func opSubRI(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.R[in.R1] = m.sub16(m.CPU.R[in.R1], in.Imm)
	return m.retire(next)
}

// opIncR and opDecR preserve CF, as on x86.
func opIncR(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.R[in.R1]++
	m.setZS(m.CPU.R[in.R1])
	return m.retire(next)
}

func opDecR(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.R[in.R1]--
	m.setZS(m.CPU.R[in.R1])
	return m.retire(next)
}

func opAndRR(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.R[in.R1] = m.logic16(m.CPU.R[in.R1] & m.CPU.R[in.R2])
	return m.retire(next)
}

func opAndRI(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.R[in.R1] = m.logic16(m.CPU.R[in.R1] & in.Imm)
	return m.retire(next)
}

func opOrRR(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.R[in.R1] = m.logic16(m.CPU.R[in.R1] | m.CPU.R[in.R2])
	return m.retire(next)
}

func opOrRI(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.R[in.R1] = m.logic16(m.CPU.R[in.R1] | in.Imm)
	return m.retire(next)
}

func opXorRR(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.R[in.R1] = m.logic16(m.CPU.R[in.R1] ^ m.CPU.R[in.R2])
	return m.retire(next)
}

func opCmpRR(m *Machine, in *isa.Inst, next uint16) Event {
	m.sub16(m.CPU.R[in.R1], m.CPU.R[in.R2])
	return m.retire(next)
}

func opCmpRI(m *Machine, in *isa.Inst, next uint16) Event {
	m.sub16(m.CPU.R[in.R1], in.Imm)
	return m.retire(next)
}

func opCmpRM(m *Machine, in *isa.Inst, next uint16) Event {
	m.sub16(m.CPU.R[in.R1], m.loadMem(in))
	return m.retire(next)
}

func opLea(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.R[in.R1] = m.effOff(in)
	return m.retire(next)
}

// opMulR8 computes ax = al * r8; carry/overflow signal a non-zero high
// byte.
func opMulR8(m *Machine, in *isa.Inst, next uint16) Event {
	c := &m.CPU
	prod := uint16(c.Reg8(isa.AL)) * uint16(c.Reg8(isa.Reg8(in.R1)))
	c.R[isa.AX] = prod
	c.Flags = c.Flags.Set(isa.FlagCF|isa.FlagOF, prod>>8 != 0)
	return m.retire(next)
}

func opShlRI(m *Machine, in *isa.Inst, next uint16) Event {
	c := &m.CPU
	n := uint(in.Imm) & 31
	v := c.R[in.R1]
	if n > 0 && n <= 16 {
		c.Flags = c.Flags.Set(isa.FlagCF, v>>(16-n)&1 != 0)
	}
	c.R[in.R1] = m.logicKeepCF(v << n)
	return m.retire(next)
}

func opShrRI(m *Machine, in *isa.Inst, next uint16) Event {
	c := &m.CPU
	n := uint(in.Imm) & 31
	v := c.R[in.R1]
	if n > 0 && n <= 16 {
		c.Flags = c.Flags.Set(isa.FlagCF, v>>(n-1)&1 != 0)
	}
	c.R[in.R1] = m.logicKeepCF(v >> n)
	return m.retire(next)
}

func opJmp(m *Machine, in *isa.Inst, next uint16) Event { return m.retire(in.Imm) }

func opJmpFar(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.S[isa.CS] = in.Imm
	return m.retire(in.Imm2)
}

func opJe(m *Machine, in *isa.Inst, next uint16) Event {
	return m.branch(m.CPU.Flags.Has(isa.FlagZF), in, next)
}

func opJne(m *Machine, in *isa.Inst, next uint16) Event {
	return m.branch(!m.CPU.Flags.Has(isa.FlagZF), in, next)
}

func opJb(m *Machine, in *isa.Inst, next uint16) Event {
	return m.branch(m.CPU.Flags.Has(isa.FlagCF), in, next)
}

func opJbe(m *Machine, in *isa.Inst, next uint16) Event {
	return m.branch(m.CPU.Flags.Has(isa.FlagCF) || m.CPU.Flags.Has(isa.FlagZF), in, next)
}

func opJa(m *Machine, in *isa.Inst, next uint16) Event {
	return m.branch(!m.CPU.Flags.Has(isa.FlagCF) && !m.CPU.Flags.Has(isa.FlagZF), in, next)
}

func opJae(m *Machine, in *isa.Inst, next uint16) Event {
	return m.branch(!m.CPU.Flags.Has(isa.FlagCF), in, next)
}

func opLoop(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.R[isa.CX]--
	return m.branch(m.CPU.R[isa.CX] != 0, in, next)
}

func opCall(m *Machine, in *isa.Inst, next uint16) Event { return m.pushOp(next, in.Imm) }

func opRet(m *Machine, in *isa.Inst, next uint16) Event { return m.retire(m.pop()) }

func opPushR(m *Machine, in *isa.Inst, next uint16) Event {
	return m.pushOp(m.CPU.R[in.R1], next)
}

func opPopR(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.R[in.R1] = m.pop()
	return m.retire(next)
}

func opPushI(m *Machine, in *isa.Inst, next uint16) Event { return m.pushOp(in.Imm, next) }

func opPushS(m *Machine, in *isa.Inst, next uint16) Event {
	return m.pushOp(m.CPU.S[in.R1], next)
}

func opPopS(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.S[in.R1] = m.pop()
	return m.retire(next)
}

func opMovsb(m *Machine, in *isa.Inst, next uint16) Event {
	if !m.movsbOnce() {
		return m.raiseException(VecGP)
	}
	return m.retire(next)
}

// opRepMovsb copies one byte per clock tick, resumably: ip stays on the
// instruction until cx reaches zero. This matches the paper's reading of
// rep movsb (Figure 1 line 9): a cx-bounded loop that always terminates
// because cx strictly decreases. It is the reference for every
// iteration: Step and the interpreter run one per tick, and Run's turbo
// lane retires the ordinary iterations of a long copy in one loop
// (repMovsbBulk) that does exactly what this executor does per byte,
// leaving the final iteration and every ROM or window-refused store to
// it.
func opRepMovsb(m *Machine, in *isa.Inst, next uint16) Event {
	c := &m.CPU
	if c.R[isa.CX] != 0 {
		if !m.movsbOnce() {
			return m.raiseException(VecGP)
		}
		c.R[isa.CX]--
		if c.R[isa.CX] != 0 {
			next = c.IP
		}
	}
	return m.retire(next)
}

func opStosb(m *Machine, in *isa.Inst, next uint16) Event {
	c := &m.CPU
	dst := m.Linear(isa.ES, c.R[isa.DI])
	if !m.storeAllowed(dst) || !m.Bus.StoreByte(dst, c.Reg8(isa.AL)) {
		return m.raiseException(VecGP)
	}
	c.R[isa.DI] = m.stringAdvance(c.R[isa.DI])
	return m.retire(next)
}

func opLodsb(m *Machine, in *isa.Inst, next uint16) Event {
	c := &m.CPU
	c.SetReg8(isa.AL, m.Bus.LoadByte(m.Linear(isa.DS, c.R[isa.SI])))
	c.R[isa.SI] = m.stringAdvance(c.R[isa.SI])
	return m.retire(next)
}

func opOutI(m *Machine, in *isa.Inst, next uint16) Event {
	m.portOut(in.Imm, m.CPU.R[isa.AX])
	return m.retire(next)
}

func opInI(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.R[isa.AX] = m.portIn(in.Imm)
	return m.retire(next)
}

func opOutDx(m *Machine, in *isa.Inst, next uint16) Event {
	m.portOut(m.CPU.R[isa.DX], m.CPU.R[isa.AX])
	return m.retire(next)
}

func opInDx(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.R[isa.AX] = m.portIn(m.CPU.R[isa.DX])
	return m.retire(next)
}

func opWPSet(m *Machine, in *isa.Inst, next uint16) Event {
	m.CPU.WP = m.CPU.R[in.R1]
	return m.retire(next)
}

// opInt vectors through the IDT; the pushed return address is the
// instruction after the int.
func opInt(m *Machine, in *isa.Inst, next uint16) Event {
	c := &m.CPU
	c.IP = next // resume after the int instruction
	m.Stats.Instrs++
	m.push(uint16(c.Flags))
	m.push(c.S[isa.CS])
	m.push(c.IP)
	c.Flags = c.Flags.Without(isa.FlagIF)
	target := m.idtEntry(uint8(in.Imm))
	c.S[isa.CS] = target.Seg
	c.IP = target.Off
	return EventInstr
}

// effOff computes a memory operand's effective offset (16-bit wrap
// within the segment). It and its siblings below are methods, not
// per-execute closures, so the executors stay allocation-free.
func (m *Machine) effOff(in *isa.Inst) uint16 {
	off := in.Mem.Disp
	if r, useBase := in.Mem.Base.Reg(); useBase {
		off += m.CPU.R[r]
	}
	return off
}

// loadMem reads the 16-bit word addressed by in's memory operand.
func (m *Machine) loadMem(in *isa.Inst) uint16 {
	return m.LoadWord(in.Mem.Seg, m.effOff(in))
}

// storeMem writes v through in's memory operand, honouring the
// memory-protection window and the ROM write policy.
func (m *Machine) storeMem(in *isa.Inst, v uint16) bool {
	off := m.effOff(in)
	if !m.storeAllowed(m.Linear(in.Mem.Seg, off)) {
		return false
	}
	return m.StoreWord(in.Mem.Seg, off, v)
}

// storeAllowed reports whether a data store to the linear address is
// permitted under the memory-protection extension: always, unless the
// window is active and the target lies outside it. It tests the option
// before calling windowActive, which is too large to inline (it asks
// the bus whether the code lies in ROM, and a mixed page's answer is a
// call), so a store on a machine without the extension makes no call.
func (m *Machine) storeAllowed(addr uint32) bool {
	return !m.Opts.MemoryProtection || !m.windowActive() || m.inWindow(addr)
}

// windowActive reports whether the memory-protection window constrains
// data stores: the option is on, FlagWP is set, and the executing code
// resides in RAM. ROM-resident code (the stabilizers) is exempt, playing
// supervisor. No data store can change the answer, so a rep movsb copy
// may ask once for all of its iterations.
func (m *Machine) windowActive() bool {
	return m.Opts.MemoryProtection && m.CPU.Flags.Has(isa.FlagWP) &&
		!m.Bus.InROM(m.CPU.PC().Linear())
}

// inWindow reports whether a store at the linear address lies inside
// the 4 KiB window at WP<<4. The bound is the same for byte and word
// stores (addr+1 must lie in the window too), so a byte store to the
// window's last byte is refused.
func (m *Machine) inWindow(addr uint32) bool {
	base := uint32(m.CPU.WP) << 4
	return addr >= base && addr+1 < base+WPWindowSize
}

// pushGuarded is push with the memory-protection check applied (guest
// pushes only; interrupt-delivery pushes are hardware and exempt).
func (m *Machine) pushGuarded(v uint16) bool {
	target := m.Linear(isa.SS, m.CPU.R[isa.SP]-2)
	if !m.storeAllowed(target) {
		// Mirror push's sp decrement so the caller's uniform fault
		// cleanup (sp += 2) leaves sp unchanged either way.
		m.CPU.R[isa.SP] -= 2
		return false
	}
	return m.push(v)
}

// movsbOnce copies one byte ds:si -> es:di and advances the index
// registers per the direction flag.
func (m *Machine) movsbOnce() bool {
	c := &m.CPU
	dst := m.Linear(isa.ES, c.R[isa.DI])
	if !m.storeAllowed(dst) {
		return false
	}
	b := m.Bus.LoadByte(m.Linear(isa.DS, c.R[isa.SI]))
	ok := m.Bus.StoreByte(dst, b)
	c.R[isa.SI] = m.stringAdvance(c.R[isa.SI])
	c.R[isa.DI] = m.stringAdvance(c.R[isa.DI])
	return ok
}

func (m *Machine) stringAdvance(v uint16) uint16 {
	if m.CPU.Flags.Has(isa.FlagDF) {
		return v - 1
	}
	return v + 1
}

// setZS updates the zero and sign flags from a result. The sign bit is
// shifted into place rather than tested: this runs once per ALU
// instruction, so it stays branch-light.
func (m *Machine) setZS(v uint16) {
	f := m.CPU.Flags&^(isa.FlagZF|isa.FlagSF) | isa.Flags(v>>13)&isa.FlagSF
	if v == 0 {
		f |= isa.FlagZF
	}
	m.CPU.Flags = f
}

// logic16 sets flags for a bitwise result (clears CF/OF) and returns it.
func (m *Machine) logic16(v uint16) uint16 {
	m.setZS(v)
	m.CPU.Flags = m.CPU.Flags.Without(isa.FlagCF | isa.FlagOF)
	return v
}

// logicKeepCF sets ZF/SF and clears OF, preserving CF (shift results).
func (m *Machine) logicKeepCF(v uint16) uint16 {
	m.setZS(v)
	m.CPU.Flags = m.CPU.Flags.Without(isa.FlagOF)
	return v
}

// add16 computes a+b with full flag semantics.
func (m *Machine) add16(a, b uint16) uint16 {
	r := a + b
	m.setZS(r)
	m.CPU.Flags = m.CPU.Flags.
		Set(isa.FlagCF, r < a).
		Set(isa.FlagOF, (a^r)&(b^r)&0x8000 != 0)
	return r
}

// sub16 computes a-b with full flag semantics (also used by cmp).
func (m *Machine) sub16(a, b uint16) uint16 {
	r := a - b
	m.setZS(r)
	m.CPU.Flags = m.CPU.Flags.
		Set(isa.FlagCF, a < b).
		Set(isa.FlagOF, (a^b)&(a^r)&0x8000 != 0)
	return r
}
