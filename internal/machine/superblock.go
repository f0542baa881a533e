package machine

import (
	"ssos/internal/isa"
	"ssos/internal/mem"
)

// The superblock engine: batch-validated, threaded dispatch for the
// step loop.
//
// The reference interpreter (execute) pays a byte-wise fetch and a
// decode per instruction. This engine decodes straight-line runs once —
// superblocks, ending at a serialize point (branch/jump/call/ret,
// int/iret, hlt, port I/O, rep movsb, a write to cs; see
// isa.Serializing) — records the set of distinct mem.PageSize-byte
// pages the run's bytes span, validates all their write-generations
// once on block entry, and then executes the run by calling each
// entry's executor (the ops table's function for its opcode, stored at
// build time) directly, never re-decoding in between.
//
// Soundness from ANY configuration is non-negotiable, so a block is a
// transparent batching of N interpreter steps, not a new semantics:
//
//   - One semantics, one skeleton: entries run the same ops executors
//     the interpreter dispatches to, and Step is the only full step
//     skeleton — its instruction-execution slot calls sbExec. The turbo
//     lane (sbTurbo) is the one specialization: it elides skeleton
//     checks that are provably dead — no AfterStep hook, no ticker due
//     (every tick in the batch is quiet, see Ticker), no deliverable
//     pin (none latched, or only an NMI the counter or the stock latch
//     holds off), not halted — and re-establishes them at every block
//     boundary, the only place the executors themselves can violate
//     them (port I/O, hlt, int and iret are serialize points, hence
//     always block-final). Interrupts, resets and halts therefore
//     preempt a block between any two entries, exactly as they preempt
//     the interpreter between any two steps.
//   - Per-entry validation: before an entry runs, the engine checks
//     that the live cs:ip still addresses that entry. The check is
//     (e.ip == c.IP && e.lin == linear(cs, ip)): since cs<<4 ≡ lin−ip
//     (mod 2^20) the pair (lin, ip) determines cs uniquely, so a
//     passing check proves the entry's decoded bytes and precomputed
//     nextIP describe precisely the instruction the interpreter would
//     fetch. Any divergence — an exception taken by the previous entry,
//     a ticker, device or AfterStep hook corrupting registers — fails
//     the compare and bails.
//   - Staleness: the bus write stamp (mem.Bus.WriteStamp) advances on
//     every change to memory anywhere (a store of the value already
//     there changes nothing and moves nothing). While the stamp is
//     unchanged since the block's last validation, the block's bytes
//     are provably unchanged and entries run with zero generation checks;
//     when it moved (a guest store, a fault injection), the engine
//     re-checks the block's span pages against their build-time
//     generations and bails on any mismatch. A store
//     into the current block's own span — self-modifying code — is
//     therefore caught before the next entry runs, and execution
//     resumes on the freshly written bytes.
//
// Bailing is cheap and always available, so every rare case — wrap-
// adjacent fetches, undecodable heads, page-budget overflows — simply
// falls back to the interpreter's byte-wise fetch.

const (
	// sbBits sizes the direct-mapped block table. Block heads are
	// jump targets and fall-through points, a handful per guest, so a
	// small table suffices; the index mixes high linear bits in so
	// same-alignment heads in different regions don't thrash one slot.
	sbBits = 10
	sbSize = 1 << sbBits
	sbMask = sbSize - 1

	// sbMaxLen caps entries per block, keeping rebuild cost (after
	// self-modification) bounded. Dense code fits a whole loop body in
	// one block; slot-padded code (%pad on, 16-byte slots of one
	// instruction and its nops) spans only about 2.5 slots per block.
	// It also bounds the entry indices and nop-run lengths sbEntry
	// stores in a byte.
	sbMaxLen = 32

	// sbMaxPages caps the distinct pages a block's bytes may span.
	// sbMaxLen entries of MaxInstrSize bytes fit in 3 pages; 4 leaves
	// slack while keeping entry validation a tiny fixed loop.
	sbMaxPages = 4
)

// sbEntry is one instruction inside a superblock.
type sbEntry struct {
	fn     opFn   // ops[inst.Op], resolved at build time
	lin    uint32 // linear address of the instruction's first byte
	ip     uint16 // cs-relative offset of the first byte
	nextIP uint16 // sequential successor (ip+size)
	inst   isa.Inst
	nops   uint8 // length of the nop run starting here; 0 unless a nop
	stop   uint8 // index of the first nop entry after this one, else len(ins)
}

// superblock is a straight-line run of decoded instructions plus
// the page-generation evidence that its backing bytes are unchanged.
// An empty ins marks a negative block: the head byte is known not to
// decode (generation-validated like any entry), so entry falls straight
// to the interpreter's exception path without re-attempting a build.
type superblock struct {
	lin    uint32
	ip     uint16
	npages uint8
	pages  [sbMaxPages]uint32
	gens   [sbMaxPages]uint64
	ins    []sbEntry

	// succ caches the block most recently entered after this one
	// exhausted — a monomorphic chain hint that lets the turbo loop
	// follow block→block transitions without re-probing the table. It
	// is only ever a hint: every use re-checks heads (lin, ip, and a
	// positive block) and span freshness, so a stale pointer (the slot
	// was rebuilt for another head, or as a negative block) simply
	// misses.
	succ *superblock
}

// SetDecodeCache selects the execution engine: on (the default) runs
// instructions through the superblock engine, off runs every step
// through the reference interpreter's byte-wise fetch. It is the
// machine's one engine switch. Behaviour is bit-identical either way —
// the differential suites and fuzzers hold the two engines against each
// other — so this exists for those tests and for A/B benchmarking, not
// for correctness control.
func (m *Machine) SetDecodeCache(on bool) {
	if on {
		if m.sblocks == nil {
			m.sblocks = new([sbSize]*superblock)
		}
	} else {
		m.sblocks = nil
		m.sbCur = nil
	}
}

// DecodeCache reports the engine SetDecodeCache selected: true for the
// superblock engine, false for the reference interpreter. A fork
// (Machine.Fork) stays on its source's engine.
func (m *Machine) DecodeCache() bool { return m.sblocks != nil }

// runBatched is Run's loop. With the engine on and no AfterStep hook,
// whenever the step skeleton provably has no work beyond the
// processor's own — no deliverable pin and no ticker due — steps retire
// in batches: through the turbo lane when a block is current, or as
// idle ticks in one go when the processor is halted. Every other step
// is a plain Step. The preconditions are live machine fields re-read
// every iteration, so hooks installed mid-run by tickers or port
// devices take effect on the very next step. Inside the lane, a run of
// slot-padding nops, a nop sled over zero bytes and the ordinary
// iterations of a rep movsb copy retire in bulk, each still one step on
// every counter.
//
// Tickers cap a batch at their smallest Quiet(): up to that many ticks
// only count down registers no instruction can read, so the batch runs
// its instructions first and then Skips the retired count on every
// ticker registered when it began. A ticker registered mid-batch (by a
// block-final port executor) ends the batch at that block boundary and
// receives no skipped ticks. A latched NMI the counter holds off caps
// the batch too (heldBudget). The tick that does more than count down
// runs through Step, which stays the per-tick reference skeleton.
//
// A halted batch of k ticks is k of Step's idle ticks: Steps and
// HaltTicks grow by k and the NMI counter drops by k, saturating at
// zero. No instruction runs, so nothing can latch a pin, register a
// ticker or wake the processor inside it.
//
//ssos:hotpath
func (m *Machine) runBatched(n int) {
	for done := 0; done < n; done++ {
		if m.AfterStep == nil && m.sblocks != nil && (m.sbCur != nil || m.CPU.Halted) {
			k := m.heldBudget(n - done)
			for _, t := range m.tickers {
				if q := int(t.Quiet()); q < k {
					k = q
				}
			}
			if k > 0 {
				nt, start := len(m.tickers), done
				if m.CPU.Halted {
					m.Stats.Steps += uint64(k)
					m.Stats.HaltTicks += uint64(k)
					m.countDownNMI(k)
					done += k
				} else {
					done = m.sbTurbo(m.sbCur, done, done+k, nt)
				}
				if r := uint32(done - start); r != 0 {
					for _, t := range m.tickers[:nt] {
						t.Skip(r)
					}
				}
				if done >= n {
					return
				}
			}
		}
		m.Step()
	}
}

// heldBudget caps a batch of k steps at the steps for which every
// latched pin provably stays undelivered: k with no pin latched; 0 when
// a latched pin is deliverable now, or is not a lone NMI; and with a
// lone NMI that nmiDeliverable refuses, k under the stock latch (only
// an iret clears InNMI, and iret is block-final) or at most NMICounter
// under the counter hardware, whose countdown reaches zero on the last
// of those steps, so the NMI lands on the next one, through Step.
func (m *Machine) heldBudget(k int) int {
	if m.pins == 0 {
		return k
	}
	if m.pins != pinNMI || m.nmiDeliverable() {
		return 0
	}
	if m.Opts.NMICounter {
		return min(k, int(m.CPU.NMICounter))
	}
	return k
}

// countDownNMI applies r ticks' worth of the NMI counter's decrement,
// saturating at zero, as r Steps that deliver no NMI would.
func (m *Machine) countDownNMI(r int) {
	if m.Opts.NMICounter {
		m.CPU.NMICounter = uint16(max(int(m.CPU.NMICounter)-r, 0))
	}
}

// retireBulk counts r lane steps that each retired one instruction
// without a call to its executor: Steps, Instrs and BlockInstrs grow by
// r and the NMI counter drops by r.
func (m *Machine) retireBulk(r int) {
	m.Stats.Steps += uint64(r)
	m.Stats.Instrs += uint64(r)
	m.Stats.BlockInstrs += uint64(r)
	m.countDownNMI(r)
}

// sbTurbo retires consecutive entries of the current block b, one per
// step, starting at step index done and stopping at n, except that a
// nop run, a nop sled or a rep movsb copy retires its steps in bulk.
// Preconditions (checked by runBatched, invariant between block
// boundaries): AfterStep nil, the nt registered tickers quiet for every
// step up to n, no deliverable pin for every step up to n
// (heldBudget), not halted. Each retired step is exactly one Step minus
// its quiet tick (runBatched Skips those afterwards): Stats.Steps, the
// per-entry validation, the entry's executor, the NMI-counter
// decrement, and the trailing AfterStep check; the skeleton's remaining
// checks are dead under the preconditions.
//
// At a block boundary (the block exhausted), the loop keeps going
// without dropping out: the only executors with skeleton-visible side
// effects — port I/O ticking a device that latches a pin or registers a
// ticker, hlt, int, and iret re-arming a held NMI — are serialize
// points and hence block-final, so the preconditions are re-checked
// exactly there (a ticker count other than nt means one was
// registered), the budget is re-capped for a pin latched since
// (heldBudget), and then control chains to the successor block: the
// block itself for a loop back-edge, the cached succ hint, or a table
// probe. Every chained entry revalidates (lin, ip) and span freshness
// just as sbEnter would. An unbuilt or stale successor that starts a
// nop sled, a run of zero bytes at least a block long, is retired
// without a block (nopSled); any other unbuilt, stale or negative
// successor drops back to Step, which rebuilds via sbEnter. A validated nop entry retires
// the rest of its run, up to the budget, in one go (slot padding: a nop
// only moves ip and counts); the continuation run stops at the next nop
// entry so that every run starts at a validated entry. A validated rep
// movsb entry (block-final) with cx > 1 first retires its ordinary
// iterations in bulk (repMovsbBulk). Returns the number of steps done.
func (m *Machine) sbTurbo(b *superblock, done, n, nt int) int {
	c := &m.CPU
	i := m.sbIdx
	for done < n {
		entered := false
		if i >= len(b.ins) {
			// Block boundary: re-establish the skeleton preconditions
			// that a block-final executor may have violated, then chain.
			if c.Halted || len(m.tickers) != nt || m.sblocks == nil {
				break
			}
			if n = done + m.heldBudget(n-done); n == done {
				break
			}
			ip := c.IP
			lin := (uint32(c.S[isa.CS])<<4 + uint32(ip)) & mem.AddrMask
			if b.ip == ip && b.lin == lin {
				// Loop back-edge: re-enter in place; the entry-0 check
				// below revalidates span freshness.
			} else if s := b.succ; s.heads(lin, ip) && m.sbRevalidate(s) {
				b, m.sbCur = s, s
			} else if s := m.sbLookup(lin, ip); s != nil && m.sbRevalidate(s) {
				b.succ = s
				b, m.sbCur = s, s
			} else if r := m.nopSled(lin, ip, n-done); r != 0 {
				done += r
				continue // the cursor stays past b's end: chain again from there
			} else {
				break // unbuilt, stale or negative successor: back to Step
			}
			i = 0
			entered = true
		}
		e := &b.ins[i]
		// Full entry validation: (lin, ip) pins the live configuration
		// to this exact entry, the stamp pins the block's bytes.
		if !(e.ip == c.IP &&
			e.lin == (uint32(c.S[isa.CS])<<4+uint32(c.IP))&mem.AddrMask &&
			(*m.busStamp == m.sbStamp || m.sbRevalidate(b))) {
			if !entered {
				m.Stats.BlockBails++
			}
			m.sbCur = nil
			break
		}
		if entered {
			m.Stats.Blocks++
		}
		if e.nops != 0 {
			// Slot padding: retire the run's nops up to the budget in
			// one go. A nop stores nothing, so the stamp just validated
			// holds for the whole run; the entry after it revalidates
			// above, and a run the budget cuts leaves the cursor on the
			// nop whose ip is the live IP.
			r := min(int(e.nops), n-done)
			c.IP = b.ins[i+r-1].nextIP
			m.retireBulk(r)
			i += r
			done += r
			continue
		}
		if e.inst.Op == isa.OpRepMovsb && c.R[isa.CX] > 1 {
			// A copy in progress: retire its ordinary iterations in
			// bulk. What remains — the final iteration, a store the
			// executor must refuse or count, a store into this block's
			// span — runs through the entry's executor below, and the
			// next entry revalidates the block as after any store.
			done += m.repMovsbBulk(b, n-done)
			if done >= n {
				// The cursor an iteration leaves behind: past the
				// block-final entry, ip still on it.
				m.sbIdx = i + 1
				return done
			}
		}
		// Continuation run. After a validated entry completes with
		// EventInstr, the (lin, ip) compare is provably redundant for
		// the next entry: a non-final executor's only normal exit sets
		// IP = nextIP (the opFn contract), which the builder laid out
		// as the next entry's ip; branches and cs writes are block-
		// final; and under the turbo preconditions nothing else runs
		// between entries. Only the write stamp — self-modifying
		// stores, DMA — still needs re-checking per step. The run ends
		// at the next nop entry, which the outer loop retires in bulk.
		stop := int(e.stop)
		for {
			m.Stats.Steps++
			m.Stats.BlockInstrs++
			ev := e.fn(m, &e.inst, e.nextIP)
			i++
			done++
			// ev is never EventNMI here (executors return EventInstr or
			// an exception), so Step's "except on the delivering tick"
			// guard is vacuously true.
			if m.Opts.NMICounter && c.NMICounter > 0 {
				c.NMICounter--
			}
			if m.AfterStep != nil {
				// Installed by this very entry (a block-final port
				// device): Step would invoke it on the installing step
				// already.
				m.AfterStep(m, ev)
				m.sbIdx = i
				return done
			}
			if ev != EventInstr {
				// Exception: full-path checks (halt, diverged pc) next step.
				m.sbIdx = i
				return done
			}
			if done >= n || i >= stop {
				break // budget, nop run or boundary: the outer loop handles all three
			}
			e = &b.ins[i]
			if *m.busStamp != m.sbStamp && !m.sbRevalidate(b) {
				m.Stats.BlockBails++
				m.sbCur = nil
				m.sbIdx = i
				return done
			}
		}
	}
	m.sbIdx = i
	return done
}

// repMovsbBulk retires up to budget iterations of the validated rep
// movsb entry that is the turbo lane's current entry in b, never its
// final one (cx stays at least 1), and returns how many it retired.
// Each iteration is exactly what opRepMovsb does for one tick — load
// ds:si, StoreByte it to es:di, step si and di per DF with 16-bit wrap,
// decrement cx — and counts as one lane step: Steps, Instrs and
// BlockInstrs grow by one and the NMI counter drops by one, saturating
// at zero, all applied in aggregate. Under the lane's preconditions no
// pin, hook, ticker or halt can intervene between iterations, so the
// segment bases, DF and the window's activity are read once.
//
// It stops before an iteration the executor treats specially — a
// destination in ROM (the policy's #GP and ROMWriteCount) or one the
// memory-protection window refuses — and before one that stores into a
// page of b's span, so that store goes through the executor and b is
// revalidated before its bytes are trusted again.
//
// The iterations move in chunks, one mem.Bus.CopyForward each. The
// machine clamps a chunk to what the CPU side allows — the budget, the
// 16-bit wrap of si and di, and the window's end — and checks the
// window and the span once per chunk; the bus clamps it to what memory
// allows — dst's page, the top of the address space, the first ROM
// byte, and the overlap of a source just below its destination — and
// moves it with one compare and one copy, exactly as the chunk's byte
// stores would. A backward copy (DF set) moves one byte per chunk.
func (m *Machine) repMovsbBulk(b *superblock, budget int) int {
	c := &m.CPU
	bus := m.Bus
	n := min(budget, int(c.R[isa.CX])-1)
	ds := uint32(c.S[isa.DS]) << 4
	es := uint32(c.S[isa.ES]) << 4
	back := c.Flags.Has(isa.FlagDF)
	delta := uint16(1)
	if back {
		delta = 0xFFFF
	}
	guarded := m.windowActive()
	wend := uint32(c.WP)<<4 + WPWindowSize - 1 // one past the window's last admissible byte
	si, di := c.R[isa.SI], c.R[isa.DI]
	k := 0
	for k < n {
		dst := (es + uint32(di)) & mem.AddrMask
		if guarded && !m.inWindow(dst) || b.spans(dst>>mem.PageShift) {
			break
		}
		l := uint32(1)
		if !back {
			l = min(uint32(n-k), 0x10000-uint32(si), 0x10000-uint32(di))
			if guarded {
				l = min(l, wend-dst)
			}
		}
		if l = bus.CopyForward(dst, ds+uint32(si), l); l == 0 {
			break // dst is ROM
		}
		si += delta * uint16(l)
		di += delta * uint16(l)
		k += int(l)
	}
	c.R[isa.SI], c.R[isa.DI] = si, di
	c.R[isa.CX] -= uint16(k)
	m.retireBulk(k)
	return k
}

// nopSled retires, up to budget steps, the run of nops (zero bytes) at
// cs:ip, whose linear address is lin, and returns how many it retired:
// the turbo lane's chain miss onto a zero byte. After a fault sends ip
// into zeroed RAM, such a sled can run for a whole watchdog period, and
// decoding it into blocks of sbMaxLen nops, each run once, would make
// block building the engine's largest cost. A run shorter than a block
// that ends on a non-zero byte is slot padding instead: it returns 0,
// and the block Step builds over the padding and the code after it is
// chained through the succ hint on every later pass, which costs less
// than a table miss and a scan per pass.
//
// Each of the r nops is one lane step, exactly as through the
// interpreter: fetch the byte at cs:ip, find a nop, set ip to ip+1 and
// count the instruction. Under the lane's preconditions nothing acts
// between them (no pin, hook, due tick or halt), and a nop stores
// nothing, so the bytes read once up front are the bytes each step
// would fetch. The run stops at the first non-zero byte, at the budget,
// before ip 0xFFFF (that nop wraps ip and goes through Step) and at
// the top of the address space (mem.Bus.ZeroRun), where the lane
// chains again from linear address 0.
func (m *Machine) nopSled(lin uint32, ip uint16, budget int) int {
	n := min(max(budget, sbMaxLen), 0xFFFF-int(ip))
	r := int(m.Bus.ZeroRun(lin, uint32(n)))
	if r < min(n, sbMaxLen) {
		return 0
	}
	r = min(r, budget)
	m.CPU.IP = ip + uint16(r)
	m.retireBulk(r)
	return r
}

// sbExec is Step's instruction-execution slot when the engine is on:
// the current block's next entry if it provably matches the live
// configuration, else a freshly entered (or rebuilt) block at cs:ip,
// else one interpreter instruction.
func (m *Machine) sbExec() Event {
	if b := m.sbCur; b != nil {
		i := m.sbIdx
		if i < len(b.ins) {
			e := &b.ins[i]
			c := &m.CPU
			if e.ip == c.IP &&
				e.lin == (uint32(c.S[isa.CS])<<4+uint32(c.IP))&mem.AddrMask &&
				(*m.busStamp == m.sbStamp || m.sbRevalidate(b)) {
				m.sbIdx = i + 1
				m.Stats.BlockInstrs++
				return e.fn(m, &e.inst, e.nextIP)
			}
			m.Stats.BlockBails++
		}
		m.sbCur = nil
	}
	return m.sbEnter()
}

// sbRevalidate compares every span page's current generation with its
// build-time value: true means the block's bytes are provably the bytes
// it was built from, and refreshes the stamp snapshot so later entries
// take the one-compare path again. Writes outside the span (the common
// case: the guest's own data stores) cost exactly this check; writes
// inside it fail it.
func (m *Machine) sbRevalidate(b *superblock) bool {
	gens := m.pageGens
	for i := uint8(0); i < b.npages; i++ {
		if gens[b.pages[i]] != b.gens[i] {
			return false
		}
	}
	m.sbStamp = *m.busStamp
	return true
}

// sbLookup probes the block table for a built, positive block headed at
// (lin, ip); nil means miss, head mismatch or negative block, all of
// which the caller routes to the full path. Wrap-adjacent live heads
// need no explicit guard: built heads always satisfy the wrap guards,
// so a wrap-adjacent ip can never match a stored one.
func (m *Machine) sbLookup(lin uint32, ip uint16) *superblock {
	if b := m.sblocks[(lin^lin>>sbBits)&sbMask]; b.heads(lin, ip) {
		return b
	}
	return nil
}

// heads reports whether b is a usable successor at (lin, ip): a built,
// positive block headed there. It is the one check for both chaining
// paths, the succ hint and the table probe. sbBuild rebuilds a table
// slot in place, so a hint can point at a block that has since turned
// negative at the same head; such a block has no entry to run.
func (b *superblock) heads(lin uint32, ip uint16) bool {
	return b != nil && b.lin == lin && b.ip == ip && len(b.ins) != 0
}

// sbEnter looks up (or builds) the superblock headed at cs:ip,
// validates its span, and executes its first entry. Wrap-adjacent
// configurations fall back to the interpreter's byte-wise path, and
// negative blocks to its exception path.
func (m *Machine) sbEnter() Event {
	c := &m.CPU
	ip := c.IP
	lin := (uint32(c.S[isa.CS])<<4 + uint32(ip)) & mem.AddrMask
	if ip > 0x10000-isa.MaxInstrSize || lin > mem.AddrSpace-isa.MaxInstrSize {
		return m.execute()
	}
	idx := (lin ^ lin>>sbBits) & sbMask
	b := m.sblocks[idx]
	if b == nil || b.lin != lin || b.ip != ip || !m.sbRevalidate(b) {
		b = m.sbBuild(b, lin, ip)
		m.sblocks[idx] = b
		m.sbStamp = *m.busStamp
	}
	if len(b.ins) == 0 {
		return m.execute()
	}
	m.sbCur = b
	m.sbIdx = 1
	m.Stats.Blocks++
	m.Stats.BlockInstrs++
	e := &b.ins[0]
	return e.fn(m, &e.inst, e.nextIP)
}

// sbBuild (re)builds the superblock headed at lin (== linear(cs, ip)),
// reusing the evicted block's entry storage when there is one. The
// caller has already established that the head passes the wrap guards.
//
//ssos:alloc-ok cold build path: allocates the block and its entry slice once per (re)build, amortized across every later entry
func (m *Machine) sbBuild(b *superblock, lin uint32, ip uint16) *superblock {
	if b == nil {
		b = &superblock{ins: make([]sbEntry, 0, sbMaxLen)}
	} else {
		b.ins = b.ins[:0]
	}
	b.lin, b.ip, b.npages, b.succ = lin, ip, 0, nil
	for len(b.ins) < sbMaxLen {
		if ip > 0x10000-isa.MaxInstrSize || lin > mem.AddrSpace-isa.MaxInstrSize {
			break // successor needs the byte-wise wrap path
		}
		var window [isa.MaxInstrSize]byte
		in, size, ok := isa.Decode(m.Bus.View(lin, window[:]))
		if !ok {
			if len(b.ins) == 0 {
				// Negative block: the head does not decode. Span exactly
				// the bytes the verdict depends on (the isa.InstLen
				// cacheability contract).
				span := isa.InstLen(m.Bus.LoadByte(lin))
				if span == 0 {
					span = 1
				}
				b.addSpan(lin, uint32(span))
			}
			break
		}
		if !b.addSpan(lin, uint32(size)) {
			break // page budget exhausted; end the block before this instruction
		}
		b.ins = append(b.ins, sbEntry{
			fn:     ops[in.Op],
			lin:    lin,
			ip:     ip,
			nextIP: ip + uint16(size),
			inst:   in,
		})
		if sbEndsBlock(&in) {
			break
		}
		ip += uint16(size)
		lin += uint32(size)
	}
	// Nop runs and continuation stops, in one backward pass.
	stop, run := len(b.ins), 0
	for i := len(b.ins) - 1; i >= 0; i-- {
		e := &b.ins[i]
		e.stop = uint8(stop)
		if e.inst.Op == isa.OpNop {
			run++
			stop = i
		} else {
			run = 0
		}
		e.nops = uint8(run)
	}
	gens := m.pageGens
	for i := uint8(0); i < b.npages; i++ {
		b.gens[i] = gens[b.pages[i]]
	}
	return b
}

// addSpan records the pages of [lin, lin+size) in the block's span,
// reporting false when the page budget would overflow.
func (b *superblock) addSpan(lin, size uint32) bool {
	for p := lin >> mem.PageShift; p <= (lin+size-1)>>mem.PageShift; p++ {
		if b.spans(p) {
			continue
		}
		if int(b.npages) == len(b.pages) {
			return false
		}
		b.pages[b.npages] = p
		b.npages++
	}
	return true
}

// spans reports whether page p is one of the block's span pages.
func (b *superblock) spans(p uint32) bool {
	for _, q := range b.pages[:b.npages] {
		if q == p {
			return true
		}
	}
	return false
}

// sbEndsBlock reports whether the decoded instruction must be the last
// entry of its block: any isa-level serialize point, plus any instance
// that writes cs (retargeting the code stream), which is an operand
// property the isa table cannot classify.
func sbEndsBlock(in *isa.Inst) bool {
	if in.Op.Serializing() {
		return true
	}
	switch in.Op {
	case isa.OpMovSR, isa.OpMovSM, isa.OpPopS:
		return isa.SReg(in.R1) == isa.CS
	}
	return false
}
