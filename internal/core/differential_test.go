package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ssos/internal/dev"
	"ssos/internal/isa"
	"ssos/internal/mem"
	"ssos/internal/obs"
)

// The engine differential harness: a superblock-engine machine (the
// default) and a reference-interpreter machine (SetDecodeCache(false))
// are driven in lockstep — same guest, same randomized initial
// configuration, same injected faults at the same steps — and must
// agree on every observable. This is the soundness argument for the
// fast path made executable: from ANY initial configuration, under
// active fault injection, serving a block entry decoded earlier must be
// bit-identical to re-decoding from memory. Stats compare through
// Arch(): the Block* counters are engine telemetry.

// diffPair is one lockstep pair of systems.
type diffPair struct {
	fast, slow *System
	colF, colS *obs.Collector
}

func newDiffPair(t *testing.T, cfg Config) *diffPair {
	t.Helper()
	p := &diffPair{
		fast: MustNew(cfg),
		slow: MustNew(cfg),
		colF: obs.NewCollector(),
		colS: obs.NewCollector(),
	}
	p.slow.M.SetDecodeCache(false)
	p.fast.Instrument(p.colF)
	p.slow.Instrument(p.colS)
	return p
}

// each applies the same mutation to both systems.
func (p *diffPair) each(f func(s *System)) {
	f(p.fast)
	f(p.slow)
}

// pokeBoth writes the same byte to the same address on both buses.
func (p *diffPair) pokeBoth(addr uint32, v byte) {
	p.fast.M.Bus.PokeRAM(addr, v)
	p.slow.M.Bus.PokeRAM(addr, v)
}

// countdown is one clock device's countdown register and its period.
type countdown struct {
	counter *uint32
	period  uint32
}

// countdowns lists the countdown registers of every ticking device on
// s, in a fixed order.
func countdowns(s *System) []countdown {
	var cs []countdown
	if w := s.Watchdog; w != nil {
		cs = append(cs, countdown{&w.Counter, w.Period})
	}
	if tm := s.Timer; tm != nil {
		cs = append(cs, countdown{&tm.Counter, tm.Period})
	}
	if c := s.Checkpoint; c != nil {
		cs = append(cs, countdown{&c.Counter, c.Period})
	}
	if w := s.Silence; w != nil {
		cs = append(cs, countdown{&w.Counter, w.SilenceLimit})
	}
	return cs
}

// nextFire is the fewest ticks any of s's devices counts down before it
// acts, or -1 without devices: a batch of nextFire steps ends just
// before a fire.
func nextFire(s *System) int {
	q := -1
	for _, c := range countdowns(s) {
		if n := int(*c.counter); q < 0 || n < q {
			q = n
		}
	}
	return q
}

// devState flattens every device register and counter of s.
func devState(s *System) []uint64 {
	var st []uint64
	if w := s.Watchdog; w != nil {
		st = append(st, uint64(w.Counter), w.Fires)
	}
	if tm := s.Timer; tm != nil {
		st = append(st, uint64(tm.Counter), tm.Fires)
	}
	if c := s.Checkpoint; c != nil {
		st = append(st, uint64(c.Counter), c.Snapshots, c.Restores)
	}
	if w := s.Silence; w != nil {
		st = append(st, uint64(w.Counter), w.Fires)
	}
	return st
}

// injectSame applies one identical random fault to both machines. The
// menu mirrors the fault package's corruption classes but is applied
// symmetrically, which a per-machine Injector cannot do.
func (p *diffPair) injectSame(rng *rand.Rand) {
	mf, ms := p.fast.M, p.slow.M
	switch rng.Intn(8) {
	case 0: // RAM bit flip — the classic transient fault
		a := uint32(rng.Intn(mem.AddrSpace))
		v := p.fast.M.Bus.Peek(a) ^ (1 << uint(rng.Intn(8)))
		p.pokeBoth(a, v)
	case 1: // burst of byte corruptions
		for i := 0; i < 16; i++ {
			p.pokeBoth(uint32(rng.Intn(mem.AddrSpace)), byte(rng.Intn(256)))
		}
	case 2:
		v := uint16(rng.Intn(1 << 16))
		mf.CPU.IP, ms.CPU.IP = v, v
	case 3:
		r := isa.SReg(rng.Intn(int(isa.NumSRegs)))
		v := uint16(rng.Intn(1 << 16))
		mf.CPU.S[r], ms.CPU.S[r] = v, v
	case 4:
		v := isa.Flags(rng.Intn(1 << 16))
		mf.CPU.Flags, ms.CPU.Flags = v, v
	case 5:
		v := uint16(rng.Intn(1 << 16))
		mf.CPU.NMICounter, ms.CPU.NMICounter = v, v
	case 6:
		mf.RaiseNMI()
		ms.RaiseNMI()
	case 7:
		v := rng.Intn(2) == 0
		mf.CPU.Halted, ms.CPU.Halted = v, v
	}
}

// compare asserts that every observable of the pair is identical.
func (p *diffPair) compare(t *testing.T, tag string) {
	t.Helper()
	if p.fast.M.CPU != p.slow.M.CPU {
		t.Fatalf("%s: CPU diverged:\nsuperblock: %+v\n    interp: %+v", tag, p.fast.M.CPU, p.slow.M.CPU)
	}
	if p.fast.M.Stats.Arch() != p.slow.M.Stats.Arch() {
		t.Fatalf("%s: stats diverged:\nsuperblock: %v\n    interp: %v", tag, p.fast.M.Stats, p.slow.M.Stats)
	}
	if df, ds := devState(p.fast), devState(p.slow); !slices.Equal(df, ds) {
		t.Fatalf("%s: device state diverged:\nsuperblock: %v\n    interp: %v", tag, df, ds)
	}
	if !bytes.Equal(p.fast.M.Bus.Snapshot(), p.slow.M.Bus.Snapshot()) {
		t.Fatalf("%s: memory images diverged", tag)
	}
	if !reflect.DeepEqual(p.colF.Events(), p.colS.Events()) {
		t.Fatalf("%s: observability event streams diverged (%d vs %d events)",
			tag, len(p.colF.Events()), len(p.colS.Events()))
	}
	consoles := func(s *System) []*dev.Console {
		return append([]*dev.Console{s.Heartbeat, s.Repairs}, s.ProcBeats...)
	}
	cf, cs := consoles(p.fast), consoles(p.slow)
	for i := range cf {
		if cf[i] == nil {
			continue
		}
		wf, ws := cf[i].Writes(), cs[i].Writes()
		if !reflect.DeepEqual(wf, ws) {
			t.Fatalf("%s: console %d streams diverged (%d vs %d writes)", tag, i, len(wf), len(ws))
		}
	}
}

// TestDecodeCacheDifferential steps block-engine and interpreter
// machines in lockstep, one Step at a time, under continuous fault
// injection, for every transferable
// kernel approach, from both the clean boot state and fully randomized
// RAM + CPU configurations.
func TestDecodeCacheDifferential(t *testing.T) {
	steps := 40000
	trials := 4
	if testing.Short() {
		steps, trials = 8000, 2
	}
	for _, ap := range []Approach{ApproachBaseline, ApproachReinstall, ApproachMonitor} {
		for trial := 0; trial < trials; trial++ {
			p := newDiffPair(t, Config{Approach: ap})
			rng := rand.New(rand.NewSource(int64(9000 + 100*int(ap) + trial)))

			if trial%2 == 1 {
				// Any-state start: identical random soup in every RAM
				// byte (PokeRAM skips ROM on both alike) and a random
				// CPU configuration.
				for a := 0; a < mem.AddrSpace; a++ {
					p.pokeBoth(uint32(a), byte(rng.Intn(256)))
				}
				cpu := p.fast.M.CPU
				for i := range cpu.R {
					cpu.R[i] = uint16(rng.Intn(1 << 16))
				}
				for i := range cpu.S {
					cpu.S[i] = uint16(rng.Intn(1 << 16))
				}
				cpu.IP = uint16(rng.Intn(1 << 16))
				cpu.Flags = isa.Flags(rng.Intn(1 << 16))
				cpu.NMICounter = uint16(rng.Intn(1 << 16))
				p.fast.M.CPU, p.slow.M.CPU = cpu, cpu
			}

			for i := 0; i < steps; i++ {
				if rng.Intn(101) == 0 {
					p.injectSame(rng)
				}
				evF, evS := p.fast.M.Step(), p.slow.M.Step()
				if evF != evS {
					t.Fatalf("approach %v trial %d step %d: event diverged: superblock=%v interp=%v",
						ap, trial, i, evF, evS)
				}
			}
			p.compare(t, ap.String()+"/final")
		}
	}
}

// runBatchConfigs are the systems TestSuperblockDifferentialRunBatches
// drives: the ticker-less baseline plus every approach that registers a
// clock device, covering each device type — the paper's watchdog
// (reinstall, continue, monitor, the scheduler and a mailbox ring on
// it), the checkpointer, the silence watchdog (adaptive) and the
// tickful kernel's timer IRQ.
var runBatchConfigs = []struct {
	name string
	cfg  Config
}{
	{"baseline", Config{Approach: ApproachBaseline}},
	{"reinstall", Config{Approach: ApproachReinstall}},
	{"continue", Config{Approach: ApproachContinue}},
	{"monitor", Config{Approach: ApproachMonitor}},
	{"scheduler", Config{Approach: ApproachScheduler}},
	{"scheduler-mbox-kstate", Config{Approach: ApproachScheduler, Workload: WorkloadMailboxKState}},
	{"checkpoint", Config{Approach: ApproachCheckpoint}},
	{"adaptive", Config{Approach: ApproachAdaptive}},
	{"reinstall-tickful", Config{Approach: ApproachReinstall, TickfulKernel: true}},
}

// TestSuperblockDifferentialRunBatches drives both engines through real
// guest kernels via Run in uneven batches — the only path that
// exercises the turbo lane, block chaining and quiet-tick batching —
// with identical faults injected at batch boundaries, from both the
// clean boot state and fully randomized RAM + CPU configurations. The
// interpreter ticks every device on every step; the block engine skips
// quiet ticks in batches, so batch sizes often land just before, on or
// just past a device fire, and faults corrupt device counters, out-of-
// range values included. One fault randomizes the whole CPU, the NMI
// counter and the halt latch included, as a cpu-blast does. From the
// clean boot state its ip mostly lands in zeroed RAM, and the next
// batch runs a whole watchdog period, as churn runs on after a fault:
// the lane retires nop sleds, halted waits and instructions under an
// NMI the counter holds off for as long as they last. Now and then any
// batch runs a whole period too. The Step-driven suite above covers
// Step's block-engine slot; this one covers what Step cannot reach.
func TestSuperblockDifferentialRunBatches(t *testing.T) {
	batches, trials := 600, 4
	if testing.Short() {
		batches, trials = 150, 2
	}
	for ci, rc := range runBatchConfigs {
		for trial := 0; trial < trials; trial++ {
			p := newDiffPair(t, rc.cfg)
			rng := rand.New(rand.NewSource(int64(31000 + 100*ci + trial)))

			if trial%2 == 1 {
				// Any-state start, identical across the pair.
				for a := 0; a < mem.AddrSpace; a++ {
					p.pokeBoth(uint32(a), byte(rng.Intn(256)))
				}
				cpu := p.fast.M.CPU
				for i := range cpu.R {
					cpu.R[i] = uint16(rng.Intn(1 << 16))
				}
				for i := range cpu.S {
					cpu.S[i] = uint16(rng.Intn(1 << 16))
				}
				cpu.IP = uint16(rng.Intn(1 << 16))
				cpu.Flags = isa.Flags(rng.Intn(1 << 16))
				cpu.NMICounter = uint16(rng.Intn(1 << 16))
				p.fast.M.CPU, p.slow.M.CPU = cpu, cpu
			}

			cdF, cdS := countdowns(p.fast), countdowns(p.slow)
			period := DefaultWatchdogPeriod
			if w := p.fast.Watchdog; w != nil {
				period = int(w.Period)
			}
			for b := 0; b < batches; b++ {
				blasted := false
				if rng.Intn(5) == 0 {
					faults := 8
					if len(cdF) > 0 {
						faults++
					}
					switch rng.Intn(faults) {
					case 0:
						a := uint32(rng.Intn(mem.AddrSpace))
						v := p.fast.M.Bus.Peek(a) ^ (1 << uint(rng.Intn(8)))
						p.each(func(s *System) { s.M.Bus.PokeRAM(a, v) })
					case 1: // land on the live code stream
						a := (uint32(p.fast.M.CPU.S[isa.CS])<<4 +
							uint32(p.fast.M.CPU.IP) + uint32(rng.Intn(16))) & mem.AddrMask
						v := byte(rng.Intn(256))
						p.each(func(s *System) { s.M.Bus.PokeRAM(a, v) })
					case 2:
						v := uint16(rng.Intn(1 << 16))
						p.each(func(s *System) { s.M.CPU.IP = v })
					case 3:
						r := isa.SReg(rng.Intn(int(isa.NumSRegs)))
						v := uint16(rng.Intn(1 << 16))
						p.each(func(s *System) { s.M.CPU.S[r] = v })
					case 4:
						v := isa.Flags(rng.Intn(1 << 16))
						p.each(func(s *System) { s.M.CPU.Flags = v })
					case 5:
						p.each(func(s *System) { s.M.RaiseNMI() })
					case 6:
						v := rng.Intn(2) == 0
						p.each(func(s *System) { s.M.CPU.Halted = v })
					case 7: // cpu-blast: every register and latch at random
						cpu := p.fast.M.CPU
						for i := range cpu.R {
							cpu.R[i] = uint16(rng.Intn(1 << 16))
						}
						for i := range cpu.S {
							cpu.S[i] = uint16(rng.Intn(1 << 16))
						}
						cpu.IP = uint16(rng.Intn(1 << 16))
						cpu.Flags = isa.Flags(rng.Intn(1 << 16))
						cpu.IDTR = uint32(rng.Intn(mem.AddrSpace))
						cpu.NMICounter = uint16(rng.Intn(1 << 16))
						cpu.InNMI = rng.Intn(2) == 0
						cpu.Halted = rng.Intn(2) == 0
						p.fast.M.CPU, p.slow.M.CPU = cpu, cpu
						blasted = trial%2 == 0
					case 8: // corrupt a device counter, often out of range
						d := rng.Intn(len(cdF))
						v := uint32(rng.Intn(int(2*cdF[d].period) + 2))
						*cdF[d].counter, *cdS[d].counter = v, v
					}
				}
				n := rng.Intn(197) + 1
				if f := nextFire(p.fast); f >= 0 && f < 400 && rng.Intn(2) == 0 {
					// Straddle the next fire: stop one short of it, on
					// it, or one or two steps past it.
					n = max(f+rng.Intn(4)-1, 1)
				} else if blasted || rng.Intn(150) == 0 {
					n = period
				}
				p.each(func(s *System) { s.M.Run(n) })
				// Cheap per-batch agreement; full compare at trial end.
				if p.fast.M.CPU != p.slow.M.CPU || !slices.Equal(devState(p.fast), devState(p.slow)) {
					p.compare(t, "batch")
				}
			}
			p.compare(t, rc.name+"/final")
		}
	}
}

// TestDecodeCacheDifferentialSelfModifying pins the hardest staleness
// case deliberately rather than probabilistically: the guest's own
// stores land on top of upcoming instructions (a store to cs:ip+k),
// so a stale block entry would execute the overwritten instruction.
func TestDecodeCacheDifferentialSelfModifying(t *testing.T) {
	p := newDiffPair(t, Config{Approach: ApproachBaseline})
	rng := rand.New(rand.NewSource(4242))
	code := uint32(0x0100) << 4 // default kernel image segment
	for i := 0; i < 30000; i++ {
		if i%7 == 0 {
			// Overwrite a byte right around the current instruction
			// stream of the block-engine machine.
			lin := (uint32(p.fast.M.CPU.S[isa.CS])<<4 + uint32(p.fast.M.CPU.IP) + uint32(rng.Intn(8))) & mem.AddrMask
			p.pokeBoth(lin, byte(rng.Intn(256)))
		}
		if i%13 == 0 {
			p.pokeBoth(code+uint32(rng.Intn(256)), byte(rng.Intn(256)))
		}
		evF, evS := p.fast.M.Step(), p.slow.M.Step()
		if evF != evS {
			t.Fatalf("step %d: event diverged: superblock=%v interp=%v", i, evF, evS)
		}
	}
	p.compare(t, "self-modifying/final")
}
