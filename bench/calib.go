package main

import "time"

// Host speed. The reference host is a shared VM whose speed drifts by
// 10% to 2x, in episodes of seconds to minutes: its neighbours come and
// go, on the same cores as its virtual CPUs. No statistic inside one run
// removes a drift that lasts longer than the run. So every timed piece
// of work — each round, each set-up — is bracketed by a calibration: a
// fixed piece of reference work that lives here, in the benchmark, and
// so is the same code on every commit. A timing is reported in
// reference milliseconds: its host time scaled by calibrationMS over the
// mean host time of the calibrations before and after it. A change to
// the program moves the timing and not the calibration, so it shows in
// full; a slower host moves both, and cancels.
//
// The reference work has to slow down as the program does when a
// neighbour shares the core. The simulator's step loop runs at a high
// instruction rate through well-predicted indirect calls, and suffers
// most from a busy sibling thread; code that mostly waits on
// mispredicted branches or cache misses hardly notices one. So the
// reference work is of the first kind: a register machine that runs a
// fixed looping program through a table of handler functions, as the
// superblock engine does, and a loop of independent arithmetic over an
// array. Its state lives in global arrays and it allocates nothing, so
// the calibration leaves the program's heap and GC untouched.

// calibrationMS is the calibration's host time on the reference host
// when it is quiet, so reference milliseconds read close to host
// milliseconds there.
const calibrationMS = 5.0

const (
	calSteps  = 1_000_000 // register machine steps per calibration
	calSweeps = 400       // array loop passes per calibration
)

// calIns is one register machine instruction.
type calIns struct {
	op, a, b, c uint8
	imm         int32
}

// calVM is the register machine: sixteen registers, 64 KB of word
// memory, and a program counter into calProg.
type calVM struct {
	r   [16]uint32
	pc  int
	mem [1 << 14]uint32
}

const calMask = 1<<14 - 1

var (
	calMachine calVM
	calArr     [1 << 13]uint32
	calSink    uint32
)

// calOps are the handlers, one per opcode.
var calOps = [...]func(v *calVM, in *calIns){
	func(v *calVM, in *calIns) { v.r[in.a] = v.r[in.b] + v.r[in.c]; v.pc++ },
	func(v *calVM, in *calIns) { v.r[in.a] = v.r[in.b] - v.r[in.c]; v.pc++ },
	func(v *calVM, in *calIns) { v.r[in.a] = v.r[in.b] ^ v.r[in.c]<<3; v.pc++ },
	func(v *calVM, in *calIns) { v.r[in.a] = v.r[in.b] & v.r[in.c]; v.pc++ },
	func(v *calVM, in *calIns) { v.r[in.a] = uint32(in.imm); v.pc++ },
	func(v *calVM, in *calIns) { v.r[in.a] = v.mem[v.r[in.b]&calMask]; v.pc++ },
	func(v *calVM, in *calIns) { v.mem[v.r[in.b]&calMask] = v.r[in.a]; v.pc++ },
	func(v *calVM, in *calIns) { v.r[in.a] += uint32(in.imm); v.pc++ },
	func(v *calVM, in *calIns) { // jump by imm while r[a] != r[b]
		if v.r[in.a] != v.r[in.b] {
			v.pc += int(in.imm)
		} else {
			v.pc++
		}
	},
	func(v *calVM, in *calIns) { // jump by imm when r[a] has none of mask c
		if v.r[in.a]&uint32(in.c) == 0 {
			v.pc += int(in.imm)
		} else {
			v.pc++
		}
	},
	func(v *calVM, in *calIns) { v.r[in.a] = v.r[in.b]*2654435761 + v.r[in.c]; v.pc++ },
	func(v *calVM, in *calIns) { v.r[in.a] = v.r[in.b] >> (v.r[in.c] & 15); v.pc++ },
	func(v *calVM, in *calIns) { v.r[in.a] = v.r[in.b]<<1 | v.r[in.b]>>31; v.pc++ },
	func(v *calVM, in *calIns) { v.pc = 0 },
}

// calProg sweeps the memory in two nested loops, folding each word into
// the accumulators and writing a mix of them back.
var calProg = []calIns{
	{op: 4, a: 0, imm: 0},         // 0: i = 0
	{op: 4, a: 1, imm: 64},        // 1: outer limit
	{op: 4, a: 2, imm: 0},         // 2: j = 0
	{op: 4, a: 3, imm: 256},       // 3: inner limit
	{op: 10, a: 4, b: 0, c: 2},    // 4: addr = i*K + j
	{op: 5, a: 5, b: 4},           // 5: x = mem[addr]
	{op: 0, a: 6, b: 6, c: 5},     // 6: acc += x
	{op: 2, a: 7, b: 7, c: 5},     // 7: mix ^= x << 3
	{op: 9, a: 5, c: 4, imm: 3},   // 8: skip 3 when x&4 is 0
	{op: 12, a: 8, b: 8},          // 9: rotate
	{op: 1, a: 9, b: 9, c: 6},     // 10
	{op: 3, a: 10, b: 6, c: 7},    // 11
	{op: 11, a: 11, b: 10, c: 0},  // 12
	{op: 0, a: 11, b: 11, c: 8},   // 13
	{op: 6, a: 11, b: 4},          // 14: mem[addr] = mixed
	{op: 7, a: 2, imm: 1},         // 15: j++
	{op: 8, a: 2, b: 3, imm: -12}, // 16: inner loop
	{op: 7, a: 12, imm: 1},        // 17
	{op: 7, a: 0, imm: 1},         // 18: i++
	{op: 8, a: 0, b: 1, imm: -17}, // 19: outer loop
	{op: 13},                      // 20: restart
}

func init() {
	for i := range calArr {
		calArr[i] = uint32(i) * 2654435761
	}
}

// calibrate runs the reference work once and returns its host time in
// milliseconds.
func calibrate() float64 {
	start := time.Now()
	calSink += calRun(calSteps) + calSweep(calSweeps)
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// calRun steps the register machine.
func calRun(steps int) uint32 {
	for i := 0; i < steps; i++ {
		in := &calProg[calMachine.pc]
		calOps[in.op](&calMachine, in)
	}
	return calMachine.r[6] ^ calMachine.r[7]
}

// calSweep runs four independent accumulations over calArr.
func calSweep(passes int) uint32 {
	var a, b, c, d uint32
	for k := 0; k < passes; k++ {
		for i := 0; i+3 < len(calArr); i += 4 {
			a += calArr[i] ^ b
			b += calArr[i+1] + c>>1
			c ^= calArr[i+2] * 3
			d += calArr[i+3]
			if a&0x100 != 0 {
				d++
			}
		}
	}
	return a + b + c + d
}
