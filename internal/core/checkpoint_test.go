package core

import (
	"bytes"
	"testing"

	"ssos/internal/guest"
)

// nopOutHeartbeat overwrites the kernel's `out HEARTBEAT_PORT, ax`
// instruction in RAM with nops: a silent code corruption that stops
// the observable behaviour without raising any exception. Returns
// false if the pattern was not found.
func nopOutHeartbeat(s *System) bool {
	pattern := []byte{0x70, guest.PortHeartbeat} // out imm8 encoding
	code := s.Kernel.Prog.Code
	idx := bytes.Index(code, pattern)
	if idx < 0 {
		return false
	}
	base := uint32(guest.OSSeg) << 4
	s.M.Bus.PokeRAM(base+uint32(idx), 0x00)
	s.M.Bus.PokeRAM(base+uint32(idx)+1, 0x00)
	return true
}

func TestCheckpointSystemBootsAndRollsBack(t *testing.T) {
	s := MustNew(Config{Approach: ApproachCheckpoint})
	s.Run(200000)
	if s.Heartbeat.Total() < 100 {
		t.Fatalf("beats: %d", s.Heartbeat.Total())
	}
	if s.Checkpoint.Snapshots == 0 {
		t.Fatal("no snapshots taken")
	}
	if s.Checkpoint.Restores == 0 {
		t.Fatal("no rollbacks performed")
	}
	if s.Checkpoint.Period != s.Cfg.WatchdogPeriod*2/3 {
		t.Fatalf("default checkpoint period: %d", s.Checkpoint.Period)
	}
}

func TestCheckpointRecoversFaultBeforeSnapshot(t *testing.T) {
	// A fault whose rollback arrives before the next snapshot is
	// recovered: the restored snapshot predates the corruption.
	s := MustNew(Config{Approach: ApproachCheckpoint})
	s.Run(100000)
	// Snapshots land every 20000 (at 20k, 40k, ...); watchdog at 30k
	// multiples. Fault at 101000: next watchdog 120000, next snapshot
	// 120000 — tick order runs the watchdog first and the CPU performs
	// the restore a few steps after the snapshot... choose a phase
	// where the rollback (120000) precedes the snapshot (140000? no).
	// Simplest deterministic approach: snapshot NOW via the device,
	// then corrupt, then force rollback via the device, mirroring a
	// lucky phase.
	s.Checkpoint.Out(guest.PortCheckpoint, 2) // snapshot (clean)
	if !nopOutHeartbeat(s) {
		t.Fatal("heartbeat out instruction not found")
	}
	s.Checkpoint.Out(guest.PortCheckpoint, 1) // rollback
	faultStep := s.Steps()
	s.Run(300000)
	if _, ok := s.Spec().RecoveredAfter(s.Heartbeat.Writes(), faultStep, 10); !ok {
		t.Fatal("rollback to a clean snapshot should recover")
	}
}

func TestCheckpointCannotRecoverSnapshottedCorruption(t *testing.T) {
	// The E9 headline (and the paper's related-work point): corruption
	// that survives until a snapshot is checkpointed and then restored
	// forever. The same fault is fully recovered by approaches 1 and 2.
	s := MustNew(Config{Approach: ApproachCheckpoint})
	s.Run(100000)
	if !nopOutHeartbeat(s) {
		t.Fatal("heartbeat out instruction not found")
	}
	s.Checkpoint.Out(guest.PortCheckpoint, 2) // corruption gets checkpointed
	faultStep := s.Steps()
	s.Run(600000)
	if _, ok := s.Spec().RecoveredAfter(s.Heartbeat.Writes(), faultStep, 10); ok {
		t.Fatal("checkpointing recovered a snapshotted corruption?!")
	}

	for _, a := range []Approach{ApproachReinstall, ApproachMonitor} {
		s2 := MustNew(Config{Approach: a})
		s2.Run(100000)
		if !nopOutHeartbeat(s2) {
			t.Fatal("heartbeat out instruction not found")
		}
		fs := s2.Steps()
		s2.Run(600000)
		if _, ok := s2.Spec().RecoveredAfter(s2.Heartbeat.Writes(), fs, 10); !ok {
			t.Fatalf("%v should recover the same fault (it reinstalls from ROM)", a)
		}
	}
}

func TestCheckpointRollbackRewindsCounter(t *testing.T) {
	// Rollback semantics: the heartbeat counter rewinds to its
	// snapshot value — work since the snapshot is lost (unlike the
	// monitor, which preserves it).
	s := MustNew(Config{Approach: ApproachCheckpoint, ConsoleCap: 100000})
	s.Run(400000)
	w := s.Heartbeat.Writes()
	rewinds := 0
	for i := 1; i < len(w); i++ {
		if w[i].Value < w[i-1].Value && w[i].Value != guest.HeartbeatStart {
			rewinds++
		}
	}
	if rewinds == 0 {
		t.Fatal("no rollback rewinds observed")
	}
}
