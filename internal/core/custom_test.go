package core

import (
	"testing"

	"ssos/internal/asm"
	"ssos/internal/fault"
	"ssos/internal/guest"
	"ssos/internal/mem"
	"ssos/internal/trace"
)

// customGuestSource is a user-style guest: a Fibonacci pinger that
// re-establishes its segments every iteration (the self-stabilization
// obligation) and beats a sequence counter to a port.
const customGuestSource = `
OS_SEG    equ 0x2000
STACK_SEG equ 0x3000
PING_PORT equ 0x40
SEQ       equ 0x200
FIB_A     equ 0x202
FIB_B     equ 0x204

start:
	mov ax, OS_SEG
	mov ds, ax
	mov ax, STACK_SEG
	mov ss, ax
	mov sp, 0x0806
	mov word [SEQ], 0
	mov word [FIB_A], 0
	mov word [FIB_B], 1
loop_top:
	mov ax, OS_SEG
	mov ds, ax
	; fib step
	mov ax, [FIB_A]
	add ax, [FIB_B]
	mov bx, [FIB_B]
	mov [FIB_A], bx
	mov [FIB_B], ax
	; heartbeat
	mov ax, [SEQ]
	inc ax
	mov [SEQ], ax
	out PING_PORT, ax
	jmp loop_top
`

func buildCustomGuest(t *testing.T) []byte {
	t.Helper()
	p, err := asm.Assemble(customGuestSource)
	if err != nil {
		t.Fatal(err)
	}
	// Round the image up to cover the data area the guest uses.
	img := make([]byte, 0x220)
	copy(img, p.Code)
	return img
}

func TestCustomGuestRunsAndRecovers(t *testing.T) {
	img := buildCustomGuest(t)
	s, err := NewCustom(CustomConfig{Image: img, HeartbeatPort: 0x40})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(100000)
	spec := trace.HeartbeatSpec{Start: 1, MaxGap: 5000, AllowRestart: true}
	w := s.Heartbeat.Writes()
	if len(w) < 1000 {
		t.Fatalf("beats: %d", len(w))
	}
	if v := spec.Violations(w, s.Steps()); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}

	// Destroy the custom guest; Figure 1 restores it.
	inj := fault.NewInjector(s.M, 9)
	inj.RandomizeRegion(mem.Region{Name: "guest", Start: uint32(guest.OSSeg) << 4, Size: uint32(len(img))})
	inj.BlastCPU()
	faultStep := s.Steps()
	s.Run(200000)
	if _, ok := spec.RecoveredAfter(s.Heartbeat.Writes(), faultStep, 10); !ok {
		t.Fatal("custom guest did not recover")
	}
}

func TestCustomConfigValidation(t *testing.T) {
	if _, err := NewCustom(CustomConfig{}); err == nil {
		t.Error("empty image accepted")
	}
	if _, err := NewCustom(CustomConfig{Image: make([]byte, 0x10001)}); err == nil {
		t.Error("oversized image accepted")
	}
	// No heartbeat port: system still works, Heartbeat nil.
	s, err := NewCustom(CustomConfig{Image: buildCustomGuest(t)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Heartbeat != nil {
		t.Error("unexpected console")
	}
	s.Run(1000)
}

func TestCustomDefaultsApplied(t *testing.T) {
	img := buildCustomGuest(t)
	s, err := NewCustom(CustomConfig{Image: img})
	if err != nil {
		t.Fatal(err)
	}
	if s.Cfg.WatchdogPeriod != DefaultWatchdogPeriod {
		t.Errorf("period: %d", s.Cfg.WatchdogPeriod)
	}
	if int(s.M.Opts.NMICounterMax) != len(img)+DefaultNMISlack {
		t.Errorf("nmi max: %d", s.M.Opts.NMICounterMax)
	}
}
