package cluster

import (
	"bytes"
	"testing"

	"ssos/internal/core"
	"ssos/internal/dev"
	"ssos/internal/fault"
)

func TestNewDefaults(t *testing.T) {
	c := MustNew(Config{Approach: core.ApproachReinstall})
	if len(c.replicas) != DefaultReplicas {
		t.Fatalf("replicas = %d, want %d", len(c.replicas), DefaultReplicas)
	}
	if c.Quorum() != DefaultReplicas/2+1 {
		t.Fatalf("quorum = %d", c.Quorum())
	}
	if c.cfg.EpochSteps != DefaultEpochSteps {
		t.Fatalf("epoch steps = %d", c.cfg.EpochSteps)
	}
}

func TestUnsupportedApproachRejected(t *testing.T) {
	for _, a := range []core.Approach{
		core.ApproachPrimitive, core.ApproachScheduler,
		core.ApproachCheckpoint, core.ApproachAdaptive,
	} {
		if _, err := New(Config{Approach: a}); err == nil {
			t.Errorf("approach %v: expected error", a)
		}
	}
}

// New refuses a configuration whose epochs cannot run: a negative
// epoch length would reach the strike schedule's offset draw as a
// negative bound.
func TestNewRejectsNegativeEpochSteps(t *testing.T) {
	for _, cfg := range []Config{
		{Approach: core.ApproachReinstall, EpochSteps: -5},
		{Approach: core.ApproachReinstall, EpochSteps: -5, Faults: ModeOSBlast, Replicas: 3},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v): no error", cfg)
		}
	}
}

// A fault-free fleet stays in full agreement with a legal verdict every
// epoch and never reconfigures: deterministic replicas in lockstep.
func TestFaultFreeLockstep(t *testing.T) {
	for _, a := range []core.Approach{
		core.ApproachBaseline, core.ApproachReinstall,
		core.ApproachContinue, core.ApproachMonitor,
	} {
		c := MustNew(Config{Replicas: 5, Approach: a, Seed: 3})
		c.Run(4)
		for _, st := range c.Stats {
			if st.Agree != 5 || !st.Quorum || !st.Legal {
				t.Errorf("%v epoch %d: agree %d quorum %v legal %v",
					a, st.Epoch, st.Agree, st.Quorum, st.Legal)
			}
		}
		if len(c.Events) != 0 {
			t.Errorf("%v: unexpected reconfigurations: %v", a, c.Events)
		}
	}
}

func TestTally(t *testing.T) {
	out := []epochOutput{
		{digest: 7, legal: true},
		{digest: 9, legal: true},
		{digest: 7, legal: true},
		{digest: 7, legal: true},
		{digest: 8, legal: false},
	}
	v := tally(out, 3)
	if v.digest != 7 || v.agree != 3 || !v.hasQuorum || !v.legal {
		t.Fatalf("tally: %+v", v)
	}
	for _, i := range []int{0, 2, 3} {
		if !v.inWinner(i) {
			t.Errorf("replica %d should be in winner", i)
		}
	}
	if v.inWinner(1) || v.inWinner(4) {
		t.Error("losers reported in winner group")
	}

	// Below quorum: no majority even though a plurality exists.
	v = tally(out[:3], 3)
	if v.hasQuorum || v.legal {
		t.Fatalf("2/3 agreement passed a quorum of 3: %+v", v)
	}

	// A quorum whose own output is illegal is not a legal verdict.
	bad := []epochOutput{{digest: 5, legal: false}, {digest: 5, legal: false}, {digest: 6, legal: true}}
	v = tally(bad, 2)
	if !v.hasQuorum || v.legal {
		t.Fatalf("illegal quorum: %+v", v)
	}

	// Tie-break: equal counts elect the first-seen group.
	tie := []epochOutput{{digest: 2, legal: true}, {digest: 3, legal: true}}
	v = tally(tie, 2)
	if v.digest != 2 || v.hasQuorum {
		t.Fatalf("tie: %+v", v)
	}
}

// A struck replica is evicted the same epoch, rejoins by state
// transfer, and the fleet is back to full agreement the next epoch —
// without the cluster verdict ever leaving legality.
func TestEvictAndRejoin(t *testing.T) {
	c := MustNew(Config{
		Replicas: 5,
		Approach: core.ApproachReinstall,
		Seed:     11,
		Schedule: []Strike{{Epoch: 1, Replica: 2, Offset: 10000, Mode: ModeOSBlast}},
	})
	c.Run(4)
	for _, st := range c.Stats {
		if !st.Legal {
			t.Errorf("epoch %d: verdict illegal", st.Epoch)
		}
	}
	st := c.Stats[1]
	if st.Agree != 4 {
		t.Errorf("strike epoch: agree %d, want 4", st.Agree)
	}
	if len(st.Evicted) != 1 || st.Evicted[0] != 2 {
		t.Errorf("strike epoch evicted %v, want [2]", st.Evicted)
	}
	if len(c.Events) != 1 || c.Events[0].Replica != 2 || c.Events[0].Donor < 0 {
		t.Errorf("events: %v", c.Events)
	}
	for _, st := range c.Stats[2:] {
		if st.Agree != 5 {
			t.Errorf("epoch %d after rejoin: agree %d, want 5", st.Epoch, st.Agree)
		}
	}
}

// The cluster layer stabilizes even a fleet of NON-stabilizing nodes:
// baseline replicas crash forever on a CPU blast, yet the reconfigurator
// reinstalls each victim and the majority keeps the verdict legal.
func TestBaselineFleetStabilizes(t *testing.T) {
	c := MustNew(Config{
		Replicas: 5,
		Approach: core.ApproachBaseline,
		Faults:   ModeCPUBlast,
		Seed:     17,
	})
	c.Run(9)
	s := c.Summary()
	if s.LegalEpochs != s.Epochs {
		t.Errorf("baseline fleet: %d/%d legal epochs", s.LegalEpochs, s.Epochs)
	}
	if s.Evictions == 0 {
		t.Error("expected evictions from the strike schedule")
	}
}

// A beat written on an epoch's last step is stamped with the next
// epoch's start (the step counter advances before the instruction
// runs), so it belongs to the epoch that wrote it. Replicas 1 and 3 of
// this fleet are struck in epoch 29 and rejoined from replica 0; the
// rejoined consoles lack the boundary beat the survivors hold, so a
// voter that also counted it in epoch 30 saw them as divergent and
// evicted them again.
func TestRejoinedReplicasAgreeNextEpoch(t *testing.T) {
	c := MustNew(Config{Replicas: 5, Approach: core.ApproachBaseline, Seed: 1, Faults: ModeOSBlast})
	c.Run(31)
	if ev := c.Stats[29].Evicted; len(ev) != 2 || ev[0] != 1 || ev[1] != 3 {
		t.Fatalf("epoch 29 evicted %v, want [1 3]", ev)
	}
	if st := c.Stats[30]; st.Agree != 5 || len(st.Evicted) != 0 {
		t.Errorf("epoch 30 after rejoin: agree %d, evicted %v; want 5 and none", st.Agree, st.Evicted)
	}
}

// Replicas keep no heartbeat history: the voter judges and digests
// each beat as it is written, so through hundreds of epochs, evictions
// and rejoins included, every replica console holds at most the cap.
func TestReplicaConsolesBounded(t *testing.T) {
	c := MustNew(Config{Replicas: 3, Approach: core.ApproachMonitor, Seed: 2, Faults: ModeOSBlast})
	var most uint64
	for range 600 {
		c.Run(1)
		for _, r := range c.replicas {
			sys := r.host.sys
			most = max(most, sys.Heartbeat.Total())
			for _, con := range []*dev.Console{sys.Heartbeat, sys.Repairs} {
				if n := len(con.Writes()); n > replicaConsoleCap {
					t.Fatalf("epoch %d: replica %d console retains %d of %d writes, cap %d",
						c.Epoch(), r.id, n, con.Total(), replicaConsoleCap)
				}
			}
		}
	}
	if len(c.Events) == 0 || most <= replicaConsoleCap {
		t.Errorf("%d reconfigurations, at most %d beats per console: the cap went untested", len(c.Events), most)
	}
}

// State transfer is a fork: from the fork on, the fork and its donor
// produce identical output and hold identical memory, and a fork costs
// the same allocations whether the donor has written a few pages of RAM
// or, after an all-ram blast, every one.
func TestStateTransferLockstep(t *testing.T) {
	cfg := core.Config{Approach: core.ApproachReinstall}
	donor := core.MustNew(cfg)
	donor.Run(77777)
	fresh := donor.Fork()

	booted, blasted := core.MustNew(cfg), core.MustNew(cfg)
	fault.NewInjector(blasted.M, 1).BlastRAM()
	few := testing.AllocsPerRun(5, func() { booted.Fork() })
	all := testing.AllocsPerRun(5, func() { blasted.Fork() })
	if few != all {
		t.Errorf("Fork allocates %v objects on a fresh machine, %v after an all-ram blast", few, all)
	}

	start := donor.Steps()
	donor.Run(50000)
	fresh.Run(50000)
	if donor.M.CPU != fresh.M.CPU {
		t.Fatalf("CPU diverged:\n donor %v\n fresh %v", &donor.M.CPU, &fresh.M.CPU)
	}
	if !bytes.Equal(donor.M.Bus.Snapshot(), fresh.M.Bus.Snapshot()) {
		t.Fatal("memory diverged")
	}
	dw, fw := donor.Heartbeat.Writes(), fresh.Heartbeat.Writes()
	var dn []uint64
	for _, w := range dw {
		if w.Step >= start {
			dn = append(dn, w.Step<<16|uint64(w.Value))
		}
	}
	var fn []uint64
	for _, w := range fw {
		if w.Step >= start {
			fn = append(fn, w.Step<<16|uint64(w.Value))
		}
	}
	if len(dn) == 0 || len(dn) != len(fn) {
		t.Fatalf("beat counts diverged: donor %d fresh %d", len(dn), len(fn))
	}
	for i := range dn {
		if dn[i] != fn[i] {
			t.Fatalf("beat %d diverged: donor %x fresh %x", i, dn[i], fn[i])
		}
	}
}

func TestParseFaultMode(t *testing.T) {
	for name, want := range map[string]FaultMode{
		"none": ModeNone, "bitflip": ModeBitflip, "os-blast": ModeOSBlast,
		"cpu-blast": ModeCPUBlast, "blast": ModeBlast,
	} {
		got, err := ParseFaultMode(name)
		if err != nil || got != want {
			t.Errorf("ParseFaultMode(%q) = %v, %v", name, got, err)
		}
		if got.String() != name {
			t.Errorf("%v.String() = %q", got, got.String())
		}
	}
	if _, err := ParseFaultMode("nope"); err == nil {
		t.Error("expected error for unknown mode")
	}
}
