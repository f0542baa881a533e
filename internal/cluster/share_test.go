package cluster

import (
	"bytes"
	"testing"

	"ssos/internal/core"
	"ssos/internal/guest"
)

// machines counts the distinct machines the cluster's replicas run on.
func machines(c *Cluster) int {
	seen := map[*host]bool{}
	for _, r := range c.replicas {
		seen[r.host] = true
	}
	return len(seen)
}

// A fleet booted together is one lineage: every epoch of a quiet
// 5-replica cluster steps one machine, once.
func TestQuietFleetStepsOneMachine(t *testing.T) {
	c := MustNew(Config{Replicas: 5, Approach: core.ApproachReinstall, Seed: 1})
	for e := 1; e <= 4; e++ {
		c.Run(1)
		if n := machines(c); n != 1 {
			t.Fatalf("epoch %d: %d machines for 5 lockstep replicas, want 1", e, n)
		}
		if got, want := c.replicas[0].host.sys.Steps(), uint64(e*DefaultEpochSteps); got != want {
			t.Fatalf("epoch %d: shared machine at step %d, want %d (stepped once per epoch)", e, got, want)
		}
	}
}

// A replica struck mid-epoch splits onto a clone before the strike, so
// exactly the struck replicas hold machines of their own; once evicted
// they rejoin their donor's machine, and the fleet is one machine again.
func TestStrikeSplitsThenRejoinShares(t *testing.T) {
	c := MustNew(Config{
		Replicas: 5,
		Approach: core.ApproachReinstall,
		Seed:     11,
		Schedule: []Strike{
			{Epoch: 1, Replica: 1, Offset: 7000, Mode: ModeOSBlast},
			{Epoch: 1, Replica: 3, Offset: 19000, Mode: ModeOSBlast},
		},
	})
	c.Run(1)
	shared := c.replicas[0].host

	strikes := c.strikesFor(c.epoch)
	outputs := c.stepEpoch(strikes)
	for _, r := range c.replicas {
		struck := r.id == 1 || r.id == 3
		if struck && (r.host == shared || len(r.host.members) != 1) {
			t.Errorf("struck replica %d is not alone on a clone", r.id)
		}
		if !struck && r.host != shared {
			t.Errorf("unstruck replica %d left the shared machine", r.id)
		}
	}
	if n := machines(c); n != 3 {
		t.Errorf("%d machines after two strikes, want 3", n)
	}
	c.closeEpoch(strikes, outputs)

	if ev := c.Stats[1].Evicted; len(ev) != 2 || ev[0] != 1 || ev[1] != 3 {
		t.Fatalf("strike epoch evicted %v, want [1 3]", ev)
	}
	for _, r := range c.replicas {
		if r.host != shared {
			t.Errorf("replica %d did not rejoin its donor's machine", r.id)
		}
	}
	c.Run(1)
	if st := c.Stats[2]; st.Agree != 5 || machines(c) != 1 {
		t.Errorf("epoch after rejoin: agree %d on %d machines, want 5 on 1", st.Agree, machines(c))
	}

	// An on-demand strike between epochs splits the same way.
	if err := c.Strike(4, ModeOSBlast); err != nil {
		t.Fatal(err)
	}
	if r := c.replicas[4]; r.host == shared || r.inj.M != r.host.sys.M || machines(c) != 2 {
		t.Errorf("on-demand strike: replica 4 shares a machine or strikes another (%d machines)", machines(c))
	}

	// Strikes due at one offset apply in replica order. Replica 3
	// rejoins the shared machine after 4; replica 0 splits off with a
	// bitflip it survives and 1 and 2 rejoin it, which leaves the shared
	// machine to 4 and 3, in that order. Struck at one offset, 3 splits
	// off first and 4 takes its strike in place.
	c = MustNew(Config{
		Replicas: 5,
		Approach: core.ApproachReinstall,
		Seed:     11,
		Schedule: []Strike{
			{Epoch: 1, Replica: 3, Offset: 19000, Mode: ModeOSBlast},
			{Epoch: 2, Replica: 0, Offset: 5000, Mode: ModeBitflip},
			{Epoch: 2, Replica: 1, Offset: 5000, Mode: ModeOSBlast},
			{Epoch: 2, Replica: 2, Offset: 5000, Mode: ModeOSBlast},
			{Epoch: 3, Replica: 3, Offset: 8000, Mode: ModeOSBlast},
			{Epoch: 3, Replica: 4, Offset: 8000, Mode: ModeOSBlast},
		},
	})
	c.Run(3)
	shared = c.replicas[4].host
	if m := shared.members; len(m) != 2 || m[0] != c.replicas[4] || m[1] != c.replicas[3] {
		t.Fatalf("before the tie: shared machine holds %d replicas, want 4 then 3", len(m))
	}
	c.stepEpoch(c.strikesFor(c.epoch))
	if c.replicas[4].host != shared || c.replicas[3].host == shared {
		t.Errorf("same-offset strikes on replicas 3 and 4: 3 must split off first and 4 take its strike in place")
	}
}

// Sharing follows lineage, never digests. A bitflip outside the
// digested OS-state regions leaves the struck replica agreeing with
// its peers and unevicted, yet its RAM differs from theirs: it must
// keep its own machine. A design that merged replicas on equal
// digests would hand it back the unflipped RAM.
func TestEqualDigestsDoNotShare(t *testing.T) {
	c := MustNew(Config{
		Replicas: 5,
		Approach: core.ApproachReinstall,
		Seed:     3,
		Schedule: []Strike{{Epoch: 1, Replica: 2, Offset: 12000, Mode: ModeBitflip}},
	})
	c.Run(1)
	flipped := c.replicas[2]
	c.Run(1)
	if len(flipped.inj.Log) != 1 {
		t.Fatalf("replica 2 took %d faults, want 1", len(flipped.inj.Log))
	}
	addr := flipped.inj.Log[0].Addr
	osBase, stack := uint32(guest.OSSeg)<<4, uint32(guest.StackSeg)<<4
	if addr >= osBase && addr < osBase+guest.ImageSize || addr >= stack && addr < stack+0x1000 {
		t.Fatalf("bitflip at %#x landed in a digested region; pick another seed", addr)
	}
	for e := 1; e < 4; e++ {
		if e > 1 {
			c.Run(1)
		}
		st := c.Stats[e]
		if st.Agree != 5 || len(st.Evicted) != 0 {
			t.Fatalf("epoch %d: agree %d evicted %v, want 5 and none", e, st.Agree, st.Evicted)
		}
		peer := c.replicas[0].host.sys.M.Bus
		own := flipped.host.sys.M.Bus
		if flipped.host == c.replicas[0].host || machines(c) != 2 {
			t.Fatalf("epoch %d: the flipped replica shares its peers' machine (%d machines)", e, machines(c))
		}
		if own.Peek(addr) == peer.Peek(addr) || bytes.Equal(own.Snapshot(), peer.Snapshot()) {
			t.Fatalf("epoch %d: the flipped replica's RAM equals its peers'", e)
		}
	}
}
