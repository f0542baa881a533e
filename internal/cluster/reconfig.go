package cluster

import (
	"fmt"

	"ssos/internal/core"
)

// Event is one reconfiguration action: a replica leaving and rejoining
// the fleet.
type Event struct {
	Epoch   int
	Replica int
	// Reason: "divergent" (digest off the majority), "illegal" (its
	// own heartbeat stream violated the spec), "no-quorum" (joining the
	// largest corroborated group after quorum loss), "majority-illegal"
	// or "no-corroborated-state" (cluster-wide fresh boot).
	Reason string
	// Donor is the replica whose state the evictee adopted on rejoin,
	// or -1 for a from-ROM fresh boot.
	Donor int
	// Trace is the evicted incarnation's flight-recorder dump (its
	// last Config.TraceN executed steps), empty when tracing is off.
	Trace string
}

func (e Event) String() string {
	if e.Donor < 0 {
		return fmt.Sprintf("epoch %d: evict replica %d (%s), reinstall from ROM, fresh boot",
			e.Epoch, e.Replica, e.Reason)
	}
	return fmt.Sprintf("epoch %d: evict replica %d (%s), reinstall from ROM, state transfer from replica %d, rejoin",
		e.Epoch, e.Replica, e.Reason, e.Donor)
}

// reconfigure applies the paper's Section-3 remedy at replica level
// after an epoch's vote: every replica outside the agreed state is
// evicted, reinstalled from the ROM image, and rejoined to the quorum
// by adopting a healthy member's state. It returns the evicted ids.
//
// Three regimes, from mild to catastrophic:
//
//  1. A legal quorum exists: evict everyone outside the winning group;
//     the lowest-id winner donates its state.
//  2. No quorum (or the quorum's own output is illegal), but at least
//     two replicas agree byte-for-byte on a legal epoch output: rebuild
//     the fleet around the largest such corroborated group — soft state
//     survives. A lone legal replica is never trusted: a struck machine
//     whose watchdog reinstalled it mid-epoch looks weakly legal yet
//     runs phase-shifted from the canonical trajectory, and adopting
//     its state fleet-wide would lock the cluster onto that wrong orbit
//     forever (everyone agreeing, nobody right). Corroboration by an
//     independent twin is what rules that out.
//  3. No corroborated legal state anywhere: fresh-boot every replica
//     from ROM. All replicas restart identically, so the next epoch
//     restores a full agreeing quorum — the cluster-level
//     reinstall-and-restart.
func (c *Cluster) reconfigure(epoch int, v vote, outputs []epochOutput) []int {
	if v.hasQuorum && v.legal {
		donor := c.replicas[v.members[v.winner][0]]
		var evicted []int
		for i, r := range c.replicas {
			if v.inWinner(i) {
				continue
			}
			reason := "divergent"
			if !outputs[i].legal {
				reason = "illegal"
			}
			c.evict(epoch, r, donor.host, donor.id, reason)
			evicted = append(evicted, i)
		}
		return evicted
	}

	reason := "no-quorum"
	if v.hasQuorum {
		reason = "majority-illegal"
	}
	// Largest group whose members all produced legal output, provided
	// at least two replicas corroborate it (ties break toward the group
	// containing the lowest replica id, which tally lists first).
	best := -1
	for g, members := range v.members {
		if len(members) < 2 || (best >= 0 && len(members) <= len(v.members[best])) {
			continue
		}
		allLegal := true
		for _, i := range members {
			if !outputs[i].legal {
				allLegal = false
				break
			}
		}
		if allLegal {
			best = g
		}
	}
	if best < 0 {
		// Every replica reboots from ROM onto one fresh machine.
		fresh := c.newHost(core.MustNew(c.sysCfg))
		var evicted []int
		for i, r := range c.replicas {
			c.evict(epoch, r, fresh, -1, "no-corroborated-state")
			evicted = append(evicted, i)
		}
		c.freshBoots++
		return evicted
	}
	donor := c.replicas[v.members[best][0]]
	var evicted []int
	for i, r := range c.replicas {
		if outputs[i].digest == outputs[donor.id].digest {
			continue
		}
		c.evict(epoch, r, donor.host, donor.id, reason)
		evicted = append(evicted, i)
	}
	return evicted
}

// evict reinstalls r from ROM and rejoins it on h (the donor's
// machine, or a fresh one when donor is -1), logging the event. The
// evicted incarnation's flight recorder is dumped before the boot
// replaces it.
func (c *Cluster) evict(epoch int, r *replica, h *host, donor int, reason string) {
	var dump string
	if r.rec != nil {
		dump = r.rec.Dump()
	}
	// The fault ordinal must be read before boot replaces the injector:
	// it keys the eviction to the episode of the evicted incarnation's
	// latest strike.
	fid := uint64(len(r.inj.Log))
	c.boot(r, h)
	c.evictions++
	c.Events = append(c.Events, Event{Epoch: epoch, Replica: r.id, Reason: reason, Donor: donor, Trace: dump})
	c.emitEviction(epoch, r.id, donor, reason, fid)
}
