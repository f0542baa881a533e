package cluster

import (
	"ssos/internal/fault"
	"ssos/internal/guest"
)

// epochOutput is one replica's observable output for one epoch: its
// heartbeat-legality verdict under the approach's trace.HeartbeatSpec,
// and a digest of everything the voter compares — the epoch's console
// output and the machine's soft state (CPU registers, OS-image and
// stack RAM, watchdog countdown).
//
// Healthy replicas are deterministic machines running in lockstep, so
// their digests are identical; any transient fault that matters
// eventually shows up as a digest mismatch, even when the victim's own
// heartbeat stream still looks legal (a reinstalled guest restarting
// its counter is weakly legal, yet out of step with the quorum — only
// the vote can tell).
type epochOutput struct {
	digest uint64
	legal  bool
}

// onBeat judges one heartbeat as the guest writes it, so no history is
// kept.
func (r *replica) onBeat(step uint64, v uint16) {
	if !r.beats.Next(step, v) {
		r.legal = false
	}
}

// onBeat folds one heartbeat into the machine's epoch digest and hands
// it to each member: the voter judges it, then the member's observer
// derives its events. The epoch's beats are those stamped in
// (epochStart, epochStart+EpochSteps]: the step counter advances before
// an instruction runs, so a beat written on an epoch's last step
// carries the next epoch's start, yet arrives in its own.
func (h *host) onBeat(step uint64, v uint16) {
	h.digest.u64(step - h.epochStart)
	h.digest.u16(v)
	for _, r := range h.members {
		r.onBeat(step, v)
		if r.ob != nil {
			r.ob.OnHeartbeat(step, v)
		}
	}
}

// output completes the epoch outputs of h's members at the current
// step. The digest is the machine's: its epoch console output (step
// offsets and values, folded as written), CPU soft state, the OS-state
// RAM (image plus stack) and the watchdog countdown — the full set
// that determines future behaviour. Legality is each member's: the
// beats it judged and a silence check at the epoch's end.
func (h *host) output(outputs []epochOutput) {
	sys := h.sys
	d := h.digest
	cpu := &sys.M.CPU
	for _, v := range cpu.R {
		d.u16(v)
	}
	for _, v := range cpu.S {
		d.u16(v)
	}
	d.u16(cpu.IP)
	d.u16(uint16(cpu.Flags))
	d.u32(cpu.IDTR)
	d.u16(cpu.WP)
	d.u16(cpu.NMICounter)
	d.bool(cpu.InNMI)
	d.bool(cpu.Halted)
	if wd := sys.Watchdog; wd != nil {
		d.u32(wd.Counter)
	}
	d.region(sys.M.Bus, fault.OSImage.Start, fault.OSImage.Size)
	d.region(sys.M.Bus, uint32(guest.StackSeg)<<4, 0x1000)

	for _, r := range h.members {
		outputs[r.id] = epochOutput{digest: d.sum(), legal: r.legal && !r.beats.Silent(sys.Steps())}
	}
}

// vote is the tallied comparison of one epoch's replica outputs.
type vote struct {
	// groups holds the distinct digests in first-seen (replica) order;
	// members lists each group's replicas in ascending id order.
	groups  []uint64
	members [][]int
	// winner indexes the largest group (ties break toward the group
	// seen first, i.e. the one containing the lowest replica id).
	winner    int
	agree     int
	hasQuorum bool
	// legal is the cluster verdict: quorum reached and every quorum
	// member's epoch output satisfied the heartbeat specification.
	legal  bool
	digest uint64
}

// tally groups the outputs by digest and elects the majority.
func tally(outputs []epochOutput, quorum int) vote {
	v := vote{winner: -1}
	idx := make(map[uint64]int, len(outputs))
	for i, o := range outputs {
		g, ok := idx[o.digest]
		if !ok {
			g = len(v.groups)
			idx[o.digest] = g
			v.groups = append(v.groups, o.digest)
			v.members = append(v.members, nil)
		}
		v.members[g] = append(v.members[g], i)
	}
	for g := range v.groups {
		if n := len(v.members[g]); n > v.agree {
			v.agree = n
			v.winner = g
		}
	}
	if v.winner < 0 {
		return v
	}
	v.digest = v.groups[v.winner]
	v.hasQuorum = v.agree >= quorum
	if v.hasQuorum {
		v.legal = true
		for _, i := range v.members[v.winner] {
			if !outputs[i].legal {
				v.legal = false
				break
			}
		}
	}
	return v
}

// inWinner reports whether replica i belongs to the winning group.
func (v *vote) inWinner(i int) bool {
	if v.winner < 0 {
		return false
	}
	for _, m := range v.members[v.winner] {
		if m == i {
			return true
		}
	}
	return false
}
