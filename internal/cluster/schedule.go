package cluster

import (
	"fmt"
	"sort"

	"ssos/internal/fault"
)

// FaultMode selects the fault classes a strike injects into a replica.
type FaultMode uint8

// Fault modes: the cluster's menu of internal/fault classes.
const (
	// ModeNone disables strikes.
	ModeNone FaultMode = iota
	// ModeBitflip flips one uniformly chosen RAM bit.
	ModeBitflip
	// ModeOSBlast randomizes the whole guest OS image in RAM.
	ModeOSBlast
	// ModeCPUBlast randomizes the entire processor soft state.
	ModeCPUBlast
	// ModeBlast randomizes CPU soft state AND all RAM (fault.Blast) —
	// the paper's "started in any possible state", per replica.
	ModeBlast
)

// menuEntry is one name on a cluster fault menu (a CLI value) and the
// internal/fault classes it injects, in order.
type menuEntry struct {
	name    string
	classes []fault.Class
}

// modes is indexed by FaultMode; an array (not a map) so that
// ParseFaultMode resolves ties deterministically and iteration order
// can never depend on runtime map layout.
var modes = [...]menuEntry{
	ModeNone:     {"none", nil},
	ModeBitflip:  {fault.BitFlip.Name, []fault.Class{fault.BitFlip}},
	ModeOSBlast:  {fault.OSBlast.Name, []fault.Class{fault.OSBlast}},
	ModeCPUBlast: {fault.CPUBlast.Name, []fault.Class{fault.CPUBlast}},
	ModeBlast:    {"blast", fault.Blast},
}

func (m FaultMode) String() string {
	if int(m) < len(modes) {
		return modes[m].name
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// ParseFaultMode resolves a fault-mode name (the -faults CLI values).
func ParseFaultMode(name string) (FaultMode, error) {
	for m, md := range modes {
		if md.name == name {
			return FaultMode(m), nil
		}
	}
	return ModeNone, fmt.Errorf("cluster: unknown fault mode %q", name)
}

// FaultModes lists the fault modes in mode order.
func FaultModes() []FaultMode {
	out := make([]FaultMode, len(modes))
	for m := range modes {
		out[m] = FaultMode(m)
	}
	return out
}

// apply injects the mode's classes through the replica's injector.
// Cluster replicas run the kernel approaches, never a ring node.
func (m FaultMode) apply(in *fault.Injector) {
	in.Inject(0, modes[m].classes...)
}

// Strike applies one on-demand fault to the given replica through its
// private injector, after splitting the replica off any machine it
// shares. It must be called between epochs (never while Run is
// stepping the fleet) — the served session's serialized command loop
// satisfies that by construction. The injection draws from the
// replica's seeded fault stream, so a fixed command sequence remains
// fully reproducible; the next epoch's vote sees the damage.
func (c *Cluster) Strike(replica int, m FaultMode) error {
	if replica < 0 || replica >= len(c.replicas) {
		return fmt.Errorf("cluster: strike replica %d out of range [0,%d)", replica, len(c.replicas))
	}
	if m != ModeNone {
		r := c.replicas[replica]
		c.split(r)
		m.apply(r.inj)
	}
	return nil
}

// Strike is one scheduled fault injection: replica r is hit with the
// mode's fault at the given step offset into the epoch.
type Strike struct {
	Epoch   int
	Replica int
	Offset  int
	Mode    FaultMode
}

func (s Strike) String() string {
	return fmt.Sprintf("replica %d %v @+%d", s.Replica, s.Mode, s.Offset)
}

// strikesFor produces this epoch's strikes, sorted by replica then
// offset. With an explicit Schedule it filters; otherwise it draws from
// the coordinator rng — probabilistically per replica when StrikeProb
// is set, else a random minority every StrikeEvery-th epoch. Either
// way the sequence is a pure function of the cluster seed.
func (c *Cluster) strikesFor(epoch int) []Strike {
	var out []Strike
	switch {
	case c.cfg.Schedule != nil:
		for _, s := range c.cfg.Schedule {
			if s.Epoch == epoch {
				out = append(out, s)
			}
		}
	case c.cfg.Faults == ModeNone:
		return nil
	case c.cfg.StrikeProb > 0:
		for i := range c.replicas {
			if c.rng.Float64() < c.cfg.StrikeProb {
				out = append(out, Strike{
					Epoch:   epoch,
					Replica: i,
					Offset:  c.rng.Intn(c.cfg.EpochSteps),
					Mode:    c.cfg.Faults,
				})
			}
		}
	default:
		if (epoch+1)%c.cfg.StrikeEvery != 0 {
			return nil
		}
		minority := (len(c.replicas) - 1) / 2
		perm := c.rng.Perm(len(c.replicas))
		for _, i := range perm[:minority] {
			out = append(out, Strike{
				Epoch:   epoch,
				Replica: i,
				Offset:  c.rng.Intn(c.cfg.EpochSteps),
				Mode:    c.cfg.Faults,
			})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Replica != out[b].Replica {
			return out[a].Replica < out[b].Replica
		}
		return out[a].Offset < out[b].Offset
	})
	return out
}
