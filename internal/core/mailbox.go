package core

import (
	"ssos/internal/guest"
	"ssos/internal/model"
	"ssos/internal/trace"
)

// Mailbox-workload observation: every predicate here reads the machine
// through the abstraction function α the refinement tests use — each
// raw mailbox word is projected onto its owner's value domain by the
// owner's model.Role.Norm, exactly the projection the guest node
// applies in assembly before acting on the word. Arbitrary RAM
// corruption can park any bytes in a slot; α maps them to the value
// the protocol will behave as if it read.

// MailboxProtocol returns the abstract protocol of the configured
// mailbox workload (ok=false for other workloads).
func (s *System) MailboxProtocol() (model.Protocol, bool) {
	v, ok := s.Cfg.Workload.MailboxVariant()
	if !ok {
		return model.Protocol{}, false
	}
	return v.Protocol(), true
}

// MailboxNodes returns the configured ring size: RingNodes for a
// one-node-per-replica build, guest.MailboxNodes for the single-machine
// ring.
func (s *System) MailboxNodes() int {
	if s.Cfg.RingNodes != 0 {
		return s.Cfg.RingNodes
	}
	return guest.MailboxNodes
}

// MailboxSlot returns the raw word in ring slot i of this machine's
// mailbox region.
func (s *System) MailboxSlot(i int) uint16 {
	return s.M.Bus.LoadWord(guest.MailboxAddr(i))
}

// MailboxRing returns α of the machine's mailbox region: every slot
// word projected onto its owner's domain.
func (s *System) MailboxRing() model.RingState {
	p, ok := s.MailboxProtocol()
	if !ok {
		return model.RingState{}
	}
	n := s.MailboxNodes()
	var x model.RingState
	for i := 0; i < n; i++ {
		x[i] = p.Norm(i, n, s.MailboxSlot(i))
	}
	return x
}

// MailboxPrivileges returns the privileges held in the current abstract
// configuration, one entry per held guard, for reports. On a
// one-node-per-replica machine this evaluates the local copy of the
// ring; the cluster assembles the authoritative configuration from the
// slot owners.
func (s *System) MailboxPrivileges() []int {
	p, ok := s.MailboxProtocol()
	if !ok {
		return nil
	}
	return p.Privileges(s.MailboxRing(), s.MailboxNodes())
}

// MailboxLegal reports the mutual-exclusion invariant of the current
// abstract configuration: exactly one privilege (model.Protocol.Legal).
func (s *System) MailboxLegal() bool {
	p, ok := s.MailboxProtocol()
	return ok && p.Legal(s.MailboxRing(), s.MailboxNodes())
}

// MailboxConverged runs the system for up to horizon steps (sampling
// every sampleEvery steps, 500 when not positive) and reports whether
// MailboxLegal held at `window` consecutive samples, returning the
// step at which the sustained window began.
func (s *System) MailboxConverged(horizon, sampleEvery, window int) (uint64, bool) {
	if sampleEvery <= 0 {
		sampleEvery = 500
	}
	return trace.Sustained(s.Run, s.Steps, s.MailboxLegal, horizon, sampleEvery, window)
}
