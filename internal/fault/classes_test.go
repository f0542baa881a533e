package fault

import (
	"testing"

	"ssos/internal/guest"
	"ssos/internal/model"
)

// TestClassTable pins the table's names and order (the served catalog,
// which the serve benchmark indexes) and the blast composite's order.
func TestClassTable(t *testing.T) {
	want := []string{"bitflip", "os-blast", "cpu-blast", "pc", "all-ram", "table-blast", "proc-code", "mailbox"}
	got := Classes()
	if len(got) != len(want) {
		t.Fatalf("%d classes, want %d", len(got), len(want))
	}
	for i, c := range got {
		if c.Name != want[i] {
			t.Errorf("class %d is %q, want %q", i, c.Name, want[i])
		}
		if l, ok := LookupClass(c.Name); !ok || l.Name != c.Name {
			t.Errorf("LookupClass(%q) = %q, %v", c.Name, l.Name, ok)
		}
	}
	for _, name := range []string{"none", "blast", ""} {
		if _, ok := LookupClass(name); ok {
			t.Errorf("LookupClass(%q) found a class", name)
		}
	}
	if len(Blast) != 2 || Blast[0].Name != "cpu-blast" || Blast[1].Name != "all-ram" {
		t.Errorf("Blast = %v, want cpu-blast then all-ram", Blast)
	}
}

// TestMailboxDeployment pins the mailbox class's one machine-dependent
// rule: a single machine loses every slot byte and the parked registers
// of each ring process; a fleet node of an n-node ring loses its ring's
// 2n slot bytes and slot 0's registers, and nothing else.
func TestMailboxDeployment(t *testing.T) {
	for _, c := range []struct{ nodes, slots, procs int }{
		{0, model.MaxRingNodes, guest.MailboxNodes},
		{5, 5, 1},
		{2, 2, 1},
	} {
		m := testMachine(t)
		before := m.Bus.Snapshot()
		NewInjector(m, 7).Inject(c.nodes, Mailbox)
		after := m.Bus.Snapshot()

		target := make([]bool, len(after))
		n := 0
		mark := func(start, size uint32) {
			for a := start; a < start+size; a++ {
				target[a] = true
				n++
			}
		}
		mark(guest.MailboxAddr(0), uint32(2*c.slots))
		for p := 0; p < c.procs; p++ {
			mark(guest.MailboxRegLAddr(p), 4)
		}
		changed := 0
		for a := range after {
			if after[a] == before[a] {
				continue
			}
			if !target[a] {
				t.Errorf("ring nodes %d: byte %#x outside the class changed", c.nodes, a)
			}
			changed++
		}
		// A random byte equals the old one with probability 1/256.
		if changed < n-2 {
			t.Errorf("ring nodes %d: %d of %d target bytes changed", c.nodes, changed, n)
		}
	}
}
