package guest

import (
	"testing"

	"ssos/internal/asm"
	"ssos/internal/machine"
	"ssos/internal/mem"
)

// TestNormAsmMatchesRoleNorm checks the node programs' normalization
// sequences against the model: for every variant and every owner role
// (root, interior and last node of the three-node ring), normAsm runs
// on a bare machine for all 65,536 words and must leave the owner
// role's Norm. The convergence certificates cannot catch a deviation
// here: the prover walks the node programs on canonical values only,
// where every projection is the identity.
func TestNormAsmMatchesRoleNorm(t *testing.T) {
	const n = MailboxNodes // node 0 is the root, 1 interior, 2 last
	// The word sits at ds:0 and the result goes to ds:2 (ds = 0 after
	// reset); the code runs from its own segment.
	const codeSeg = 0x1000
	halted := func(m *machine.Machine) bool { return m.CPU.Halted }
	for _, v := range RingVariants() {
		p := v.Protocol()
		for owner := 0; owner < n; owner++ {
			lbl := 0
			prog, err := asm.Assemble("\tmov ax, [0]\n" + v.normAsm(owner, n, "ax", &lbl) + "\tmov [2], ax\n\thlt\n")
			if err != nil {
				t.Fatalf("%v owner %d: %v", v, owner, err)
			}
			bus := mem.NewBus()
			for i, b := range prog.Code {
				bus.Poke(codeSeg<<4+uint32(i), b)
			}
			m := machine.New(bus, machine.Options{ResetVector: machine.SegOff{Seg: codeSeg}})
			for w := 0; w < 1<<16; w++ {
				m.Reset()
				bus.StoreWord(0, uint16(w))
				bus.StoreWord(2, 0xFFFF)
				if !m.RunUntil(16, halted) {
					t.Fatalf("%v owner %d word %#x: the sequence did not reach hlt", v, owner, w)
				}
				if got, want := bus.LoadWord(2), p.Norm(owner, n, uint16(w)); got != uint16(want) {
					t.Fatalf("%v owner %d word %#x: asm %d, model %d", v, owner, w, got, want)
				}
			}
		}
	}
}
