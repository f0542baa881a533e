package guest

import (
	"fmt"

	"ssos/internal/imglint"
	"ssos/internal/model"
)

// Convergence-certificate specs: one imglint.RingCert per mailbox ring
// configuration, binding the shipped node images to the declared
// protocol model. The declared side of each certificate — domains,
// move table and legal set — comes from internal/model's verified
// Protocol family; the checked side is extracted from the ROM bytes by
// imglint.CheckRingCert, which cross-checks the extracted moves against
// the declared ones and ranks the extracted relation itself.

// RingCertSpec pairs a certificate with the protocol it declares.
type RingCertSpec struct {
	Cert     imglint.RingCert
	Protocol model.Protocol
	// Single marks the single-machine catalog ring (nodes in scheduler
	// slots 0..n-1) as opposed to a one-node-per-replica fleet.
	Single bool
}

// toRingState packs a canonical configuration for the model's
// fixed-size state type.
func toRingState(x []uint16) model.RingState {
	var s model.RingState
	for i, v := range x {
		s[i] = uint8(v)
	}
	return s
}

// domainWords widens a model domain to the checker's word type.
func domainWords(d []uint8) []uint16 {
	out := make([]uint16, len(d))
	for i, v := range d {
		out[i] = uint16(v)
	}
	return out
}

// certCommon fills the protocol-derived fields of a certificate for an
// n-node ring: slots, domains, declared moves and legal set.
func certCommon(c *imglint.RingCert, p model.Protocol, n int) {
	c.N = n
	c.Slots = make([]uint32, n)
	c.Domains = make([][]uint16, n)
	for i := 0; i < n; i++ {
		c.Slots[i] = MailboxAddr(i)
		c.Domains[i] = domainWords(p.Domain(i, n))
	}
	c.Moves = func(node int, self, left, right uint16) (bool, uint16) {
		privs, to := p.Role(node, n).Move(uint8(self), uint8(left), uint8(right))
		return privs > 0, uint16(to)
	}
	c.Legal = func(x []uint16) bool { return p.Legal(toRingState(x), n) }
}

// certNode builds the RingNode for ring node `node` of n running in
// scheduler slot proc, from an assembled process set.
func certNode(p model.Protocol, set *ProcSet, node, n, proc int) imglint.RingNode {
	role := p.Role(node, n)
	left, right := -1, -1
	if role.Left {
		left = (node + n - 1) % n
	}
	if role.Right {
		right = (node + 1) % n
	}
	dataLo := uint32(ProcDataSeg(proc)) << 4
	return imglint.RingNode{
		Image: imglint.Image{
			Name:    fmt.Sprintf("node%d", node),
			Bytes:   set.Images[proc],
			Seg:     ProcCodeSeg(proc),
			CodeEnd: len(set.Progs[proc].Code),
		},
		Slot:   node,
		Left:   left,
		Right:  right,
		DataLo: dataLo,
		DataHi: dataLo + ProcRegionSize,
	}
}

// ConvergenceCerts builds the full certificate catalog: for each ring
// variant, the single-machine ring (MailboxNodes nodes in scheduler
// slots 0..MailboxNodes-1) and every fleet size n=2..model.MaxRingNodes
// (each node's image from its one-node-per-replica process set).
func ConvergenceCerts() ([]RingCertSpec, error) {
	var specs []RingCertSpec
	for _, v := range RingVariants() {
		p := v.Protocol()

		single := RingCertSpec{Protocol: p, Single: true}
		single.Cert.Name = fmt.Sprintf("mbox-%s", v)
		n := MailboxNodes
		set, err := BuildMailboxProcesses(v)
		if err != nil {
			return nil, fmt.Errorf("cert %s: %w", single.Cert.Name, err)
		}
		certCommon(&single.Cert, p, n)
		single.Cert.Nodes = make([]imglint.RingNode, n)
		for i := 0; i < n; i++ {
			single.Cert.Nodes[i] = certNode(p, set, i, n, i)
			single.Cert.Nodes[i].Image.Name = fmt.Sprintf("%s-%d", single.Cert.Name, i)
		}
		specs = append(specs, single)

		for n := 2; n <= model.MaxRingNodes; n++ {
			fleet := RingCertSpec{Protocol: p}
			fleet.Cert.Name = fmt.Sprintf("mbox-%s-n%d", v, n)
			certCommon(&fleet.Cert, p, n)
			fleet.Cert.Nodes = make([]imglint.RingNode, n)
			for j := 0; j < n; j++ {
				nset, err := buildNodeProcess(v, j, n)
				if err != nil {
					return nil, fmt.Errorf("cert %s node %d: %w", fleet.Cert.Name, j, err)
				}
				fleet.Cert.Nodes[j] = certNode(p, nset, j, n, 0)
				fleet.Cert.Nodes[j].Image.Name = fmt.Sprintf("%s-node%d", fleet.Cert.Name, j)
			}
			specs = append(specs, fleet)
		}
	}
	return specs, nil
}
