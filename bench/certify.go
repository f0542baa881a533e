package main

import (
	"ssos/internal/guest"
	"ssos/internal/imglint"
)

// certify: the static side. Each round is one full pass of the prover
// and linters: every ring convergence certificate checked against the
// shipped node images, every ROM image linted, and every model twin
// small enough to enumerate verified. Nothing steps a machine, so a
// machine change must not move it. The seed is unused: the inputs are
// the shipped images.
var certifyWorkload = &workload{
	name:   "certify",
	why:    "the prover, image linter and model checker do all the work; nothing steps a machine",
	prefix: 2,
	setup:  setupCertify,
}

// verifyBound is the convergence bound handed to model.System.Verify:
// far above every twin's exact worst case, so only a non-converging
// protocol fails it.
const verifyBound = 1 << 20

type certifyInst struct {
	// last pass's outcomes, digested at the prefix
	certs    []imglint.CertResult
	findings []int
	worst    []int
}

func setupCertify(t *track) (instance, error) {
	err := assemble(t,
		func() error { _, err := guest.LintImages(); return err },
		func() error { _, err := guest.ConvergenceCerts(); return err },
	)
	return &certifyInst{}, err
}

func (c *certifyInst) round(t *track, i int) {
	var specs []guest.RingCertSpec
	var imgs []imglint.Image
	var err error
	t.do("guest", "ConvergenceCerts", 0, func() { specs, err = guest.ConvergenceCerts() })
	t.check(err == nil, "certify pass %d: building certificates: %v", i, err)
	t.do("guest", "LintImages", 0, func() { imgs, err = guest.LintImages() })
	t.check(err == nil, "certify pass %d: building images: %v", i, err)

	c.certs, c.findings, c.worst = c.certs[:0], c.findings[:0], c.worst[:0]
	for _, sp := range specs {
		var res imglint.CertResult
		t.op("imglint", "CheckRingCert", 0, func() { res = imglint.CheckRingCert(sp.Cert) })
		t.check(res.Proved(), "certify pass %d: certificate %s not proved: %v", i, res.Name, res.Findings)
		c.certs = append(c.certs, res)
	}
	for _, img := range imgs {
		var fs []imglint.Finding
		t.op("imglint", "Check", 0, func() { fs = imglint.Check(img) })
		t.check(len(fs) == 0, "certify pass %d: image %s: %v", i, img.Name, fs)
		c.findings = append(c.findings, len(fs))
	}
	// The twins whose state space the prover enumerates: the K-state
	// rings beyond 4 nodes (16^5 states and up) are past the same cap
	// the certificates fall back to local obligations at.
	for k, sp := range specs {
		if c.certs[k].Mode != "ranking" {
			continue
		}
		var worst int
		t.op("model", "Verify", 0, func() { worst, err = sp.Protocol.System(sp.Cert.N).Verify(verifyBound) })
		t.check(err == nil, "certify pass %d: model twin of %s: %v", i, sp.Cert.Name, err)
		c.worst = append(c.worst, worst)
	}
}

func (c *certifyInst) snapshot(sn *snapshot) {
	for _, r := range c.certs {
		sn.digest("cert %s %s %d %d %d\n", r.Name, r.Mode, r.States, r.RankBound, r.Bound)
		sn.add("imglint.cert_states", float64(r.States))
	}
	sn.digest("lint %v\nworst %v\n", c.findings, c.worst)
}

func (c *certifyInst) close() {}
