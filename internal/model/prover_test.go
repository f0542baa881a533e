package model_test

import (
	"testing"

	"ssos/internal/imglint"
	"ssos/internal/model"
)

// TestProverMaxStates: the cap the package's tests restate is the
// prover's, so the shipped-system checks cover every size the prover
// ranks.
func TestProverMaxStates(t *testing.T) {
	if model.ProverMaxStates != imglint.DefaultMaxStates {
		t.Errorf("tests restate the prover cap as %d, imglint.DefaultMaxStates is %d",
			model.ProverMaxStates, imglint.DefaultMaxStates)
	}
}
