package cluster

import (
	"testing"

	"ssos/internal/core"
	"ssos/internal/fault"
)

// Hooks for the external tests in package cluster_test, which import
// packages (internal/serve) that import this one.

// ReplicaState returns the machine replica i runs on and its injector.
func ReplicaState(c *Cluster, i int) (*core.System, *fault.Injector) {
	r := c.replicas[i]
	return r.host.sys, r.inj
}

// FleetInjector returns ring-fleet replica i's injector.
func FleetInjector(f *RingFleet, i int) *fault.Injector { return f.injs[i] }

// Update reports whether the test run rewrites the golden files.
func Update() bool { return *update }

// WriteGolden and ReadGolden are the golden-file helpers.
func WriteGolden(t *testing.T, path string, runs any) { writeGolden(t, path, runs) }
func ReadGolden(t *testing.T, path string, runs any)  { readGolden(t, path, runs) }
