// Layered ring: the paper's composition claim, live.
//
// A self-stabilizing algorithm (a token ring) runs as guest processes
// on the self-stabilizing scheduler, the two layers are corrupted
// *jointly*, and the stack converges back to a single circulating
// token — first on one machine, then one ring node per replica across
// a simulated fleet.
//
// The whole run is deterministic: part 3 executes the single-machine
// script twice with the same seed and proves the two structured event
// streams byte-identical — the property the CI layered-smoke job holds
// for the CLI binaries.
//
// Run with: go run ./examples/layeredring
package main

import (
	"bytes"
	"fmt"
	"os"

	"ssos/internal/cluster"
	"ssos/internal/core"
	"ssos/internal/fault"
	"ssos/internal/guest"
	"ssos/internal/obs"
)

const seed = 11

func main() {
	machine()
	fleet()
	determinism()
}

// machineScript boots the K-state mailbox ring on the 5.2 scheduler,
// corrupts both layers at once mid-run, and runs to recovery. The
// whole session is recorded through the observability layer; the
// returned bytes are the JSONL event stream.
func machineScript(report bool) []byte {
	s := core.MustNew(core.Config{
		Approach: core.ApproachScheduler,
		Workload: core.WorkloadMailboxKState,
	})
	col := obs.NewCollector()
	s.Instrument(col)

	s.Run(200000)
	if report {
		fmt.Printf("booted: privileges=%v ring=%v\n", s.MailboxPrivileges(), s.MailboxRing())
	}

	// The joint fault: the mailbox class (the slot words of the
	// algorithm layer and the nodes' parked registers), then a CPU
	// blast for good measure.
	fault.NewInjector(s.M, seed).Inject(0, fault.Mailbox, fault.CPUBlast)
	faultStep := s.Steps()

	step, ok := s.MailboxConverged(4000000, 500, 100)
	if !ok {
		fmt.Println("did not converge (unexpected)")
		os.Exit(1)
	}
	if report {
		fmt.Printf("joint fault at step %d: mailbox randomized, CPU blasted\n", faultStep)
		fmt.Printf("re-converged: one privilege sustained from step %d (%d steps after the fault)\n",
			step, step-uint64(faultStep))
		holders := map[int]bool{}
		for len(holders) < s.MailboxNodes() {
			s.Run(500)
			if p := s.MailboxPrivileges(); len(p) == 1 {
				holders[p[0]] = true
			}
		}
		fmt.Printf("token circulation resumed: every node held the privilege again\n\n")
	}

	var buf bytes.Buffer
	if err := col.WriteJSONL(&buf); err != nil {
		fmt.Fprintln(os.Stderr, "layeredring:", err)
		os.Exit(1)
	}
	return buf.Bytes()
}

func machine() {
	fmt.Println("== part 1: one machine — K-state ring on the 5.2 scheduler ==")
	machineScript(true)
}

// fleet runs the 3-state ring one node per replica: each replica is a
// whole scheduler machine hosting a single ring node, and a relay shim
// copies the raw mailbox words between machines after every round.
func fleet() {
	fmt.Println("== part 2: fleet — one ring node per replica (dijkstra3) ==")
	f, err := cluster.NewRingFleet(cluster.RingFleetConfig{
		Variant: guest.VariantDijkstra3,
		Seed:    seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "layeredring:", err)
		os.Exit(1)
	}
	const window = 50
	if _, ok := f.Converged(6000000, window); !ok {
		fmt.Println("no initial convergence (unexpected)")
		os.Exit(1)
	}
	fmt.Printf("%d replicas booted and converged, ring=%v\n", f.Nodes(), f.Ring())

	at := f.Steps()
	f.Scramble(cluster.ScrambleJoint)
	since, ok := f.Converged(12000000, window)
	if !ok {
		fmt.Println("did not re-converge (unexpected)")
		os.Exit(1)
	}
	fmt.Printf("joint scramble (every replica's OS + ring state) at fleet step %d\n", at)
	fmt.Printf("re-converged: legal from fleet step %d (%d steps after scramble), ring=%v\n\n",
		since, since-at, f.Ring())
}

// determinism runs the part-1 script twice and compares the two event
// streams byte for byte: same seed, same bytes — the contract every
// experiment in this repository leans on.
func determinism() {
	fmt.Println("== part 3: determinism — same seed, byte-identical events ==")
	a := machineScript(false)
	b := machineScript(false)
	if !bytes.Equal(a, b) {
		fmt.Println("event streams differ (unexpected)")
		os.Exit(1)
	}
	lines := bytes.Count(a, []byte{'\n'})
	fmt.Printf("two full runs produced byte-identical event streams (%d events, %d bytes)\n",
		lines, len(a))
}
