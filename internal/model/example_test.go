package model_test

import (
	"fmt"

	"ssos/internal/model"
)

// Example_ring verifies Dijkstra's K-state token ring exhaustively
// under the adversarial central daemon — closure of the one-privilege
// set and convergence from every one of the K^n states — and reports
// the exact worst-case bound the model checker finds.
func Example_ring() {
	sys := model.KStateProtocol(3).System(4) // K=3 states, 4 members
	worst, err := sys.Verify(1 << 20)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("converges from all %d states; worst case %d moves\n",
		len(sys.States), worst)
	// Output: converges from all 81 states; worst case 13 moves
}

// Example_watchdog checks the paper's watchdog guarantee over the full
// register space, corrupted values included.
func Example_watchdog() {
	const period = 16
	err := model.CheckRecurrence(
		model.WatchdogStates(period, period*4),
		model.WatchdogNext(period),
		model.WatchdogFired(period),
		period, period*6)
	fmt.Println("verified:", err == nil)
	// Output: verified: true
}
