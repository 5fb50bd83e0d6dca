// Soak runs the whole stack at once, on one virtual clock: thousands of
// concurrent Poisson flows walked hop-by-hop through the engine and its
// paced egress queues, while a continuous MTBF failure process flips
// links under the traffic and control-plane hot-swaps — weight tweaks
// plus a structural chord add/remove — land on the running engine.
// Every loss is refereed by the connectivity oracle, the telemetry
// timeline is rolled on every scenario event and swap (and proven to
// sum to the aggregate exactly), and the run ends in a verdict: the §5
// guarantee demands zero violations however long the soak runs.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"recycle"
)

func main() {
	res, err := recycle.RunSoak("grid:6x6", recycle.SoakConfig{
		Panel:     recycle.Panel{Spec: "mtbf:up=4s,down=150ms"},
		Flows:     5_000,
		Duration:  2 * time.Second,
		SwapEvery: 250 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	recycle.WriteSoakReport(os.Stdout, res)

	if res.Violations != 0 {
		log.Fatalf("soak found %d violations; the §5 guarantee demands 0", res.Violations)
	}
	if res.StructuralSwaps == 0 {
		log.Fatal("no structural hot-swap landed on the running engine")
	}
	fmt.Printf("\n%d packets across %d epochs, %d hot-swaps (%d structural), %d link events: zero violations\n",
		res.Generated, len(res.Epochs), res.Swaps, res.StructuralSwaps, res.ScenarioEvents)
}
