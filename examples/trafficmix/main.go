// Trafficmix demonstrates the paper's zero-loss claim under realistic
// traffic: a Poisson flow and a bursty on/off MMPP flow (heavy-tailed
// packet sizes) cross a link that is already failed and locally
// detected. Packet Re-cycling delivers every single packet — the
// pre-computed recovery cycles need no reconvergence — while the
// link-state IGP baseline keeps dropping until its convergence window
// elapses.
package main

import (
	"fmt"
	"log"
	"time"

	"recycle"
	"recycle/internal/sim"
	"recycle/internal/telemetry"
	"recycle/internal/traffic"
)

func main() {
	net, err := recycle.FromTopology("abilene")
	if err != nil {
		log.Fatal(err)
	}
	fib, err := net.Compile()
	if err != nil {
		log.Fatal(err)
	}
	g := net.Graph()
	node := func(name string) recycle.NodeID {
		id, err := net.Node(name)
		if err != nil {
			log.Fatal(err)
		}
		return id
	}
	seattle := node("Seattle")
	losangeles := node("LosAngeles")
	sunnyvale := node("Sunnyvale")

	// Both flows cross the Seattle–Sunnyvale link, which fails at t=0;
	// detection fires at 50 ms and the traffic starts at 100 ms, so every
	// router adjacent to the failure already knows. The paper's claim is
	// exactly this regime: after local detection, PR loses nothing, with
	// no reconvergence ever run.
	flows := []sim.Flow{
		{Src: seattle, Dst: losangeles, Start: 100 * time.Millisecond,
			Source: traffic.Poisson{Rate: 2430, Seed: 1}},
		{Src: seattle, Dst: sunnyvale, Start: 100 * time.Millisecond,
			Source: traffic.MMPP{
				RateOn: 12_150, MeanOn: 20 * time.Millisecond, MeanOff: 80 * time.Millisecond,
				Sizes: traffic.BoundedPareto{Alpha: 1.3, MinBits: 512, MaxBits: 96_000},
				Seed:  2,
			}},
	}
	failed := net.MustLinkBetween("Seattle", "Sunnyvale")

	fmt.Println("Poisson + MMPP/Pareto mix over the failed Seattle–Sunnyvale link")
	fmt.Printf("%-30s %-10s %-10s %-7s\n", "scheme", "generated", "delivered", "lost")
	run := func(scheme sim.Scheme) *telemetry.Snapshot {
		s, err := sim.New(sim.Config{
			Graph:          g,
			Scheme:         scheme,
			Horizon:        2 * time.Second,
			DetectionDelay: 50 * time.Millisecond,
			Flows:          flows,
		})
		if err != nil {
			log.Fatal(err)
		}
		s.FailLinkAt(failed, 0)
		st := s.Run()
		gen, del := st.Counter(sim.MetricGenerated), st.Counter(sim.MetricDelivered)
		fmt.Printf("%-30s %-10d %-10d %-7d\n", scheme.Name(), gen, del, gen-del)
		return st
	}

	pr := run(&sim.PRScheme{FIB: fib})
	run(&sim.FCPScheme{})
	run(&sim.ReconvScheme{})

	if dropped := sim.TotalsOf(pr).Dropped(); dropped != 0 {
		log.Fatalf("PR dropped %d packets; the zero-drop demonstration failed", dropped)
	}
	fmt.Println()
	fmt.Println("PR re-cycles every packet around the known-failed link: zero drops,")
	fmt.Println("no recomputation — the recovery cycles were compiled offline.")
}
