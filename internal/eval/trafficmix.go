package eval

import (
	"fmt"
	"io"
	"time"

	"recycle/internal/dataplane"
	"recycle/internal/graph"
	"recycle/internal/sim"
	"recycle/internal/topo"
	"recycle/internal/traffic"
)

// DefaultTrafficMix is the traffic-source panel the loss-window report
// runs when the caller names none: the legacy fixed-interval probe, a
// Poisson process at the same mean rate, silent-burst MMPP at the same
// mean rate, and heavy-tailed (bounded-Pareto) packet sizes on Poisson
// arrivals.
func DefaultTrafficMix() []traffic.Source {
	return []traffic.Source{
		traffic.Fixed{Interval: time.Second / 2430},
		traffic.Poisson{Rate: 2430, Seed: 1},
		traffic.MMPP{RateOn: 12_150, MeanOn: 20 * time.Millisecond,
			MeanOff: 80 * time.Millisecond, Seed: 1},
		traffic.Poisson{Rate: 2430,
			Sizes: traffic.BoundedPareto{Alpha: 1.3, MinBits: 512, MaxBits: 96_000}, Seed: 1},
	}
}

// TrafficLossReport is a completed loss-window-over-traffic-mixes
// experiment: the probe pair it crossed and one row per (traffic
// source, scheme) pair. Each row's Traffic field carries the qualified
// source label (e.g. "poisson+bounded-pareto").
type TrafficLossReport struct {
	// Src and Dst are the probe flow's endpoints (the topology's
	// hop-diameter pair).
	Src, Dst graph.NodeID
	// Rows holds one result per source × scheme, sources outermost.
	Rows []sim.LossWindowResult
}

// RunTrafficLoss runs the §1 loss-window experiment over a panel of
// traffic sources: for each source, the same offered load (identical
// deterministic stream) is played against PR on the compiled dataplane,
// FCP and a reconverging IGP, with the first link of the probe's
// shortest path failing one second in. The probe flow crosses the
// topology's hop-diameter pair, so every scheme reroutes a worst-case
// path.
func RunTrafficLoss(tp topo.Topology, sources []traffic.Source) (*TrafficLossReport, error) {
	src, dst := diameterPair(tp.Graph)
	return runTrafficLoss(tp, src, dst, sources)
}

// runTrafficLoss is RunTrafficLoss over an explicit probe pair.
func runTrafficLoss(tp topo.Topology, src, dst graph.NodeID, sources []traffic.Source) (*TrafficLossReport, error) {
	st, err := buildStack(tp, dataplane.CompileOptions{})
	if err != nil {
		return nil, err
	}
	report := &TrafficLossReport{Src: src, Dst: dst}
	for _, source := range sources {
		if err := source.Validate(); err != nil {
			return nil, fmt.Errorf("eval: traffic mix: %w", err)
		}
		schemes := []sim.Scheme{
			&sim.PRScheme{FIB: st.fib},
			&sim.FCPScheme{},
			&sim.ReconvScheme{},
		}
		for _, scheme := range schemes {
			res, err := sim.RunLossWindowTraffic(sim.Config{
				Graph:          st.g,
				Scheme:         scheme,
				Horizon:        3 * time.Second,
				DetectionDelay: 50 * time.Millisecond,
			}, src, dst, source, time.Second)
			if err != nil {
				return nil, err
			}
			res.Traffic = sourceLabel(source)
			report.Rows = append(report.Rows, res)
		}
	}
	return report, nil
}

// TrafficLossConfig parameterises the loss-window-over-traffic-mixes
// report. The embedded Panel's Topologies is consumed; its
// failure-process, seed and metrics fields are ignored (the experiment
// scripts its own single failure and the sources carry their own
// seeds).
type TrafficLossConfig struct {
	Panel
	// Sources is the traffic-source panel (nil runs DefaultTrafficMix).
	Sources []traffic.Source
}

// WriteTrafficLossReport renders the loss-window-over-traffic-mixes
// figure over the config's topology panel.
func WriteTrafficLossReport(w io.Writer, cfg TrafficLossConfig) error {
	sources := cfg.Sources
	if sources == nil {
		sources = DefaultTrafficMix()
	}
	panel, err := cfg.Panel.topologies()
	if err != nil {
		return err
	}
	for i, tp := range panel {
		if i > 0 {
			fmt.Fprintln(w)
		}
		report, err := RunTrafficLoss(tp, sources)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# §1 loss window over traffic mixes on %s: %s→%s flow, first-hop link fails at t=1s\n",
			tp.Name, tp.Graph.Name(report.Src), tp.Graph.Name(report.Dst))
		fmt.Fprintf(w, "%-22s %-30s %-10s %-10s %-10s %-8s %-5s %-9s\n",
			"traffic", "scheme", "generated", "delivered", "blackhole", "noroute", "ttl", "delivery")
		for _, r := range report.Rows {
			rate := 1.0
			if r.Generated > 0 {
				rate = float64(r.Delivered) / float64(r.Generated)
			}
			fmt.Fprintf(w, "%-22s %-30s %-10d %-10d %-10d %-8d %-5d %-9.4f\n",
				r.Traffic, r.Scheme, r.Generated, r.Delivered, r.Blackhole, r.NoRoute, r.TTL, rate)
		}
	}
	return nil
}

// WriteLossWindowReport renders the §1 motivation panel: packets lost on
// a loaded OC-192 during a one-second outage, per scheme — the
// traffic-loss harness on Abilene (unit weights), Seattle→LosAngeles.
// Without Sources the flow is the fixed probe: a 20%-loaded OC-192 at
// 1 kB packets is ≈ 243k pps, simulated 1:100 (losses scale linearly
// with rate) and extrapolated back in the last column. Each source in
// Sources replaces the probe with its own offered load at whatever rate
// it was configured with, so no extrapolation is printed. The Panel is
// ignored.
func WriteLossWindowReport(w io.Writer, cfg TrafficLossConfig) error {
	const pps, scale = 2430, 100.0
	tp := topo.Abilene(topo.UnitWeights)
	src, dst := tp.Graph.NodeByName("Seattle"), tp.Graph.NodeByName("LosAngeles")
	probe := len(cfg.Sources) == 0
	sources, label := cfg.Sources, ""
	if probe {
		sources, label = []traffic.Source{traffic.Fixed{Interval: time.Second / pps}}, " 1:100 probe"
	}
	report, err := runTrafficLoss(tp, src, dst, sources)
	if err != nil {
		return err
	}
	per := len(report.Rows) / len(sources) // one block of scheme rows per source
	for i, r := range report.Rows {
		if i%per == 0 {
			if i > 0 {
				fmt.Fprintln(w)
			}
			fmt.Fprintf(w, "# §1 loss window: Seattle→LosAngeles flow (%s%s traffic), first-hop link fails at t=1s\n", sources[i/per].Name(), label)
			if probe {
				fmt.Fprintf(w, "# OC-192 at 20%% load ≈ 243k pps of 1 kB packets (simulated 1:%.0f)\n", scale)
				fmt.Fprintf(w, "%-28s %-10s %-10s %-12s %-10s\n", "scheme", "generated", "delivered", "lost(scaled)", "lost(OC192)")
			} else {
				fmt.Fprintf(w, "%-28s %-10s %-10s %-12s\n", "scheme", "generated", "delivered", "lost")
			}
		}
		lost := r.Generated - r.Delivered
		fmt.Fprintf(w, "%-28s %-10d %-10d %-12d", r.Scheme, r.Generated, r.Delivered, lost)
		if probe {
			fmt.Fprintf(w, " %-10.0f", float64(lost)*scale)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// sourceLabel names a source for the report, qualifying the size
// distribution when one is attached.
func sourceLabel(s traffic.Source) string {
	switch src := s.(type) {
	case traffic.Poisson:
		if src.Sizes != nil {
			return s.Name() + "+" + src.Sizes.Name()
		}
	case traffic.MMPP:
		if src.Sizes != nil {
			return s.Name() + "+" + src.Sizes.Name()
		}
	}
	return s.Name()
}

// diameterPair returns a (src, dst) pair realising the graph's hop
// diameter — the longest shortest path, the probe every scheme has to
// reroute hardest for.
func diameterPair(g *graph.Graph) (graph.NodeID, graph.NodeID) {
	bestS, bestD := graph.NodeID(0), graph.NodeID(1)
	best := int32(-1)
	for d, tree := range graph.AllTrees(g, nil) {
		for s := 0; s < g.NumNodes(); s++ {
			if tree.Hops[s] > best {
				best = tree.Hops[s]
				bestS, bestD = graph.NodeID(s), graph.NodeID(d)
			}
		}
	}
	return bestS, bestD
}
