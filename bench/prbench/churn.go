package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"recycle"
	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/graph"
	"recycle/internal/route"
	"recycle/internal/telemetry"
)

// ctl_churn: a seeded deck of edit sets, played again and again from the
// same compiled network against a fresh Recompiler and a live, idle engine.
// Each set is Apply, then Engine.ApplyDelta; the operation is timed from the
// Apply call to ApplyDelta's return. After the deck the patched FIB must
// answer like one compiled from scratch over the edited graph, and every
// repetition must end on the same FIB as the first.
//
// The deck repeats so that the same work is timed many times. Sets differ
// fifty-fold in cost (a weight edit on a leaf link, the removal of a core
// link), so the fast end of segments that each drew their own sets
// measures the draw. The deck is dealt in hands of ten sets, about 50 ms:
// long enough to hold the collector cycles its allocations cause, short
// enough to fall between the neighbours' bursts. Each hand is read at its
// quiet repetition and the deck's time is the sum over hands.

const (
	churnTopo = "rand:512@1"
	// churnHand: of the ten sets of a hand eight are weight edits, one a
	// batch and one structural, in seeded order.
	churnHand = 10
	// churnDeck hands make the deck: a run replays it some forty times. A
	// deck four times as long is replayed eleven times, and in a busy half
	// hour eleven repetitions of a hand hold no quiet one: the rate read
	// 15% under a quiet half hour's, against 2% with forty.
	churnDeck = 5
	// setupEvery this long the set-up is repeated during the timed window
	// (see timeSetup).
	setupEvery = 3 * time.Second
)

type editKind int

const (
	editWeight editKind = iota // one SetWeight
	editBatch                  // three SetWeights, two on one link: the coalescer's case
	editStruct                 // remove a non-bridge link, or put the last one removed back
	numEditKinds
)

// editStream draws edit sets against the recompiler's current graph. The
// seed deals the order of the kinds and the new weights. Which links the
// sets of each kind touch is the same for every seed: one edit costs 1 ms
// on a leaf link and 40 ms on a core one, and two hundred sets that drew
// their own links read 17% apart from seed to seed, which is the draw's
// spread and not the recompiler's.
type editStream struct {
	rng     *rand.Rand
	links   [numEditKinds]*rand.Rand
	removed *graph.Link // taken out and not yet put back
}

func newEditStream(seed int64) *editStream {
	e := &editStream{rng: rand.New(rand.NewSource(seed))}
	for kind := range e.links {
		e.links[kind] = rand.New(rand.NewSource(int64(kind) + 1))
	}
	return e
}

func (e *editStream) weight() float64 { return 1 + 9*e.rng.Float64() }

// hand deals one hand's edit kinds.
func (e *editStream) hand() [churnHand]editKind {
	hand := [churnHand]editKind{editBatch, editStruct} // the rest are weight edits
	e.rng.Shuffle(len(hand), func(i, j int) { hand[i], hand[j] = hand[j], hand[i] })
	return hand
}

func (e *editStream) next(kind editKind, g *graph.Graph) []graph.Edit {
	link := func() graph.LinkID { return graph.LinkID(e.links[kind].Intn(g.NumLinks())) }
	switch kind {
	case editBatch:
		l := link()
		return []graph.Edit{graph.SetWeight(l, e.weight()), graph.SetWeight(link(), e.weight()), graph.SetWeight(l, e.weight())}
	case editStruct:
		// Removals and re-additions alternate, for the same reason.
		if e.removed != nil {
			back := *e.removed
			e.removed = nil
			return []graph.Edit{graph.AddLinkEdit(back.A, back.B, back.Weight)}
		}
		bridge := make(map[graph.LinkID]bool)
		for _, b := range graph.Bridges(g) {
			bridge[b] = true
		}
		for {
			if l := link(); !bridge[l] {
				link := g.Link(l)
				e.removed = &link
				return []graph.Edit{graph.RemoveLinkEdit(l)}
			}
		}
	}
	return []graph.Edit{graph.SetWeight(link(), e.weight())}
}

// fromScratch compiles the recompiler's current graph and rotation system
// through none of the recompiler's own state and compares answers.
func fromScratch(rec *recycle.Recompiler, samples int) (time.Duration, error) {
	t0 := time.Now()
	g := rec.Graph()
	prot, err := core.New(g, rec.System(), route.Build(g, route.HopCount), core.Config{Variant: core.Full})
	if err != nil {
		return 0, err
	}
	fresh, err := dataplane.CompileWith(prot, nil)
	if err != nil {
		return 0, err
	}
	took := time.Since(t0)
	if fingerprint(fresh, samples) != fingerprint(rec.FIB(), samples) {
		return took, fmt.Errorf("patched FIB answers differently from a from-scratch compile of the edited graph")
	}
	return took, nil
}

// playedSet is one edit set of the deck with what its repetitions measured.
type playedSet struct {
	kind    editKind
	edits   []graph.Edit
	opMs    [2][]float64 // Apply call to ApplyDelta return: bare, traced
	applyMs []float64
	swapUs  []float64
}

func runChurn(c *runCtx) error {
	defer oneProcessor()()
	build := func() (*recycle.Network, error) {
		net, err := recycle.FromTopology(churnTopo)
		if err != nil {
			return nil, err
		}
		_, err = net.Recompiler()
		return net, err
	}
	net, err := timeSetup(c, build)
	if err != nil {
		return err
	}
	c.shards = engineShards()
	var (
		stream    = newEditStream(c.seed)
		deck      = make([]playedSet, churnHand*c.scaled(churnDeck, 2))
		samples   = c.scaled(100_000, 2000)
		nodes     = float64(net.Graph().NumNodes())
		counters  = map[string]float64{} // the recompilers' own, summed over repetitions
		endPrint  uint64
		fullMs    float64
		dirty     float64
		edits     int
		reps      int
		minReps   = c.scaled(4, 2)
		deadline  = time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
		nextSetup = time.Now().Add(setupEvery)
	)
	for h := 0; h < len(deck); h += churnHand {
		for i, kind := range stream.hand() {
			deck[h+i].kind = kind
		}
	}
	c.beginWindow()
	for ; reps < minReps || time.Now().Before(deadline); reps++ {
		if !c.trace && time.Now().After(nextSetup) {
			// The next repetitions start from a network built afresh: the
			// fingerprint at their end says it is the same one.
			net = nil
			if net, err = timeSetup(c, build); err != nil {
				return err
			}
			nextSetup = time.Now().Add(setupEvery)
		}
		runtime.GC() // every repetition starts from the same heap
		rec, err := net.Recompiler()
		if err != nil {
			return err
		}
		var reg *telemetry.Registry
		if c.trace {
			reg = telemetry.NewRegistry()
			rec.Register(reg)
		}
		eng := dataplane.NewEngine(rec.FIB(), dataplane.EngineConfig{Shards: c.shards})
		k, tracer := 0, (*telemetry.Tracer)(nil)
		if c.trace && reps%2 == 1 {
			k, tracer = 1, c.tracer
		}
		for i := range deck {
			set := &deck[i]
			if reps == 0 {
				set.edits = stream.next(set.kind, rec.Graph())
			}
			root := tracer.Start("edit_set", 0)
			root.SetAttr(telemetry.AttrCount, c.attempted)
			apply := tracer.Start("recompile.apply", root.ID())
			t0 := time.Now()
			d, err := rec.Apply(set.edits...)
			t1 := time.Now()
			apply.End()
			if err == nil && d != nil {
				swap := tracer.Start("engine.swap", root.ID())
				err = eng.ApplyDelta(d)
				swap.End()
			}
			t2 := time.Now()
			root.End()
			c.attempted++
			edits += len(set.edits)
			if err != nil {
				c.failed++
				fmt.Printf("# edit set %d of repetition %d (%v) failed: %v\n", i, reps, set.edits, err)
				continue
			}
			set.opMs[k] = append(set.opMs[k], t2.Sub(t0).Seconds()*1e3)
			set.applyMs = append(set.applyMs, t1.Sub(t0).Seconds()*1e3)
			set.swapUs = append(set.swapUs, t2.Sub(t1).Seconds()*1e6)
			if d != nil {
				dirty += float64(len(d.Dirty)) / nodes
			}
		}
		live := eng.FIB() == rec.FIB()
		eng.Close()
		if c.trace {
			snap := reg.Snapshot()
			for _, name := range []string{dataplane.MetricRepairRepaired, dataplane.MetricRepairFullFallback, dataplane.MetricRecompileCoalesced} {
				counters[name] += float64(snap.Counter(name))
			}
		}
		if c.failed > 0 {
			return fmt.Errorf("%d of %d edit sets failed", c.failed, c.attempted)
		}
		if !live {
			return fmt.Errorf("the engine is not forwarding on the recompiler's latest FIB")
		}
		if reps == 0 {
			took, err := fromScratch(rec, samples)
			if err != nil {
				return err
			}
			fullMs = took.Seconds() * 1e3
			endPrint = fingerprint(rec.FIB(), samples)
		} else if fingerprint(rec.FIB(), samples) != endPrint {
			return fmt.Errorf("repetition %d of the deck ended on another FIB than the first", reps)
		}
	}
	c.endWindow(float64(c.attempted))

	// The deck's time with each hand at its quiet repetition, or at its
	// median one.
	deckMs := func(k int, stat func([]float64) float64) (ms float64) {
		for h := 0; h < len(deck); h += churnHand {
			handMs := make([]float64, len(deck[h].opMs[k]))
			for _, set := range deck[h : h+churnHand] {
				for r, ms := range set.opMs[k] {
					handMs[r] += ms
				}
			}
			ms += stat(handMs)
		}
		return ms
	}
	if !c.trace {
		sets := float64(len(deck))
		c.set("ops_per_s", sets*1e3/deckMs(0, quietTime))
		fmt.Printf("# %d repetitions of %d sets: median %.6g ops/s\n", reps, len(deck), sets*1e3/deckMs(0, median))
		return nil
	}
	row, fib, err := stagedBuild(c, churnTopo)
	if err != nil {
		return err
	}
	stageRows{row}.report(c)
	c.set("fib.mem_mbytes", float64(fib.MemBytes())/1e6)
	var (
		applyMs [numEditKinds][]float64
		all     []float64
		swapUs  []float64
	)
	for i := range deck {
		applyMs[deck[i].kind] = append(applyMs[deck[i].kind], deck[i].applyMs...)
		all = append(all, deck[i].applyMs...)
		swapUs = append(swapUs, deck[i].swapUs...)
	}
	c.set("recompile.apply_ms_p50", median(all))
	c.set("recompile.apply_ms_p99", quantile(all, 0.99))
	c.set("recompile.apply_weight_ms_p50", median(applyMs[editWeight]))
	c.set("recompile.apply_batch_ms_p50", median(applyMs[editBatch]))
	c.set("recompile.apply_struct_ms_p50", median(applyMs[editStruct]))
	c.set("engine.swap_us_p50", median(swapUs))
	c.set("engine.swap_us_p99", quantile(swapUs, 0.99))
	c.set("recompile.dirty_dst_frac", dirty/float64(c.attempted))
	c.set("recompile.trees_repaired_per_edit", counters[dataplane.MetricRepairRepaired]/float64(edits))
	c.set("recompile.full_fallbacks", counters[dataplane.MetricRepairFullFallback])
	c.set("recompile.coalesced_frac", counters[dataplane.MetricRecompileCoalesced]/float64(edits))
	c.set("recompile.alloc_kb_per_edit", c.metrics["alloc.per_kop"]/1e3/1e3)
	c.set("recompile.vs_full_x", fullMs/median(all))
	c.set("trace_overhead_frac", 1-deckMs(0, quietTime)/deckMs(1, quietTime))
	return nil
}
