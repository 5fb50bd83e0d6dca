package failure

import (
	"sort"
	"time"

	"recycle/internal/graph"
)

// Oracle answers connectivity questions about a scenario: given the
// physical link state the scenario imposes at an instant (or across an
// interval), is a src–dst pair connected? It is the referee of the
// paper's guarantee — a packet loss is *excusable* exactly when the pair
// was physically disconnected at some point of the packet's lifetime; a
// loss while the pair stayed connected throughout is a *violation* that
// counts against the scheme.
//
// The oracle indexes the identical normalised event sequence that
// Simulator.ApplyScenario schedules (Scenario.Events), so the referee
// and the replay can never disagree about which links were down when.
type Oracle struct {
	g *graph.Graph
	// starts[i] is the instant epoch i begins; epoch 0 starts at 0 with
	// no scenario failures. sets[i] is the failure set live throughout
	// [starts[i], starts[i+1]).
	starts []time.Duration
	sets   []*graph.FailureSet
	// reach caches per-epoch reachability closures, filled lazily: one
	// BFS answers every dst query for that (epoch, src) pair.
	reach map[reachKey][]bool
}

type reachKey struct {
	epoch int
	src   graph.NodeID
}

// NewOracle indexes a scenario's link-state timeline over a graph.
func NewOracle(g *graph.Graph, sc *Scenario) (*Oracle, error) {
	events, err := sc.Events(g)
	if err != nil {
		return nil, err
	}
	o := &Oracle{
		g:      g,
		starts: []time.Duration{0},
		sets:   []*graph.FailureSet{graph.NewFailureSet()},
		reach:  make(map[reachKey][]bool),
	}
	cur := graph.NewFailureSet()
	for i := 0; i < len(events); {
		at := events[i].At
		// Fold every transition at this instant into one epoch boundary.
		for i < len(events) && events[i].At == at {
			if events[i].Down {
				cur.Add(events[i].Link)
			} else {
				cur.Remove(events[i].Link)
			}
			i++
		}
		if at == 0 {
			// Outages starting at t=0: epoch 0 already covers the instant.
			o.sets[0] = cur.Clone()
			continue
		}
		o.starts = append(o.starts, at)
		o.sets = append(o.sets, cur.Clone())
	}
	return o, nil
}

// epochAt returns the index of the epoch containing instant t.
func (o *Oracle) epochAt(t time.Duration) int {
	// First start > t, minus one; starts[0] == 0 bounds the search.
	i := sort.Search(len(o.starts), func(i int) bool { return o.starts[i] > t })
	return i - 1
}

// FailuresAt returns the scenario's failure set live at instant t. The
// caller must not mutate it.
func (o *Oracle) FailuresAt(t time.Duration) *graph.FailureSet {
	if t < 0 {
		t = 0
	}
	return o.sets[o.epochAt(t)]
}

// connectedEpoch answers reachability for one epoch, caching the BFS
// closure from src so repeated queries (every packet of a flow) are one
// map lookup.
func (o *Oracle) connectedEpoch(epoch int, src, dst graph.NodeID) bool {
	key := reachKey{epoch: epoch, src: src}
	r, ok := o.reach[key]
	if !ok {
		r = graph.ReachableUnder(o.g, src, o.sets[epoch])
		o.reach[key] = r
	}
	return r[dst]
}

// ConnectedAt reports whether src and dst are physically connected at
// instant t under the scenario.
func (o *Oracle) ConnectedAt(src, dst graph.NodeID, t time.Duration) bool {
	if t < 0 {
		t = 0
	}
	return o.connectedEpoch(o.epochAt(t), src, dst)
}

// ConnectedThroughout reports whether src and dst stayed connected at
// every instant of [from, to]. This is the violation predicate: a packet
// created at from and lost at to whose pair was connected throughout had
// a live path at all times — its loss counts against the scheme. A pair
// disconnected in any overlapping epoch excuses the loss.
func (o *Oracle) ConnectedThroughout(src, dst graph.NodeID, from, to time.Duration) bool {
	if from < 0 {
		from = 0
	}
	if to < from {
		to = from
	}
	for e := o.epochAt(from); e < len(o.starts) && o.starts[e] <= to; e++ {
		if !o.connectedEpoch(e, src, dst) {
			return false
		}
	}
	return true
}

// StableThroughout reports whether the scenario's link state held
// constant over (from, to] — no failure or repair took effect strictly
// after from and up to to. A transition exactly at from does not count:
// a packet created in the same instant a link flips lives entirely under
// the new state. A to before from reads as from, as in
// ConnectedThroughout. This is the paper's guarantee regime
// discriminator: §1 promises zero loss for any *static* failure
// combination that leaves the pair connected, while §7 separately
// discusses (and damps) the transients of packets in flight across a
// state change.
func (o *Oracle) StableThroughout(from, to time.Duration) bool {
	if from < 0 {
		from = 0
	}
	if to < from {
		to = from
	}
	return o.epochAt(from) == o.epochAt(to)
}

// Loss is the referee's class for one lost packet. Its values index a
// per-class counter array.
type Loss uint8

const (
	// LossViolation: the pair stayed connected and the link state held
	// still over the packet's lifetime — the loss counts against the
	// scheme.
	LossViolation Loss = iota
	// LossTransient: the pair stayed connected, but a failure or repair
	// took effect mid-flight (§7's damped regime).
	LossTransient
	// LossExcused: the pair was partitioned at some instant of the
	// packet's lifetime; no scheme delivers across a partition.
	LossExcused
)

// Classify referees a packet from src to dst created at from and lost at
// to: excused when the pair was cut at any instant of [from, to],
// transient when a transition took effect in (from, to], a violation
// otherwise.
func (o *Oracle) Classify(src, dst graph.NodeID, from, to time.Duration) Loss {
	switch {
	case !o.ConnectedThroughout(src, dst, from, to):
		return LossExcused
	case !o.StableThroughout(from, to):
		return LossTransient
	}
	return LossViolation
}

// Epochs returns the number of distinct link-state periods the scenario
// induces (≥ 1; epoch 0 is the pre-failure state).
func (o *Oracle) Epochs() int { return len(o.starts) }
