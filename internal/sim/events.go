// Package sim is a discrete-event network simulator for comparing failure
// recovery schemes under live traffic. The paper evaluates PR with a
// Java-based simulator (§6); this package is the Go substitute. It models
// propagation and serialisation delay, FIFO link occupancy, bidirectional
// link failures with a configurable local-detection delay, and pluggable
// forwarding schemes (PR, FCP, and a reconverging IGP), and is the engine
// behind the §1 loss-window experiment: how many packets die during an
// outage under each scheme.
//
// Each input enters one way. Network state is a failure.Scenario
// (Simulator.ApplyScenario, which expands to the FailLinkAt/RepairLinkAt
// primitives and installs the packet account's referee); traffic is
// Config.Flows; the graph never changes during a run. Planned topology
// change under live traffic is exercised on the engine instead
// (dataplane.Recompiler.Apply → Engine.ApplyDelta, in the soak).
package sim

import (
	"container/heap"
	"time"

	"recycle/internal/graph"
)

// eventKind discriminates queue entries.
type eventKind int

const (
	evArrive   eventKind = iota // packet arrives at a node
	evGenerate                  // flow emits its next packet
	evLinkDown                  // physical link failure
	evLinkUp                    // physical link repair
	evDetect                    // routers adjacent to a link learn its state
	evConverge                  // reconvergence completes network-wide
)

// event is one scheduled occurrence. seq breaks time ties deterministically
// in schedule order.
type event struct {
	at   time.Duration
	seq  int64
	kind eventKind

	pkt  *Packet      // evArrive
	node graph.NodeID // evArrive
	flow int          // evGenerate
	link graph.LinkID // evLinkDown / evLinkUp / evDetect
	down bool         // evDetect: new state
	gen  uint64       // evDetect: link state generation; stale events no-op
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

var _ heap.Interface = (*eventHeap)(nil)
