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
//
// Every timed event waits on one Calendar: a value-typed min-heap that
// orders by instant, then by schedule order, so one seed replays one
// run. The soak's pump schedules its flows' emissions on the same type.
package sim

import "recycle/internal/graph"

// eventKind discriminates queue entries.
type eventKind uint8

const (
	evArrive   eventKind = iota // packet arrives at a node
	evGenerate                  // flow emits its next packet
	evLinkDown                  // physical link failure
	evLinkUp                    // physical link repair
	evDetect                    // routers adjacent to a link learn its state
	evConverge                  // reconvergence completes network-wide
)

// event is one scheduled occurrence, queued by value on the simulator's
// Calendar, which orders it by instant and then by schedule order.
type event struct {
	pkt  *Packet      // evArrive
	gen  uint64       // evDetect: link state generation; stale events no-op
	flow int          // evGenerate
	node graph.NodeID // evArrive
	link graph.LinkID // evLinkDown / evLinkUp / evDetect
	kind eventKind
	down bool // evDetect: new state
}
