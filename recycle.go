// Package recycle is a Go implementation of Packet Re-cycling (PR), the
// fast-reroute technique of Lor, Landa and Rio, "Packet Re-cycling:
// Eliminating Packet Losses due to Network Failures" (HotNets 2010).
//
// PR extends conventional shortest-path routing with a recovery mode built
// on a cellular embedding of the network graph: every unidirectional link
// belongs to exactly one oriented cycle of the embedding, and the cycle
// through the reverse link is a ready-made bypass. One header bit (the PR
// bit) switches a packet into cycle following; ⌈log2 d⌉ more (the DD bits)
// carry the distance discriminator that guarantees termination under
// arbitrary connectivity-preserving failure combinations.
//
// # Quick start
//
//	net, err := recycle.FromTopology("abilene")
//	if err != nil { ... }
//	fails := recycle.NewFailureSet(net.MustLinkBetween("Denver", "KansasCity"))
//	res := net.Route("Seattle", "NewYork", fails)
//	fmt.Println(res.Outcome, res.Stretch)
//
// The package is a façade over the internal implementation:
//
//   - internal/graph      — graph substrate, shortest paths, failures
//   - internal/rotation   — rotation systems, faces, genus
//   - internal/embedding  — planar / greedy / annealing embedders
//   - internal/route      — routing tables and distance discriminators
//   - internal/core       — the PR protocol itself
//   - internal/fcp        — Failure-Carrying Packets baseline
//   - internal/reconv     — reconvergence baseline
//   - internal/sim        — discrete-event simulator
//   - internal/traffic    — the one arrival generator (fixed, Poisson,
//     MMPP, bounded-Pareto sizes, trace replay)
//   - internal/eval       — the paper's Figure 2 / §6 experiment harness
//   - internal/header     — DSCP pool-2 wire encoding
//   - internal/dataplane  — compiled FIB, wire fast path, sharded engine
//     with per-dart egress transmit queues
//   - internal/telemetry  — zero-alloc metrics registry, per-packet
//     flight recorder, per-epoch counter timelines
package recycle

import (
	"io"
	"net/netip"

	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/embedding"
	"recycle/internal/graph"
	"recycle/internal/header"
	"recycle/internal/rotation"
	"recycle/internal/route"
	"recycle/internal/topo"
	"recycle/internal/traffic"
)

// Graph is a weighted undirected network graph.
type Graph = graph.Graph

// NodeID identifies a node of a Graph.
type NodeID = graph.NodeID

// LinkID identifies an undirected link of a Graph.
type LinkID = graph.LinkID

// NoLink is the invalid link index, returned by lookups that find no
// link.
const NoLink = graph.NoLink

// FailureSet is a set of failed (bidirectional) links.
type FailureSet = graph.FailureSet

// NewFailureSet builds a failure set from link IDs.
func NewFailureSet(links ...LinkID) *FailureSet { return graph.NewFailureSet(links...) }

// NewGraph returns an empty mutable graph with capacity hints.
func NewGraph(nodes, links int) *Graph { return graph.New(nodes, links) }

// RotationSystem is a cellular embedding of a graph on an orientable
// surface, expressed as cyclic neighbour orders.
type RotationSystem = rotation.System

// DartID identifies a directed half of an undirected link: dart 2l is
// link l oriented A→B, dart 2l+1 is B→A.
type DartID = rotation.DartID

// NoDart is the invalid dart index (a packet at its origin has no
// ingress dart).
const NoDart = rotation.NoDart

// Embedder computes rotation systems: a network without its own
// embedding is embedded exactly when planar (genus 0), by greedy and
// annealing heuristics otherwise.
type Embedder = embedding.Embedder

// Discriminator selects PR's distance-discriminator function.
type Discriminator = route.Discriminator

// Discriminator choices (paper §4.3).
const (
	// HopCount discriminates by hops along the shortest path (default).
	HopCount = route.HopCount
	// WeightSum discriminates by total link weight along the shortest path.
	WeightSum = route.WeightSum
)

// Variant selects the PR termination rule.
type Variant = core.Variant

// Protocol variants (paper §4.2 and §4.3).
const (
	// Basic covers any single link failure on 2-edge-connected networks.
	Basic = core.Basic
	// Full covers any connectivity-preserving failure combination.
	Full = core.Full
)

// Header is PR's per-packet state: the PR bit and DD bits.
type Header = core.Header

// Result is a completed packet walk with its transcript and stretch.
type Result = core.Result

// Step is one node's handling of a packet within a Result.
type Step = core.Step

// Outcome classifies how a walk ended.
type Outcome = core.Outcome

// Walk outcomes.
const (
	// Delivered: the packet reached its destination.
	Delivered = core.Delivered
	// Looped: a forwarding loop was detected.
	Looped = core.Looped
	// Isolated: a router had every incident link failed.
	Isolated = core.Isolated
	// NoRoute: no failure-free route existed to begin with.
	NoRoute = core.NoRoute
)

// FIB is a compiled forwarding table: the network's routing state
// flattened into dense arrays for allocation-free constant-time per-hop
// decisions. Build one with Network.Compile.
type FIB = dataplane.FIB

// LinkState is the dataplane's bitset of locally detected link failures,
// the compiled counterpart of FailureSet.
type LinkState = dataplane.LinkState

// LinkStateFrom compiles a FailureSet (nil for all up) into a LinkState
// for fib. A link the network's graph has removed is down in it for good:
// its darts keep their places in fib's cycle tables, so fib decides right
// only under a state that holds it down.
func LinkStateFrom(fib *FIB, f *FailureSet) *LinkState { return fib.LinkState(f) }

// Packet is the dataplane engine's unit of work: one forwarding decision.
type Packet = dataplane.Packet

// Batch is a slice of dataplane packets handed to the engine together.
type Batch = dataplane.Batch

// WireVerdict classifies the outcome of one wire-path forwarding step;
// see FIB.ForwardWire.
type WireVerdict = dataplane.WireVerdict

// Wire-path verdicts.
const (
	// WireForward: packet rewritten in place; transmit on the returned dart.
	WireForward = dataplane.WireForward
	// WireDeliver: the destination address is this node.
	WireDeliver = dataplane.WireDeliver
	// WireDropTTL: the TTL (hop limit) reached zero.
	WireDropTTL = dataplane.WireDropTTL
	// WireDropNoRoute: no usable egress.
	WireDropNoRoute = dataplane.WireDropNoRoute
	// WireDropNotIP: neither a 20-byte-header IPv4 packet nor a
	// fixed-header IPv6 packet.
	WireDropNotIP = dataplane.WireDropNotIP
	// WireDropNotOurs: destination outside the node address plan.
	WireDropNotOurs = dataplane.WireDropNotOurs
	// WireDropCodecMismatch: the packet's address family cannot carry this
	// network's quantised discriminator code (IPv4 DSCP on a flow-label
	// network). Traffic in the network's own family never hits it.
	WireDropCodecMismatch = dataplane.WireDropCodecMismatch
	// WireDropBadMark: a PR mark that is impossible by protocol.
	WireDropBadMark = dataplane.WireDropBadMark
)

// WireCodec identifies the wire encoding a compiled network stamps PR
// marks with, selected automatically at Compile time; see FIB.Codec.
type WireCodec = dataplane.Codec

// Wire codecs.
const (
	// CodecDSCP: IPv4 DSCP pool 2, 3 DD bits — chosen when every
	// quantised discriminator fits (hop diameter ≤ 7).
	CodecDSCP = dataplane.CodecDSCP
	// CodecFlowLabel: IPv6 flow label, 17 DD bits — the escape hatch for
	// larger diameters and weight-sum discriminators.
	CodecFlowLabel = dataplane.CodecFlowLabel
)

// NodeAddr returns the IPv4 address the wire path's node plan assigns to n.
func NodeAddr(n NodeID) netip.Addr { return dataplane.NodeAddr(n) }

// NodeAddr6 returns the IPv6 address the wire path's node plan assigns to n.
func NodeAddr6(n NodeID) netip.Addr { return dataplane.NodeAddr6(n) }

// IPv4 is the minimal checksum-correct IPv4 header codec the wire path
// forwards; use it to craft and inspect packets fed to FIB.ForwardWire.
type IPv4 = header.IPv4

// IPv6 is the minimal IPv6 header codec the wire path forwards on
// flow-label-codec networks.
type IPv6 = header.IPv6

// Mark is the PR header state carried in the DSCP pool-2 field (IPv4) or
// the flow label (IPv6).
type Mark = header.Mark

// Quantiser is the order-preserving rank bucketisation of distance
// discriminators that makes any topology's DD wire-encodable; Compile
// applies it automatically, and Network.Quantiser exposes it for
// inspection.
type Quantiser = core.Quantiser

// WirePacket is one raw frame on the engine's byte-level fast path; see
// Batch.Wire and FIB.ForwardWireBatch.
type WirePacket = dataplane.WirePacket

// Engine is the sharded dataplane forwarding engine: worker goroutines
// draining batched packet rings against an atomically swapped LinkState
// snapshot.
type Engine = dataplane.Engine

// EngineConfig parameterises NewEngine.
type EngineConfig = dataplane.EngineConfig

// NewEngine starts a forwarding engine over a compiled FIB.
func NewEngine(fib *FIB, cfg EngineConfig) *Engine { return dataplane.NewEngine(fib, cfg) }

// Egress is the engine pipeline's transmit stage: it receives every
// decided batch, with the link-state snapshot it was decided under,
// before OnDone. TxQueue is the built-in implementation.
type Egress = dataplane.Egress

// TxQueue is the built-in Egress: one bounded, link-rate-paced transmit
// queue per dart, preserving per-link-direction FIFO delivery order.
type TxQueue = dataplane.TxQueue

// TxConfig parameterises NewTxQueue.
type TxConfig = dataplane.TxConfig

// TxVerdict classifies one transmit attempt; see TxQueue.Send and TxQueue.SendBatch.
type TxVerdict = dataplane.TxVerdict

// Transmit verdicts.
const (
	// TxSent: the packet was serialised onto its egress link.
	TxSent = dataplane.TxSent
	// TxDropQueueFull: the per-dart queue exceeded its backlog bound.
	TxDropQueueFull = dataplane.TxDropQueueFull
	// TxDropLinkDown: the egress link is marked down in the snapshot.
	TxDropLinkDown = dataplane.TxDropLinkDown
)

// NewTxQueue builds per-dart transmit queues for a compiled FIB's links.
func NewTxQueue(fib *FIB, cfg TxConfig) *TxQueue { return dataplane.NewTxQueue(fib, cfg) }

// TrafficSource is an immutable description of one flow's arrival
// process. Every harness compiles it into the one traffic generator,
// which seeds flow k from the source's Seed and k alone, so the same
// source drives many runs identically. Implementations: FixedTraffic,
// PoissonTraffic, ReplayTraffic, or any spec ParseTrafficSpec reads.
type TrafficSource = traffic.Source

// SizeDist maps a uniform draw from a flow's own generator to a packet
// size, composable with Poisson/MMPP arrivals; implementations:
// FixedSize, BoundedPareto.
type SizeDist = traffic.SizeDist

// FixedTraffic emits fixed-size packets at a fixed interval, the first
// at the flow's start.
type FixedTraffic = traffic.Fixed

// PoissonTraffic emits packets with exponential inter-arrival times.
type PoissonTraffic = traffic.Poisson

// ReplayTraffic re-emits a recorded packet trace.
type ReplayTraffic = traffic.Replay

// FixedSize is the degenerate size distribution (every packet equal).
type FixedSize = traffic.FixedSize

// BoundedPareto draws heavy-tailed packet sizes truncated to
// [MinBits, MaxBits].
type BoundedPareto = traffic.BoundedPareto

// ParseTrafficSpec parses a textual source specification such as
// "poisson:rate=2430", "mmpp:on=12150,off=0,dwell=20ms/80ms",
// "fixed:interval=1ms,bits=8192" or "replay:trace.txt".
func ParseTrafficSpec(spec string) (TrafficSource, error) { return traffic.ParseSpec(spec) }

// ReadTrafficTrace parses a textual packet trace (`<seconds> <bytes>`
// per line) into a ReplayTraffic source.
func ReadTrafficTrace(r io.Reader) (ReplayTraffic, error) { return traffic.ReadTrace(r) }

// Edit is one planned topology change — a link weight shift, addition or
// removal — consumed by Network.Update and the incremental Recompiler.
type Edit = graph.Edit

// SetWeight returns the edit changing link l's weight to w.
func SetWeight(l LinkID, w float64) Edit { return graph.SetWeight(l, w) }

// AddLink returns the edit adding an a–b link of weight w.
func AddLink(a, b NodeID, w float64) Edit { return graph.AddLinkEdit(a, b, w) }

// RemoveLink returns the edit removing link l. No link ID moves: l stays
// in the graph as a removed link, down for good, and an AddLink between
// its endpoints revives it.
func RemoveLink(l LinkID) Edit { return graph.RemoveLinkEdit(l) }

// TopologyDelta is the product of one delta recompilation: the edited
// network's forwarding state plus the bookkeeping Engine.ApplyDelta needs
// to hot-swap onto it.
type TopologyDelta = dataplane.Delta

// Recompiler performs incremental FIB recompilation across chained edit
// sets; see Network.Recompiler and Network.Update.
type Recompiler = dataplane.Recompiler

// Topology bundles a named graph with optional embedding metadata.
type Topology = topo.Topology

// BuiltinTopologies lists the names accepted by FromTopology: the paper's
// Figure 1 example and the three evaluation ISP backbones.
func BuiltinTopologies() []string { return topo.Names() }
