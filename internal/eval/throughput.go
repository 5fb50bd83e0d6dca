package eval

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/graph"
	"recycle/internal/header"
	"recycle/internal/rotation"
	"recycle/internal/telemetry"
	"recycle/internal/traffic"
)

// ThroughputConfig parameterises the compiled-dataplane throughput
// report. Of the embedded Panel the first topology, Seed (the workload
// mix and the traffic source's default seed) and Metrics are consumed.
type ThroughputConfig struct {
	Panel
	// Shards is the engine worker count (0 = engine default).
	Shards int
	// Packets is the decision count per phase.
	Packets int
	// BatchSize is packets per engine batch (default 256).
	BatchSize int
	// Wire runs raw packet bytes — IPv4 or IPv6 frames matching the
	// codec Compile selected — through ForwardWire's byte-rewriting path
	// instead of abstract packets.
	Wire bool
	// BandwidthBps is the egress per-link bandwidth of the end-to-end
	// phase.
	BandwidthBps float64
	// Traffic optionally names a traffic source (traffic.ParseSpec
	// grammar) whose size distribution shapes the abstract packets, so
	// egress pacing sees the configured mix instead of uniform packets.
	Traffic string
}

// WriteThroughputReport measures the compiled dataplane over a realistic
// mix of shortest-path and cycle-following packets, with one link failed
// so recovery branches are exercised. It runs the identical workload
// twice — decide-only (the bare engine, for comparability) and
// end-to-end through the egress stage's per-dart paced transmit queues —
// and reports both rates plus the transmit-queue drop counts.
func WriteThroughputReport(w io.Writer, cfg ThroughputConfig) error {
	cfg.Panel = cfg.Panel.withDefaults("")
	tp, err := cfg.first()
	if err != nil {
		return err
	}
	var source traffic.Source
	var sizes *traffic.Process
	if cfg.Traffic != "" {
		if source, err = traffic.ParseSpecSeeded(cfg.Traffic, cfg.Seed); err != nil {
			return err
		}
		if sizes, err = traffic.Compile(source); err != nil {
			return err
		}
	}
	st, err := buildStack(tp, dataplane.CompileOptions{})
	if err != nil {
		return err
	}
	g, sys, fib := st.g, st.sys, st.fib
	batchSize := cfg.BatchSize
	if batchSize < 1 {
		batchSize = 256
	}
	batches := (cfg.Packets + batchSize - 1) / batchSize

	// runPhase replays the same pre-generated workload through a fresh
	// engine, with or without an egress stage. engShards records the
	// shard count the engine actually ran with (it applies its own
	// default when cfg.Shards is 0).
	var engShards int
	runPhase := func(egress dataplane.Egress) (uint64, time.Duration, error) {
		// free holds the whole pool, so OnDone never blocks a worker.
		const pool = 64
		free := make(chan *dataplane.Batch, pool)
		eng := dataplane.NewEngine(fib, dataplane.EngineConfig{
			Shards:  cfg.Shards,
			Egress:  egress,
			OnDone:  func(b *dataplane.Batch) { free <- b },
			Metrics: cfg.Metrics,
		})
		engShards = eng.Shards()
		eng.SetLink(0, true) // exercise detect/continue/resume branches too
		// Pre-generate the workload: a mostly-shortest-path mix with one
		// in four packets cycle following. Every packet carries a
		// concrete ingress dart, so recycled batches stay valid whatever
		// header the previous pass left behind. The same seed in both
		// phases makes them replay the identical mix.
		rng := rand.New(rand.NewSource(cfg.Seed))
		var flow traffic.State // packet sizes are one flow's successive draws
		if sizes != nil {
			flow = sizes.Flow(0)
		}
		// Wire frames mutate in place (marks, TTL, checksum); each batch
		// keeps a pristine template per frame and restores the whole
		// header every pass, so recycled batches replay the identical
		// workload — recovery branches included — instead of
		// accumulating PR marks.
		templates := make(map[*dataplane.Batch][][]byte, pool)
		for i := 0; i < pool; i++ {
			b := &dataplane.Batch{}
			if cfg.Wire {
				b.Wire = make([]dataplane.WirePacket, batchSize)
				tmpl := make([][]byte, batchSize)
				for j := range b.Wire {
					node := graph.NodeID(rng.Intn(g.NumNodes()))
					dst := graph.NodeID(rng.Intn(g.NumNodes()))
					buf, err := fib.NewWireFrame(node, dst)
					if err != nil {
						eng.Close()
						return 0, 0, err
					}
					ingress := rotation.NoDart
					if rng.Intn(4) == 0 {
						// One in four frames is mid-recovery: PR-marked
						// with a concrete ingress dart, so the
						// cycle-following branch runs in wire mode too
						// (matching the abstract workload's mix).
						nb := g.Neighbors(node)[rng.Intn(g.Degree(node))]
						ingress = rotation.ReverseID(sys.OutgoingDart(node, nb.Link))
						if err := markWireFrame(fib, buf, uint32(rng.Intn(1<<fib.DDBits()))); err != nil {
							eng.Close()
							return 0, 0, err
						}
					}
					tmpl[j] = append([]byte(nil), buf...)
					b.Wire[j] = dataplane.WirePacket{Node: node, Ingress: ingress, Buf: buf}
				}
				templates[b] = tmpl
			} else {
				b.Pkts = make([]dataplane.Packet, batchSize)
				for j := range b.Pkts {
					node := graph.NodeID(rng.Intn(g.NumNodes()))
					nb := g.Neighbors(node)[rng.Intn(g.Degree(node))]
					var bits int32
					if sizes != nil {
						if _, ok := sizes.Next(&flow); ok {
							bits = int32(sizes.Bits(&flow))
						}
					}
					b.Pkts[j] = dataplane.Packet{
						Node:    node,
						Dst:     graph.NodeID(rng.Intn(g.NumNodes())),
						Ingress: rotation.ReverseID(sys.OutgoingDart(node, nb.Link)),
						Bits:    bits,
						Hdr:     core.Header{PR: rng.Intn(4) == 0, DD: float64(rng.Intn(8))},
					}
				}
			}
			free <- b
		}
		start := time.Now()
		for i := 0; i < batches; i++ {
			b := <-free
			for j := range templates[b] {
				copy(b.Wire[j].Buf, templates[b][j])
			}
			for !eng.Submit(b) {
				// Rings full: the workers are behind; yield and retry.
				time.Sleep(10 * time.Microsecond)
			}
		}
		decided := eng.Close()
		return decided, time.Since(start), nil
	}

	unit := "decisions"
	if cfg.Wire {
		unit = "frames"
	}
	fmt.Fprintf(w, "# compiled dataplane throughput (ingest → decide → transmit)\n")
	fmt.Fprintf(w, "topology   %s (%d nodes, %d links)\n", tp.Name, g.NumNodes(), g.NumLinks())
	fmt.Fprintf(w, "codec      %s (%d DD bits)\n", fib.Codec(), fib.DDBits())
	fmt.Fprintf(w, "batch      %d packets\n", batchSize)
	if source != nil && !cfg.Wire {
		fmt.Fprintf(w, "sizes      %s\n", source.Name())
	}

	decided, elapsed, err := runPhase(nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "shards     %d\n", engShards)
	fmt.Fprintf(w, "decide-only   %d %s in %v — %.1f M %s/sec\n",
		decided, unit, elapsed.Round(time.Millisecond), float64(decided)/elapsed.Seconds()/1e6, unit)

	// The egress report reads tx.* counters, so the transmit phase always
	// gets a registry — the shared one when there is one, a private one
	// otherwise (the decide phase stays uninstrumented either way).
	txReg := cfg.Metrics
	if txReg == nil {
		txReg = telemetry.NewRegistry()
	}
	tx := dataplane.NewTxQueue(fib, dataplane.TxConfig{BandwidthBps: cfg.BandwidthBps, Metrics: txReg})
	if decided, elapsed, err = runPhase(tx); err != nil {
		return err
	}
	snap := txReg.Snapshot()
	fmt.Fprintf(w, "end-to-end    %d %s in %v — %.1f M %s/sec (egress %.0f Gb/s links)\n",
		decided, unit, elapsed.Round(time.Millisecond), float64(decided)/elapsed.Seconds()/1e6, unit, cfg.BandwidthBps/1e9)
	fmt.Fprintf(w, "egress        sent %d (%.1f Gb) | queue-full drops %d | link-down drops %d\n",
		snap.Counter(dataplane.MetricTxSent), float64(snap.Counter(dataplane.MetricTxSentBits))/1e9,
		snap.Counter(dataplane.MetricTxDropQueueFull), snap.Counter(dataplane.MetricTxDropLinkDown))
	return nil
}

// markWireFrame stamps a PR mark with the given DD code into a frame in
// place, in the frame's address family, repairing the IPv4 checksum.
func markWireFrame(fib *dataplane.FIB, buf []byte, dd uint32) error {
	if fib.Codec() == dataplane.CodecFlowLabel {
		fl, err := header.EncodeFlowLabel(header.Mark{PR: true, DD: dd})
		if err != nil {
			return err
		}
		buf[1] = buf[1]&0xF0 | byte(fl>>16)
		buf[2] = byte(fl >> 8)
		buf[3] = byte(fl)
		return nil
	}
	dscp, err := header.EncodeDSCP(header.Mark{PR: true, DD: dd})
	if err != nil {
		return err
	}
	buf[1] = dscp << 2
	buf[10], buf[11] = 0, 0
	ck := header.Checksum(buf[:header.HeaderLen])
	buf[10], buf[11] = byte(ck>>8), byte(ck)
	return nil
}
