package dataplane_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/graph"
	"recycle/internal/rotation"
	"recycle/internal/telemetry"
)

// virtualClock is a deterministic TxConfig.Now for pacing tests.
type virtualClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *virtualClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *virtualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

// TestTxQueuePacing: packets on one dart serialise FIFO at the link
// rate; the backlog grows by exactly one serialisation time per packet
// and drains as the clock advances.
func TestTxQueuePacing(t *testing.T) {
	clk := &virtualClock{}
	reg := telemetry.NewRegistry()
	q := dataplane.NewTxQueueDarts(4, dataplane.TxConfig{
		BandwidthBps: 8_192_000, // 8192-bit packets: 1 ms each
		MaxBacklog:   10 * time.Millisecond,
		Now:          clk.Now,
		Metrics:      reg,
	})
	for i := 1; i <= 5; i++ {
		if v := q.Send(2, 8192, nil); v != dataplane.TxSent {
			t.Fatalf("packet %d: verdict %v; want sent", i, v)
		}
		if got, want := q.Backlog(2), time.Duration(i)*time.Millisecond; got != want {
			t.Fatalf("backlog after %d packets = %v; want %v", i, got, want)
		}
	}
	// Other darts are independent.
	if q.Backlog(3) != 0 {
		t.Fatalf("dart 3 backlog = %v; want 0", q.Backlog(3))
	}
	// Draining: after 3 ms the backlog has shrunk accordingly.
	clk.Advance(3 * time.Millisecond)
	if got := q.Backlog(2); got != 2*time.Millisecond {
		t.Fatalf("backlog after drain = %v; want 2ms", got)
	}
	st := reg.Snapshot()
	if st.Counter(dataplane.MetricTxSent) != 5 || st.Counter(dataplane.MetricTxSentBits) != 5*8192 || dataplane.TxDropped(st) != 0 {
		t.Fatalf("stats = %+v; want 5 sent, none dropped", st.Counters)
	}
}

// TestTxQueueBoundedDrop: a queue never waits longer than MaxBacklog;
// the overflow packet is counted, and the queue accepts again once it
// drains.
func TestTxQueueBoundedDrop(t *testing.T) {
	clk := &virtualClock{}
	reg := telemetry.NewRegistry()
	q := dataplane.NewTxQueueDarts(2, dataplane.TxConfig{
		BandwidthBps: 8_192_000, // 1 ms per 8192-bit packet
		MaxBacklog:   3 * time.Millisecond,
		Now:          clk.Now,
		Metrics:      reg,
	})
	sent, dropped := 0, 0
	for i := 0; i < 10; i++ {
		if q.Send(0, 8192, nil) == dataplane.TxSent {
			sent++
		} else {
			dropped++
		}
	}
	// Backlog bound 3 ms at 1 ms per packet: the queue holds the packet
	// in service plus three waiting.
	if sent != 4 || dropped != 6 {
		t.Fatalf("sent/dropped = %d/%d; want 4/6", sent, dropped)
	}
	if got := reg.Snapshot().Counter(dataplane.MetricTxDropQueueFull); got != 6 {
		t.Fatalf("queue-full drops = %d; want 6", got)
	}
	// After the queue drains, transmission resumes.
	clk.Advance(4 * time.Millisecond)
	if v := q.Send(0, 8192, nil); v != dataplane.TxSent {
		t.Fatalf("post-drain verdict %v; want sent", v)
	}
}

// TestTxQueueFreshClock: only a fresh clock condemns a packet. The
// batch's reading t0 finds the dart past MaxBacklog; the fresh reading
// t1 finds it drained, so the packet is sent with no wait, starting at
// t1 — its backlog afterwards is exactly its own serialisation time, not
// the old tail's plus its own — through Send and Transmit alike.
func TestTxQueueFreshClock(t *testing.T) {
	const t0, t1 = 0, 10 * time.Millisecond
	arms := map[string]func(q *dataplane.TxQueue){
		"Send": func(q *dataplane.TxQueue) { q.Send(0, 8192, nil) },
		"Transmit": func(q *dataplane.TxQueue) {
			q.Transmit(&dataplane.Batch{Pkts: []dataplane.Packet{{Egress: 0, OK: true, Bits: 8192}}}, nil)
		},
	}
	for name, send := range arms {
		var readings []time.Duration // the next readings; the last repeats
		clock := func() time.Duration {
			now := readings[0]
			if len(readings) > 1 {
				readings = readings[1:]
			}
			return now
		}
		reg := telemetry.NewRegistry()
		q := dataplane.NewTxQueueDarts(2, dataplane.TxConfig{
			BandwidthBps: 8_192_000, // 1 ms per 8192-bit packet
			MaxBacklog:   3 * time.Millisecond,
			Now:          clock,
			Metrics:      reg,
		})
		readings = []time.Duration{t0}
		for i := 0; i < 4; i++ { // 4 ms queued: the next would wait 4 ms
			if v := q.Send(0, 8192, nil); v != dataplane.TxSent {
				t.Fatalf("%s: filling packet %d: verdict %v; want sent", name, i, v)
			}
		}
		waitsBefore := reg.Snapshot().Histograms[dataplane.MetricTxQueueWaitNs]
		readings = []time.Duration{t0, t1}
		send(q)
		snap := reg.Snapshot()
		if got := snap.Counter(dataplane.MetricTxSent); got != 5 || dataplane.TxDropped(snap) != 0 {
			t.Fatalf("%s: %d sent, %d dropped; want 5 sent, none dropped", name, got, dataplane.TxDropped(snap))
		}
		waits := snap.Histograms[dataplane.MetricTxQueueWaitNs]
		if waits.Count != waitsBefore.Count+1 || waits.Sum != waitsBefore.Sum {
			t.Fatalf("%s: the packet waited %d ns; want 0", name, waits.Sum-waitsBefore.Sum)
		}
		if got := q.Backlog(0); got != time.Millisecond {
			t.Fatalf("%s: backlog at t1 = %v; want exactly the packet's own 1ms", name, got)
		}
	}
}

// TestTxQueueLinkDownDrop: transmitting onto a down link is refused and
// counted, and does not advance the dart's clock.
func TestTxQueueLinkDownDrop(t *testing.T) {
	reg := telemetry.NewRegistry()
	q := dataplane.NewTxQueueDarts(4, dataplane.TxConfig{Now: func() time.Duration { return 0 }, Metrics: reg})
	st := dataplane.NewLinkState(2)
	st.Set(1, true)
	if v := q.Send(2, 8192, st); v != dataplane.TxDropLinkDown { // dart 2 = link 1
		t.Fatalf("verdict %v; want drop-link-down", v)
	}
	if v := q.Send(3, 8192, st); v != dataplane.TxDropLinkDown {
		t.Fatalf("reverse dart verdict %v; want drop-link-down", v)
	}
	if v := q.Send(0, 8192, st); v != dataplane.TxSent { // link 0 is up
		t.Fatalf("up-link verdict %v; want sent", v)
	}
	s := reg.Snapshot()
	if s.Counter(dataplane.MetricTxDropLinkDown) != 2 || s.Counter(dataplane.MetricTxSent) != 1 {
		t.Fatalf("stats = %+v; want 2 link-down drops, 1 sent", s.Counters)
	}
	if q.Backlog(2) != 0 {
		t.Fatal("dropped packets must not occupy the queue")
	}
}

// TestTxQueueZeroAllocs: the transmit hot path allocates nothing, batch
// (Transmit, SendBatch) and single-packet forms alike, bare or metered —
// the per-batch tally (counters and queue-wait buckets) lives on the
// sender's stack.
func TestTxQueueZeroAllocs(t *testing.T) {
	fib, _, _ := engineFixture(t)
	st := dataplane.NewLinkState(fib.NumLinks())
	b := &dataplane.Batch{Pkts: make([]dataplane.Packet, 64), Wire: make([]dataplane.WirePacket, 8)}
	for i := range b.Pkts {
		b.Pkts[i] = dataplane.Packet{Egress: rotation.DartID(i % (2 * fib.NumLinks())), OK: true, Bits: 8192}
	}
	for i := range b.Wire {
		b.Wire[i] = dataplane.WirePacket{Egress: rotation.DartID(i), Verdict: dataplane.WireForward, Buf: make([]byte, 64)}
	}
	verdicts := make([]dataplane.TxVerdict, len(b.Pkts))
	for name, reg := range map[string]*telemetry.Registry{"bare": nil, "metered": telemetry.NewRegistry()} {
		q := dataplane.NewTxQueue(fib, dataplane.TxConfig{BandwidthBps: 1e12, Metrics: reg})
		if n := testing.AllocsPerRun(100, func() { q.Transmit(b, st) }); n != 0 {
			t.Fatalf("%s: Transmit allocates %v per op; want 0", name, n)
		}
		if n := testing.AllocsPerRun(100, func() { q.Send(0, 8192, st) }); n != 0 {
			t.Fatalf("%s: Send allocates %v per op; want 0", name, n)
		}
		if n := testing.AllocsPerRun(100, func() { q.SendBatch(b.Pkts, st, verdicts) }); n != 0 {
			t.Fatalf("%s: SendBatch allocates %v per op; want 0", name, n)
		}
	}
}

// TestTxQueueConcurrentCounts: concurrent senders from many goroutines
// (the engine's shards) lose no packet to races — every send is
// accounted, batch and single-packet forms alike — while RebindDarts
// grows the dart space under them over and over: counts are kept per
// queue, not per dart space, so every batch lands in the totals
// whichever space it was paced on. Run with -race in CI.
func TestTxQueueConcurrentCounts(t *testing.T) {
	reg := telemetry.NewRegistry()
	q := dataplane.NewTxQueueDarts(8, dataplane.TxConfig{
		BandwidthBps: 1e12, // fast links: nothing drops
		MaxBacklog:   time.Second,
		Metrics:      reg,
	})
	const goroutines = 8
	const perG = 5000
	const batch = 50
	var senders sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		senders.Add(1)
		go func(g int) {
			defer senders.Done()
			if g&1 == 0 {
				for i := 0; i < perG; i++ {
					q.Send(rotation.DartID((g+i)%8), 8192, nil)
				}
				return
			}
			b := &dataplane.Batch{Pkts: make([]dataplane.Packet, batch)}
			for i := 0; i < perG; i += batch {
				for j := range b.Pkts {
					b.Pkts[j] = dataplane.Packet{Egress: rotation.DartID((g + i + j) % 8), OK: true, Bits: 8192}
				}
				q.Transmit(b, nil)
			}
		}(g)
	}
	stop := make(chan struct{})
	rebinds := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				rebinds <- n
				return
			default:
				q.RebindDarts(8 + n%64)
				n++
			}
		}
	}()
	senders.Wait()
	close(stop)
	if n := <-rebinds; n == 0 {
		t.Fatal("no rebind ran while the senders did")
	}
	st := reg.Snapshot()
	sent := st.Counter(dataplane.MetricTxSent)
	if total := sent + dataplane.TxDropped(st); total != goroutines*perG {
		t.Fatalf("accounted %d sends; want %d", total, goroutines*perG)
	}
	if st.Counter(dataplane.MetricTxSentBits) != sent*8192 {
		t.Fatalf("sent bits %d inconsistent with %d sends", st.Counter(dataplane.MetricTxSentBits), sent)
	}
	if got := st.Histograms[dataplane.MetricTxQueueWaitNs].Count; got != sent {
		t.Fatalf("queue-wait histogram holds %d observations; want one per packet sent (%d)", got, sent)
	}
}

// TestTxQueueSharedDart: G goroutines × N packets onto a single dart
// under a frozen clock, batches and single sends mixed, must leave
// exactly G·N serialisation times of backlog — a lost update to the
// dart's clock would leave less, a double claim more — with every packet
// counted once.
func TestTxQueueSharedDart(t *testing.T) {
	reg := telemetry.NewRegistry()
	q := dataplane.NewTxQueueDarts(2, dataplane.TxConfig{
		BandwidthBps: 8.192e9, // 8192-bit packets: 1 µs each
		MaxBacklog:   time.Hour,
		Now:          func() time.Duration { return 42 * time.Millisecond },
		Metrics:      reg,
	})
	const goroutines = 8
	const perG = 4000
	const batch = 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g&1 == 0 {
				for i := 0; i < perG; i++ {
					q.Send(1, 8192, nil)
				}
				return
			}
			b := &dataplane.Batch{Pkts: make([]dataplane.Packet, batch)}
			for j := range b.Pkts {
				b.Pkts[j] = dataplane.Packet{Egress: 1, OK: true, Bits: 8192}
			}
			for i := 0; i < perG; i += batch {
				q.Transmit(b, nil)
			}
		}(g)
	}
	wg.Wait()
	if got, want := q.Backlog(1), goroutines*perG*time.Microsecond; got != want {
		t.Fatalf("backlog = %v; want exactly %v", got, want)
	}
	st := reg.Snapshot()
	if got := st.Counter(dataplane.MetricTxSent); got != goroutines*perG {
		t.Fatalf("tx.sent = %d; want %d", got, goroutines*perG)
	}
	// Every claimed interval is distinct, so the waits are 0, 1, 2, … µs
	// in some order: their sum is fixed whatever the interleaving.
	const n = goroutines * perG
	if got, want := st.Histograms[dataplane.MetricTxQueueWaitNs].Sum, uint64(n*(n-1)/2*1000); got != want {
		t.Fatalf("queue waits sum to %d ns; want %d (each µs slot claimed once)", got, want)
	}
}

// TestTxQueueSubNanosecondPacing: dart clocks count link bit-times, so
// serialisation times below a nanosecond accumulate exactly. The
// nanosecond clock this replaces truncated each packet's time: at
// 400 Gb/s a 64-byte frame (1.28 ns) advanced the link by 1 ns, and a
// minimum 160-bit IPv4 frame (0.4 ns) by nothing — runts serialised for
// free, against wireFrameBits's own promise.
func TestTxQueueSubNanosecondPacing(t *testing.T) {
	q := dataplane.NewTxQueueDarts(2, dataplane.TxConfig{
		BandwidthBps: 400e9,
		MaxBacklog:   time.Second,
		Now:          func() time.Duration { return time.Minute },
	})
	const frames = 1_000_000
	within := func(got, want time.Duration) bool {
		d := got - want
		if d < 0 {
			d = -d
		}
		return d <= want/1000 // ± 0.1 %
	}
	for i := 0; i < frames; i++ {
		q.Send(0, 512, nil)
		q.Send(1, 160, nil)
	}
	if got, want := q.Backlog(0), 1280*time.Microsecond; !within(got, want) {
		t.Fatalf("10⁶ 64-byte frames at 400 Gb/s: backlog %v; want %v ± 0.1%%", got, want)
	}
	if got, want := q.Backlog(1), 400*time.Microsecond; !within(got, want) {
		t.Fatalf("10⁶ minimum frames at 400 Gb/s: backlog %v; want %v ± 0.1%%", got, want)
	}
}

// TestSampleBacklogMatchesObserve: SampleBacklog tallies each dart class
// on the stack and flushes once per call; under a frozen clock the
// histograms it leaves equal the ones Observe(Backlog(d)) leaves for
// every dart of the class, overflow bucket and idle darts included, and
// its per-class peaks are the largest of those backlogs.
func TestSampleBacklogMatchesObserve(t *testing.T) {
	clk := &virtualClock{}
	q := dataplane.NewTxQueueDarts(64, dataplane.TxConfig{
		BandwidthBps: 8_192_000, // 8192 bits a millisecond
		MaxBacklog:   time.Hour,
		Now:          clk.Now,
	})
	bounds := telemetry.ExponentialBuckets(1000, 4, 10) // the soak's backlog layout
	got, want := telemetry.NewRegistry(), telemetry.NewRegistry()
	gotFwd, gotRev := got.Histogram("fwd", bounds), got.Histogram("rev", bounds)
	wantFwd, wantRev := want.Histogram("fwd", bounds), want.Histogram("rev", bounds)
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 3; round++ {
		for d := 0; d < 64; d++ {
			if rng.Intn(4) != 0 { // a quarter of the darts stay idle
				q.Send(rotation.DartID(d), rng.Int63n(8192*400), nil) // up to 400 ms, past the last bound
			}
		}
		var peak [2]time.Duration
		for d := 0; d < 64; d++ {
			b := q.Backlog(rotation.DartID(d))
			[2]*telemetry.Histogram{wantFwd, wantRev}[d&1].Observe(int64(b))
			peak[d&1] = max(peak[d&1], b)
		}
		maxFwd, maxRev := q.SampleBacklog(gotFwd, gotRev)
		if maxFwd != peak[0] || maxRev != peak[1] {
			t.Fatalf("round %d: peaks %v/%v; want %v/%v", round, maxFwd, maxRev, peak[0], peak[1])
		}
		if g, w := got.Snapshot().Histograms, want.Snapshot().Histograms; !reflect.DeepEqual(g, w) {
			t.Fatalf("round %d: sampled histograms %+v; want %+v", round, g, w)
		}
		clk.Advance(50 * time.Millisecond)
	}
	if h := got.Snapshot().Histograms["fwd"]; h.Counts[len(bounds)] == 0 || h.Counts[0] == 0 {
		t.Fatalf("fwd counts %v: want idle darts in the first bucket and some past the last bound", h.Counts)
	}
}

// TestEngineEgressIntegration: an engine configured with a TxQueue
// transmits exactly the packets it decided OK — the end-to-end pipeline
// conserves packets: every decision is either transmitted or refused,
// none vanish between the stages.
func TestEngineEgressIntegration(t *testing.T) {
	fib, g, sys := engineFixture(t)
	reg := telemetry.NewRegistry()
	tx := dataplane.NewTxQueue(fib, dataplane.TxConfig{
		BandwidthBps: 1e12, // ample: queue drops would confuse the count
		MaxBacklog:   time.Second,
		Metrics:      reg,
	})
	results := make(chan *dataplane.Batch, 64)
	eng := dataplane.NewEngine(fib, dataplane.EngineConfig{
		Shards: 2,
		Egress: tx,
		OnDone: func(b *dataplane.Batch) { results <- b },
	})
	const batches = 50
	go func() {
		for i := 0; i < batches; i++ {
			b := &dataplane.Batch{Pkts: engineWorkload(g, sys, int64(i))}
			for !eng.Submit(b) {
				time.Sleep(time.Microsecond)
			}
		}
	}()
	decidedOK := 0
	for i := 0; i < batches; i++ {
		b := <-results
		for j := range b.Pkts {
			if b.Pkts[j].OK {
				decidedOK++
			}
		}
	}
	eng.Close()
	st := reg.Snapshot()
	if sent := st.Counter(dataplane.MetricTxSent); int(sent) != decidedOK {
		t.Fatalf("egress sent %d; engine decided %d OK", sent, decidedOK)
	}
	if dataplane.TxDropped(st) != 0 {
		t.Fatalf("unexpected egress drops: %+v", st.Counters)
	}
}

// engineWorkload mirrors the bench workload: a deterministic mixed batch
// with concrete ingress darts and explicit wire sizes.
func engineWorkload(g *graph.Graph, sys *rotation.System, seed int64) []dataplane.Packet {
	rng := rand.New(rand.NewSource(seed))
	pkts := make([]dataplane.Packet, 128)
	for i := range pkts {
		node := graph.NodeID(rng.Intn(g.NumNodes()))
		nbrs := g.Neighbors(node)
		nb := nbrs[rng.Intn(len(nbrs))]
		pkts[i] = dataplane.Packet{
			Node:    node,
			Dst:     graph.NodeID(rng.Intn(g.NumNodes())),
			Ingress: rotation.ReverseID(sys.OutgoingDart(node, nb.Link)),
			Bits:    8192,
			Hdr:     core.Header{PR: rng.Intn(4) == 0, DD: float64(rng.Intn(8))},
		}
	}
	return pkts
}

// TestTxCollectorsAccumulate is the regression test for the tx.*
// collector collision: two TxQueues sharing one registry (an engine
// rebuild, a soak restart) must *sum* into the tx.* counters. The
// pre-fix collectors SetCounter'd the same names, so the snapshot
// reported only whichever queue's collector ran last.
func TestTxCollectorsAccumulate(t *testing.T) {
	reg := telemetry.NewRegistry()
	now := func() time.Duration { return 0 }
	q1 := dataplane.NewTxQueueDarts(2, dataplane.TxConfig{Metrics: reg, Now: now, BandwidthBps: 1e12})
	q2 := dataplane.NewTxQueueDarts(2, dataplane.TxConfig{Metrics: reg, Now: now, BandwidthBps: 1e12})

	for i := 0; i < 3; i++ {
		if v := q1.Send(0, 8192, nil); v != dataplane.TxSent {
			t.Fatalf("q1 send: %v", v)
		}
	}
	for i := 0; i < 5; i++ {
		if v := q2.Send(1, 8192, nil); v != dataplane.TxSent {
			t.Fatalf("q2 send: %v", v)
		}
	}

	s := reg.Snapshot()
	if got := s.Counter(dataplane.MetricTxSent); got != 8 {
		t.Fatalf("tx.sent = %d; want 8 (3 from q1 + 5 from q2, not last-writer-wins)", got)
	}
	if got := s.Counter(dataplane.MetricTxSentBits); got != 8*8192 {
		t.Fatalf("tx.sent_bits = %d; want %d", got, 8*8192)
	}
}

// TestTxQueueRebindCarriesPacing: RebindDarts grows the dart space and
// every dart keeps its pacing clock (a busy queue keeps draining at the
// link rate, it does not reset to idle), the new darts start idle, a
// smaller size changes nothing, and the counts made before the rebind
// stay.
func TestTxQueueRebindCarriesPacing(t *testing.T) {
	now := func() time.Duration { return 0 }
	reg := telemetry.NewRegistry()
	q := dataplane.NewTxQueueDarts(4, dataplane.TxConfig{
		BandwidthBps: 8192, // 1 packet of 8192 bits per second
		MaxBacklog:   time.Hour,
		Now:          now,
		Metrics:      reg,
	})
	// Two packets on link 0's forward dart: backlog = 2 s after.
	q.Send(0, 8192, nil)
	q.Send(0, 8192, nil)
	if b := q.Backlog(0); b != 2*time.Second {
		t.Fatalf("pre-rebind backlog %v; want 2s", b)
	}

	// Rebind: a link is appended, the dart space grows to 6.
	q.RebindDarts(6)
	if q.NumDarts() != 6 {
		t.Fatalf("NumDarts = %d; want 6", q.NumDarts())
	}
	if b := q.Backlog(0); b != 2*time.Second {
		t.Fatalf("carried backlog on dart 0 %v; want 2s", b)
	}
	if b := q.Backlog(4); b != 0 {
		t.Fatalf("new dart 4 starts with backlog %v", b)
	}
	if q.RebindDarts(2); q.NumDarts() != 6 {
		t.Fatalf("a smaller rebind shrank the dart space to %d", q.NumDarts())
	}
	if got := reg.Snapshot().Counter(dataplane.MetricTxSent); got != 2 {
		t.Fatalf("sends made before the rebind lost: %d", got)
	}
	if b := q.MaxBacklog(); b != 2*time.Second {
		t.Fatalf("MaxBacklog = %v; want 2s", b)
	}
}
