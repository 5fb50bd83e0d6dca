package sim

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"recycle/internal/core"
	"recycle/internal/graph"
	"recycle/internal/rotation"
	"recycle/internal/telemetry"
	"recycle/internal/topo"
	"recycle/internal/traffic"
)

// emission records one packet's birth, observed at its origin router.
type emission struct {
	id   int64
	at   time.Duration
	bits int
}

// recordingScheme wraps a Scheme and records every packet's first Process
// call (hop 0 at its source node) — the emission schedule, observable
// without any simulator test hook.
type recordingScheme struct {
	Scheme
	emissions []emission
}

func (r *recordingScheme) Process(s *Simulator, node graph.NodeID, pkt *Packet) (rotation.DartID, core.Event, bool) {
	if node == pkt.Src && pkt.Hops == 0 {
		r.emissions = append(r.emissions, emission{id: pkt.ID, at: pkt.Created, bits: pkt.Bits})
	}
	return r.Scheme.Process(s, node, pkt)
}

// TestFixedSourceDifferential pins the refactor's contract: a flow driven
// by traffic.Fixed reproduces the legacy fixed-interval Flow *exactly* —
// same per-packet emission times, IDs and sizes, same aggregate stats —
// on a run that includes a failure and recovery.
func TestFixedSourceDifferential(t *testing.T) {
	tp := topo.Abilene(topo.UnitWeights)
	g := tp.Graph

	run := func(source traffic.Source) (*telemetry.Snapshot, []emission) {
		rec := &recordingScheme{Scheme: prScheme(t, g, core.Full)}
		flows := []Flow{
			{Src: 0, Dst: 5, Interval: 3 * time.Millisecond, Start: time.Millisecond, Source: source},
			{Src: 2, Dst: 8, Interval: 7 * time.Millisecond, Bits: 4096, Source: source},
		}
		if source != nil {
			// Mirror each legacy flow's parameters in its source.
			flows[0].Source = traffic.Fixed{Interval: 3 * time.Millisecond}
			flows[1].Source = traffic.Fixed{Interval: 7 * time.Millisecond, Bits: 4096}
		}
		s, err := New(Config{
			Graph:          g,
			Scheme:         rec,
			Horizon:        400 * time.Millisecond,
			DetectionDelay: 20 * time.Millisecond,
			Flows:          flows,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.FailLinkAt(0, 100*time.Millisecond)
		s.RepairLinkAt(0, 250*time.Millisecond)
		return s.Run(), rec.emissions
	}

	legacyStats, legacyEmit := run(nil)
	sourceStats, sourceEmit := run(traffic.Fixed{}) // sentinel; per-flow sources set inside

	if len(legacyEmit) == 0 {
		t.Fatal("legacy run emitted nothing")
	}
	if !reflect.DeepEqual(legacyEmit, sourceEmit) {
		for i := range legacyEmit {
			if i >= len(sourceEmit) || legacyEmit[i] != sourceEmit[i] {
				t.Fatalf("emission %d differs: legacy %+v vs source %+v (of %d/%d)",
					i, legacyEmit[i], sourceEmit[i], len(legacyEmit), len(sourceEmit))
			}
		}
		t.Fatalf("emission counts differ: legacy %d vs source %d", len(legacyEmit), len(sourceEmit))
	}
	if !reflect.DeepEqual(legacyStats, sourceStats) {
		t.Fatalf("stats differ:\nlegacy %+v\nsource %+v", legacyStats, sourceStats)
	}
}

// TestPoissonSourceDrivesSimulator: Poisson traffic through the
// interpreted PR scheme delivers everything on a healthy network, at
// roughly the configured rate.
func TestPoissonSourceDrivesSimulator(t *testing.T) {
	g := graph.Ring(6)
	s, err := New(Config{
		Graph:   g,
		Scheme:  prScheme(t, g, core.Full),
		Horizon: time.Second,
		Flows: []Flow{
			{Src: 0, Dst: 3, Source: traffic.Poisson{Rate: 2000, Seed: 1}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Run()
	if DeliveryRate(st) != 1 {
		t.Fatalf("delivery rate = %v; want 1 without failures", DeliveryRate(st))
	}
	// ~2000 packets in 1 s; ±10% covers Poisson variation at this seed.
	if st.Counter(MetricGenerated) < 1800 || st.Counter(MetricGenerated) > 2200 {
		t.Fatalf("generated = %d; want ≈2000", st.Counter(MetricGenerated))
	}
}

// TestSourcesDriveCompiledEngine: Poisson, MMPP and replay sources drive
// the compiled dataplane — both the FIB scheme and the byte-level wire
// scheme — through a failure, with PR losing only the detection window.
func TestSourcesDriveCompiledEngine(t *testing.T) {
	tp := topo.Abilene(topo.UnitWeights)
	g := tp.Graph
	fib := prScheme(t, g, core.Full).FIB
	sources := []traffic.Source{
		traffic.Poisson{Rate: 1000, Seed: 7},
		traffic.MMPP{RateOn: 5000, MeanOn: 20 * time.Millisecond, MeanOff: 80 * time.Millisecond, Seed: 7},
		traffic.Replay{Records: []traffic.Record{
			{At: 0, Bits: 8192}, {At: 400 * time.Millisecond, Bits: 512},
			{At: 900 * time.Millisecond, Bits: 12000}, {At: 1500 * time.Millisecond, Bits: 8192},
		}},
	}
	for _, src := range sources {
		for _, scheme := range []Scheme{
			&PRScheme{FIB: fib},
			&WirePRScheme{FIB: fib},
		} {
			res, err := RunLossWindowTraffic(Config{
				Graph:          g,
				Scheme:         scheme,
				Horizon:        2 * time.Second,
				DetectionDelay: 50 * time.Millisecond,
			}, g.NodeByName("Seattle"), g.NodeByName("LosAngeles"), src, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if res.Traffic != src.Name() {
				t.Fatalf("traffic name = %q; want %q", res.Traffic, src.Name())
			}
			if res.Generated == 0 {
				t.Fatalf("%s/%s generated nothing", src.Name(), res.Scheme)
			}
			if res.NoRoute != 0 || res.TTL != 0 {
				t.Fatalf("%s/%s dropped outside the detection window: %+v", src.Name(), res.Scheme, res)
			}
			if res.Delivered+res.Blackhole != res.Generated {
				t.Fatalf("%s/%s unaccounted packets: %+v", src.Name(), res.Scheme, res)
			}
		}
	}
}

// TestReplaySourceEndsFlow: a finite trace emits exactly its records that
// fall before the horizon, then the flow stops.
func TestReplaySourceEndsFlow(t *testing.T) {
	g := graph.Ring(4)
	s, err := New(Config{
		Graph:   g,
		Scheme:  prScheme(t, g, core.Full),
		Horizon: time.Second,
		Flows: []Flow{{Src: 0, Dst: 2, Source: traffic.Replay{Records: []traffic.Record{
			{At: 100 * time.Millisecond, Bits: 8000},
			{At: 200 * time.Millisecond, Bits: 4000},
			{At: 2 * time.Second, Bits: 8000}, // beyond horizon: never emitted
		}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Run()
	if st.Counter(MetricGenerated) != 2 || st.Counter(MetricDelivered) != 2 {
		t.Fatalf("generated/delivered = %d/%d; want 2/2", st.Counter(MetricGenerated), st.Counter(MetricDelivered))
	}
}

// TestFlowValidation: bad flow and source parameters fail New with
// descriptive errors instead of panicking mid-run.
func TestFlowValidation(t *testing.T) {
	g := graph.Ring(4)
	scheme := prScheme(t, g, core.Full)
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"src out of range", Config{Flows: []Flow{{Src: 9, Dst: 1, Interval: time.Millisecond}}}, "source node 9 outside"},
		{"dst out of range", Config{Flows: []Flow{{Src: 0, Dst: -2, Interval: time.Millisecond}}}, "destination node -2 outside"},
		{"negative start", Config{Flows: []Flow{{Src: 0, Dst: 1, Interval: time.Millisecond, Start: -time.Second}}}, "negative start"},
		{"negative bits", Config{Flows: []Flow{{Src: 0, Dst: 1, Interval: time.Millisecond, Bits: -8}}}, "negative bits"},
		{"negative rate source", Config{Flows: []Flow{{Src: 0, Dst: 1, Source: traffic.Poisson{Rate: -10}}}}, "non-positive rate"},
		{"zero burst source", Config{Flows: []Flow{{Src: 0, Dst: 1, Source: traffic.MMPP{RateOn: 10, MeanOff: time.Second}}}}, "burst length must be positive"},
		{"negative bandwidth", Config{BandwidthBps: -1}, "negative bandwidth"},
		{"negative detection", Config{DetectionDelay: -time.Second}, "negative detection delay"},
		{"negative holddown", Config{HoldDown: -time.Second}, "negative hold-down"},
		{"negative ttl", Config{TTL: -1}, "negative TTL"},
	}
	for _, c := range cases {
		cfg := c.cfg
		cfg.Graph = g
		cfg.Scheme = scheme
		cfg.Horizon = time.Second
		_, err := New(cfg)
		if err == nil {
			t.Fatalf("%s: New accepted the config", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not contain %q", c.name, err, c.want)
		}
	}
}
