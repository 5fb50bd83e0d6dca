package sim

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"recycle/internal/core"
	"recycle/internal/graph"
	"recycle/internal/rotation"
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
			if res.DropNoRoute != 0 || res.DropTTL != 0 {
				t.Fatalf("%s/%s dropped outside the detection window: %+v", src.Name(), res.Scheme, res)
			}
			if res.Delivered+res.DropBlackhole != res.Generated {
				t.Fatalf("%s/%s unaccounted packets: %+v", src.Name(), res.Scheme, res)
			}
		}
	}
}

// TestReplaySourceEndsFlow: a finite trace emits exactly its records that
// fall before the horizon, then the flow stops. A fixed flow beside it
// emits its first packet at its Start offset and then every interval.
func TestReplaySourceEndsFlow(t *testing.T) {
	g := graph.Ring(4)
	rec := &recordingScheme{Scheme: prScheme(t, g, core.Full)}
	s, err := New(Config{
		Graph:   g,
		Scheme:  rec,
		Horizon: time.Second,
		Flows: []Flow{{Src: 0, Dst: 2, Source: traffic.Replay{Records: []traffic.Record{
			{At: 100 * time.Millisecond, Bits: 8000},
			{At: 200 * time.Millisecond, Bits: 4000},
			{At: 2 * time.Second, Bits: 8000}, // beyond horizon: never emitted
		}}}, {Src: 1, Dst: 3, Start: time.Millisecond,
			Source: traffic.Fixed{Interval: 300 * time.Millisecond, Bits: 4096}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Run()
	if st.Counter(MetricGenerated) != 6 || st.Counter(MetricDelivered) != 6 {
		t.Fatalf("generated/delivered = %d/%d; want 6/6", st.Counter(MetricGenerated), st.Counter(MetricDelivered))
	}
	want := []emission{
		{0, time.Millisecond, 4096},
		{1, 100 * time.Millisecond, 8000},
		{2, 200 * time.Millisecond, 4000},
		{3, 301 * time.Millisecond, 4096},
		{4, 601 * time.Millisecond, 4096},
		{5, 901 * time.Millisecond, 4096},
	}
	if !reflect.DeepEqual(rec.emissions, want) {
		t.Fatalf("emissions = %+v; want %+v", rec.emissions, want)
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
		{"src out of range", Config{Flows: []Flow{{Src: 9, Dst: 1, Source: traffic.Fixed{Interval: time.Millisecond}}}}, "source node 9 outside"},
		{"dst out of range", Config{Flows: []Flow{{Src: 0, Dst: -2, Source: traffic.Fixed{Interval: time.Millisecond}}}}, "destination node -2 outside"},
		{"negative start", Config{Flows: []Flow{{Src: 0, Dst: 1, Start: -time.Second, Source: traffic.Fixed{Interval: time.Millisecond}}}}, "negative start"},
		{"negative bits", Config{Flows: []Flow{{Src: 0, Dst: 1, Source: traffic.Fixed{Interval: time.Millisecond, Bits: -8}}}}, "negative bits"},
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
