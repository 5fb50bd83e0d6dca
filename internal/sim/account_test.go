package sim

import (
	"strings"
	"testing"
	"time"

	"recycle/internal/core"
	"recycle/internal/failure"
	"recycle/internal/graph"
	"recycle/internal/telemetry"
	"recycle/internal/traffic"
)

// TestAccountBalancesEveryDropReason: a run that blackholes, finds no
// route and exhausts TTLs, refereed by its scenario's oracle, balances —
// every packet generated is delivered or dropped, every drop refereed
// once — and each drop reason is exercised, so a miscount in any of
// them shows.
func TestAccountBalancesEveryDropReason(t *testing.T) {
	g := graph.Ring(6)
	var flows []Flow
	for src := 0; src < g.NumNodes(); src++ {
		for dst := 0; dst < g.NumNodes(); dst++ {
			if src != dst {
				flows = append(flows, Flow{Src: graph.NodeID(src), Dst: graph.NodeID(dst),
					Start:  time.Duration(len(flows)) * 50 * time.Microsecond,
					Source: traffic.Fixed{Interval: 2 * time.Millisecond}})
			}
		}
	}
	s, err := New(Config{
		Graph:          g,
		Scheme:         prScheme(t, g, core.Full),
		Horizon:        600 * time.Millisecond,
		DetectionDelay: 10 * time.Millisecond,
		Flows:          flows,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 is cut off from 100 ms to 400 ms: packets sent onto its
	// links before detection blackhole, packets it emits find no route,
	// and packets bound for it cycle the rest of the ring until their TTL
	// runs out.
	sc := &failure.Scenario{Name: "isolate 0", Outages: []failure.Outage{
		failure.NodeOutageAt(0, 100*time.Millisecond, 400*time.Millisecond),
	}}
	if err := s.ApplyScenario(sc); err != nil {
		t.Fatal(err)
	}
	tot := TotalsOf(s.Run())
	if err := s.Account().Check(tot, 0); err != nil {
		t.Fatal(err)
	}
	if tot.DropBlackhole == 0 || tot.DropNoRoute == 0 || tot.DropTTL == 0 {
		t.Fatalf("want every drop reason exercised: %+v", tot)
	}
	// Detection lags the failure, so a blackhole between two connected
	// nodes is a violation; a packet to or from node 0 is excused.
	if tot.Violations == 0 || tot.Excused == 0 {
		t.Fatalf("want violating and excused losses: %+v", tot)
	}
	if tot.Delivered == 0 || tot.Hops < tot.Delivered {
		t.Fatalf("want deliveries of at least one hop each: %+v", tot)
	}
}

// TestAccountCheckCatchesLeaks: Check refuses totals that lose a packet
// or a referee verdict, and forgives unrefereed drops without an oracle.
func TestAccountCheckCatchesLeaks(t *testing.T) {
	g := graph.Ring(4)
	oracle, err := failure.NewOracle(g, &failure.Scenario{Name: "none"})
	if err != nil {
		t.Fatal(err)
	}
	refereed := NewAccount(telemetry.NewRegistry(), oracle, nil)
	bare := NewAccount(telemetry.NewRegistry(), nil, nil)
	ok := Totals{Generated: 10, Delivered: 6, DropBlackhole: 1, DropNoRoute: 1, DropTTL: 1, Violations: 2, Excused: 1}
	for _, tc := range []struct {
		name    string
		acct    *Account
		t       Totals
		stopped uint64
		want    string
	}{
		{"balanced", refereed, ok, 1, ""},
		{"a packet unaccounted", refereed, ok, 0, "accounting leak"},
		{"a drop unrefereed", refereed, Totals{Generated: 3, Delivered: 2, DropTTL: 1}, 0, "referee leak"},
		{"no oracle", bare, Totals{Generated: 3, Delivered: 2, DropTTL: 1}, 0, ""},
	} {
		err := tc.acct.Check(tc.t, tc.stopped)
		if (err == nil) != (tc.want == "") || err != nil && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check = %v; want %q", tc.name, err, tc.want)
		}
	}
}
