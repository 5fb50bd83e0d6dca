package sim

import (
	"fmt"
	"time"

	"recycle/internal/failure"
	"recycle/internal/graph"
	"recycle/internal/telemetry"
)

// The packet account's names: the one sim.* family the simulator and the
// soak both count every packet into. sim.hops and sim.latency_ns are
// histograms over the delivered packets; the rest are counters.
const (
	MetricGenerated     = "sim.generated"
	MetricDelivered     = "sim.delivered"
	MetricDropBlackhole = "sim.drop.blackhole"
	MetricDropNoRoute   = "sim.drop.no-route"
	MetricDropTTL       = "sim.drop.ttl"
	MetricLossViolation = "sim.loss.violation"
	MetricLossTransient = "sim.loss.transient"
	MetricLossExcused   = "sim.loss.excused"
	MetricHops          = "sim.hops"
	MetricLatencyNs     = "sim.latency_ns"
)

// DropReason classifies packet losses: each is counted under its
// sim.drop.* name and stamped as a flight transcript's verdict.
type DropReason uint8

const (
	DropBlackhole DropReason = iota // sent onto a physically dead link before local detection fired
	DropNoRoute                     // the scheme had no usable egress
	DropTTL                         // hop budget exhausted (a forwarding loop under failures)
)

func (r DropReason) String() string { return [...]string{"blackhole", "no-route", "ttl"}[r] }

// Account counts every packet once as generated and once as delivered
// or dropped, and referees each drop with the scenario's oracle: a
// violation was lost while its pair was connected and the link state
// held still (the paper's §1 guarantee forbids it), a transient had a
// failure or repair scheduled mid-flight (§7), an excused loss crossed a
// partition no scheme can.
type Account struct {
	oracle               *failure.Oracle
	excuse               func(emit, lost time.Duration) bool
	generated, delivered telemetry.CounterHandle
	drops                [3]telemetry.CounterHandle // by DropReason
	loss                 [3]telemetry.CounterHandle // by failure.Loss
	hops, latency        telemetry.HistogramHandle
}

// NewAccount resolves the handles in r once, so no packet takes the
// registry's lock. A nil oracle leaves drops unrefereed; excuse, when
// non-nil, makes a violation lost across a harness's own mid-flight
// change (the soak's hot-swaps) a transient.
func NewAccount(r *telemetry.Registry, oracle *failure.Oracle, excuse func(emit, lost time.Duration) bool) *Account {
	c := func(name string) telemetry.CounterHandle { return r.Counter(name).Handle() }
	return &Account{
		oracle: oracle, excuse: excuse,
		generated: c(MetricGenerated), delivered: c(MetricDelivered),
		drops: [3]telemetry.CounterHandle{DropBlackhole: c(MetricDropBlackhole), DropNoRoute: c(MetricDropNoRoute), DropTTL: c(MetricDropTTL)},
		loss: [3]telemetry.CounterHandle{failure.LossViolation: c(MetricLossViolation),
			failure.LossTransient: c(MetricLossTransient), failure.LossExcused: c(MetricLossExcused)},
		hops:    r.Histogram(MetricHops, telemetry.ExponentialBuckets(1, 2, 10)).Handle(),         // 1 .. 512
		latency: r.Histogram(MetricLatencyNs, telemetry.ExponentialBuckets(1000, 4, 12)).Handle(), // 1 µs .. ~4.2 s
	}
}

// Emit counts one generated packet.
func (a *Account) Emit() { a.generated.Inc() }

// Deliver counts one delivered packet with its hop count and latency.
func (a *Account) Deliver(hops int, latency time.Duration) {
	a.delivered.Inc()
	a.hops.Observe(int64(hops))
	a.latency.Observe(int64(latency))
}

// Drop counts a packet from src to dst, emitted at emit and lost at
// lost, and referees it when an oracle is installed.
func (a *Account) Drop(r DropReason, src, dst graph.NodeID, emit, lost time.Duration) {
	a.drops[r].Inc()
	if a.oracle == nil {
		return
	}
	c := a.oracle.Classify(src, dst, emit, lost)
	if c == failure.LossViolation && a.excuse != nil && a.excuse(emit, lost) {
		c = failure.LossTransient
	}
	a.loss[c].Inc()
}

// Check balances a drained run's totals: every generated packet was
// delivered, dropped or stopped (the soak's egress refusals: congestion,
// no loss class), and with an oracle every drop was refereed once.
func (a *Account) Check(t Totals, stopped uint64) error {
	if got := t.Delivered + t.Dropped() + stopped; got != t.Generated {
		return fmt.Errorf("accounting leak: %d delivered+dropped ≠ %d generated", got, t.Generated)
	}
	if got := t.Violations + t.Transient + t.Excused; a.oracle != nil && got != t.Dropped() {
		return fmt.Errorf("referee leak: %d refereed ≠ %d dropped", got, t.Dropped())
	}
	return nil
}

// Totals is the packet account of a run delta (TotalsOf). Hops and
// LatencyNs sum over the delivered packets.
type Totals struct {
	Generated, Delivered                uint64
	DropBlackhole, DropNoRoute, DropTTL uint64
	Violations, Transient, Excused      uint64
	Hops, LatencyNs                     uint64
}

// TotalsOf reads the packet account of a snapshot delta.
func TotalsOf(d *telemetry.Snapshot) Totals {
	c := d.Counter
	return Totals{
		Generated: c(MetricGenerated), Delivered: c(MetricDelivered),
		DropBlackhole: c(MetricDropBlackhole), DropNoRoute: c(MetricDropNoRoute), DropTTL: c(MetricDropTTL),
		Violations: c(MetricLossViolation), Transient: c(MetricLossTransient), Excused: c(MetricLossExcused),
		Hops: d.Histograms[MetricHops].Sum, LatencyNs: d.Histograms[MetricLatencyNs].Sum,
	}
}

// Dropped sums the drops over every reason.
func (t Totals) Dropped() uint64 { return t.DropBlackhole + t.DropNoRoute + t.DropTTL }
