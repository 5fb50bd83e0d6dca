package dataplane

import (
	"fmt"
	"testing"
	"time"

	"recycle/internal/rotation"
	"recycle/internal/telemetry"
)

// TestWireFrameBitsClamped is the regression test for the unclamped
// total-length bug: the IP length field is corruption-controlled, so a
// zero claim must not serialise for free and an inflated claim must not
// pace the link as if megabytes left the box. Claims are clamped to
// [8×header-min, 8×len(buf)].
func TestWireFrameBitsClamped(t *testing.T) {
	v4 := func(totalLen int, bufLen int) []byte {
		buf := make([]byte, bufLen)
		buf[0] = 0x45
		buf[2], buf[3] = byte(totalLen>>8), byte(totalLen)
		return buf
	}
	v6 := func(payloadLen int, bufLen int) []byte {
		buf := make([]byte, bufLen)
		buf[0] = 0x60
		buf[4], buf[5] = byte(payloadLen>>8), byte(payloadLen)
		return buf
	}
	cases := []struct {
		name string
		buf  []byte
		want int64
	}{
		{"v4 honest", v4(100, 100), 800},
		{"v4 zero claim", v4(0, 100), 8 * 20},          // free ride pre-fix
		{"v4 runt claim", v4(7, 100), 8 * 20},          // below header min
		{"v4 inflated claim", v4(65535, 100), 8 * 100}, // 524280 bits pre-fix
		{"v6 honest", v6(60, 100), 800},
		{"v6 inflated claim", v6(65535, 100), 8 * 100},
		{"v6 zero payload", v6(0, 100), 8 * 40}, // header-only is its own floor
		{"unparseable", make([]byte, 64), 8 * 64},
		{"short", make([]byte, 10), 8 * 10},
	}
	for _, c := range cases {
		if got := wireFrameBits(c.buf); got != c.want {
			t.Errorf("%s: wireFrameBits = %d; want %d", c.name, got, c.want)
		}
	}
}

// TestTransmitMatchesSend is the batched-vs-per-packet differential:
// under a frozen clock, one mixed batch through Transmit must leave the
// queue exactly where the same packets leave it through Send one by one,
// through Transmit in one-packet batches and through SendBatch (its wire
// frames through Send) — the tx.* counters, every dart's backlog and the
// queue-wait histogram — and the three arms that report verdicts must
// give the same sequence, the expected one. The batch
// mixes abstract and wire packets, refused entries, default and clamped
// sizes, a down link, darts on both sides of the dart space and a dart
// driven past MaxBacklog.
func TestTransmitMatchesSend(t *testing.T) {
	const numDarts = 8
	v4 := func(claim, n int) []byte {
		buf := make([]byte, n)
		buf[0], buf[2], buf[3] = 0x45, byte(claim>>8), byte(claim)
		return buf
	}
	st := NewLinkState(numDarts / 2)
	st.Set(1, true) // darts 2 and 3
	b := &Batch{
		Pkts: []Packet{
			{Egress: 0, OK: true, Bits: 8192},   // 1 ms on an idle dart
			{Egress: 0, OK: true},               // default size, queues behind it
			{Egress: 5, OK: false},              // refused by the FIB: not transmitted
			{Egress: 2, OK: true, Bits: 100},    // link 1 is down
			{Egress: numDarts, OK: true},        // past the dart space: no link
			{Egress: rotation.NoDart, OK: true}, // before it
			{Egress: 0, OK: true, Bits: 8192},   // waits 1.5 ms
			{Egress: 0, OK: true, Bits: 8192},   // waits 2.5 ms
			{Egress: 0, OK: true, Bits: 8192},   // would wait 3.5 ms > MaxBacklog
			{Egress: 4, OK: true, Bits: 1},
		},
		Wire: []WirePacket{
			{Egress: 6, Verdict: WireForward, Buf: v4(100, 100)},
			{Egress: 6, Verdict: WireDropTTL, Buf: v4(100, 100)}, // dropped by the FIB: not transmitted
			{Egress: 6, Verdict: WireForward, Buf: v4(0, 64)},    // runt claim, clamped to a header
			{Egress: 3, Verdict: WireForward, Buf: v4(64, 64)},   // link 1 is down
			{Egress: 0, Verdict: WireForward, Buf: v4(64, 64)},   // dart 0 is still full
			{Egress: 7, Verdict: WireDeliver, Buf: v4(64, 64)},
			{Egress: 7, Verdict: WireForward, Buf: make([]byte, 30)}, // unparseable: sized by length
		},
	}
	want := []TxVerdict{
		TxSent, TxSent, TxDropLinkDown, TxDropLinkDown, TxDropLinkDown, TxSent, TxSent, TxDropQueueFull, TxSent,
		TxSent, TxSent, TxDropLinkDown, TxDropQueueFull, TxSent,
	}

	newQueue := func() (*TxQueue, *telemetry.Registry) {
		reg := telemetry.NewRegistry()
		return NewTxQueueDarts(numDarts, TxConfig{
			BandwidthBps: 8_192_000, // 1 ms per 8192 bits
			MaxBacklog:   3 * time.Millisecond,
			DefaultBits:  4096,
			Now:          func() time.Duration { return 7 * time.Millisecond },
			Metrics:      reg,
		}), reg
	}
	counters := []string{MetricTxSent, MetricTxSentBits, MetricTxDropQueueFull, MetricTxDropLinkDown}
	state := func(q *TxQueue, reg *telemetry.Registry) string {
		snap := reg.Snapshot()
		out := ""
		for _, name := range counters {
			out += fmt.Sprintf("%s=%d ", name, snap.Counter(name))
		}
		for d := rotation.DartID(0); d < numDarts; d++ {
			out += fmt.Sprintf("backlog[%d]=%v ", d, q.Backlog(d))
		}
		wait := snap.Histograms[MetricTxQueueWaitNs]
		return out + fmt.Sprintf("wait=%v n=%d sum=%d", wait.Counts, wait.Count, wait.Sum)
	}

	whole, wholeReg := newQueue()
	whole.Transmit(b, st)

	single, singleReg := newQueue()
	var sends []TxVerdict
	for _, p := range b.Pkts {
		if !p.OK {
			continue
		}
		bits := int64(p.Bits)
		if bits == 0 {
			bits = 4096
		}
		sends = append(sends, single.Send(p.Egress, bits, st))
	}
	for _, p := range b.Wire {
		if p.Verdict == WireForward {
			sends = append(sends, single.Send(p.Egress, wireFrameBits(p.Buf), st))
		}
	}

	// One-packet batches: the verdict is the counter that moved.
	ones, onesReg := newQueue()
	var transmits []TxVerdict
	verdictOf := map[string]TxVerdict{
		MetricTxSent: TxSent, MetricTxDropQueueFull: TxDropQueueFull,
		MetricTxDropLinkDown: TxDropLinkDown,
	}
	one := func(ob *Batch) {
		before := onesReg.Snapshot()
		ones.Transmit(ob, st)
		after := onesReg.Snapshot()
		for name, v := range verdictOf {
			if after.Counter(name) != before.Counter(name) {
				transmits = append(transmits, v)
			}
		}
	}
	for i := range b.Pkts {
		one(&Batch{Pkts: b.Pkts[i : i+1]})
	}
	for i := range b.Wire {
		one(&Batch{Wire: b.Wire[i : i+1]})
	}

	// SendBatch writes a verdict for every accepted packet and leaves the
	// refused ones' entries alone.
	batched, batchedReg := newQueue()
	const unset = TxVerdict(255)
	verdicts := make([]TxVerdict, len(b.Pkts))
	for i := range verdicts {
		verdicts[i] = unset
	}
	batched.SendBatch(b.Pkts, st, verdicts)
	var batchSends []TxVerdict
	for i, p := range b.Pkts {
		if p.OK {
			batchSends = append(batchSends, verdicts[i])
		} else if verdicts[i] != unset {
			t.Errorf("SendBatch wrote verdict %v for refused packet %d", verdicts[i], i)
		}
	}
	for _, p := range b.Wire {
		if p.Verdict == WireForward {
			batchSends = append(batchSends, batched.Send(p.Egress, wireFrameBits(p.Buf), st))
		}
	}

	if fmt.Sprint(sends) != fmt.Sprint(want) {
		t.Errorf("Send verdicts\n  %v; want\n  %v", sends, want)
	}
	if fmt.Sprint(transmits) != fmt.Sprint(want) {
		t.Errorf("one-packet Transmit verdicts\n  %v; want\n  %v", transmits, want)
	}
	ref := state(single, singleReg)
	if got := state(whole, wholeReg); got != ref {
		t.Errorf("whole batch through Transmit\n  %s; per packet through Send\n  %s", got, ref)
	}
	if got := state(ones, onesReg); got != ref {
		t.Errorf("one-packet batches through Transmit\n  %s; per packet through Send\n  %s", got, ref)
	}
	if fmt.Sprint(batchSends) != fmt.Sprint(want) {
		t.Errorf("SendBatch verdicts\n  %v; want\n  %v", batchSends, want)
	}
	if got := state(batched, batchedReg); got != ref {
		t.Errorf("SendBatch\n  %s; per packet through Send\n  %s", got, ref)
	}
}
