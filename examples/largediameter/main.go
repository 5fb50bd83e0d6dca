// Largediameter shows the wire-codec escape hatch: on a 24-node ring the
// hop diameter is 12, so recovery stamps distance discriminators the
// 3-bit DSCP pool-2 field cannot carry — the seed dataplane dropped those
// packets outright (WireDropDDOverflow). Compile now rank-quantises the
// discriminators and selects the IPv6 flow-label codec (17 DD bits), and
// the same packet that used to die crosses the failure on real IPv6 bytes.
package main

import (
	"fmt"
	"log"

	"recycle"
)

func main() {
	net, err := recycle.FromTopology("ring:24")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(net.Describe())

	fib, err := net.Compile()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled codec: %s (%d DD bits; DSCP offers 3)\n\n", fib.Codec(), fib.DDBits())

	// Fail the first link on the path 0 → 12 (the antipode) and forward
	// real IPv6 bytes hop by hop through the wire fast path.
	src, dst := recycle.NodeID(0), recycle.NodeID(12)
	st := recycle.LinkStateFrom(fib, recycle.NewFailureSet(0))
	h := recycle.IPv6{HopLimit: 64, NextHeader: 17,
		Src: recycle.NodeAddr6(src), Dst: recycle.NodeAddr6(dst)}
	buf, err := h.Marshal()
	if err != nil {
		log.Fatal(err)
	}

	node := src
	ingress := recycle.NoDart
	for hop := 0; ; hop++ {
		eg, verdict := fib.ForwardWire(node, ingress, st, buf)
		if verdict == recycle.WireDeliver {
			fmt.Printf("hop %2d: node %2d delivers the packet\n", hop, node)
			break
		}
		if verdict != recycle.WireForward {
			log.Fatalf("hop %d: unexpected verdict %v", hop, verdict)
		}
		var cur recycle.IPv6
		if err := cur.Unmarshal(buf); err != nil {
			log.Fatal(err)
		}
		markNote := "unmarked"
		if mark, err := cur.PRMark(); err == nil {
			markNote = fmt.Sprintf("PR=%v DD=%d (flow label %#05x)", mark.PR, mark.DD, cur.FlowLabel)
		}
		fmt.Printf("hop %2d: node %2d forwards on dart %3d  %s\n", hop, node, eg, markNote)
		node = fib.Head(eg)
		ingress = eg
	}

	// The quantised walk of the abstract protocol matches what the wire
	// just did.
	res := net.RouteIDs(src, dst, recycle.NewFailureSet(0))
	fmt.Printf("\nabstract protocol: %v after %d hops (stretch %.2f)\n",
		res.Outcome, res.Hops(), res.Stretch)
}
