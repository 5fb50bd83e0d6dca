package main

import "testing"

// TestSmoke runs the certification example end to end: the example
// log.Fatal-s unless PR certifies clean at k=2, the baseline yields
// counterexamples, and PR survives every pinned counterexample — so
// this smoke test doubles as a facade-level guarantee check. It runs
// full certification searches, so -short skips it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full certification searches")
	}
	main()
}
