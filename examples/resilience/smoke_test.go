package main

import "testing"

// TestSmoke runs the example end to end: it must compute every artefact
// it prints without log.Fatal-ing (which would exit non-zero and fail the
// test binary). The example itself asserts zero PR violations, so this
// smoke test doubles as a guarantee check. It runs a full Monte-Carlo
// sweep, so -short skips it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full Monte-Carlo sweep")
	}
	main()
}
