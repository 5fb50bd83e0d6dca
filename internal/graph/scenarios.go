package graph

import (
	"fmt"
	"math/rand"
)

// SingleFailureScenarios returns one failure set per live link whose
// failure keeps the graph connected. On a 2-edge-connected topology that
// is every live link;
// bridges are skipped because no reroute scheme can recover from them (the
// paper conditions all guarantees on the network remaining connected).
func SingleFailureScenarios(g *Graph) []*FailureSet {
	var out []*FailureSet
	bridge := make(map[LinkID]bool)
	for _, b := range Bridges(g) {
		bridge[b] = true
	}
	for _, l := range g.Links() {
		if bridge[l.ID] || g.Removed(l.ID) {
			continue
		}
		out = append(out, NewFailureSet(l.ID))
	}
	return out
}

// SampleFailureScenarios draws count failure sets of exactly k distinct links
// each, uniformly among k-subsets, keeping only those that leave the graph
// connected. Sampling is seeded and therefore reproducible. It gives up
// after a generous number of rejections, returning fewer scenarios, so that
// pathological (k too close to breaking the graph) requests terminate.
func SampleFailureScenarios(g *Graph, k, count int, seed int64) ([]*FailureSet, error) {
	if k < 1 {
		return nil, fmt.Errorf("graph: scenario size %d < 1", k)
	}
	if k >= g.NumLinks() {
		return nil, fmt.Errorf("graph: cannot fail %d of %d links and stay connected", k, g.NumLinks())
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, count)
	var out []*FailureSet
	maxAttempts := count * 200
	ids := make([]LinkID, g.NumLinks())
	for i := range ids {
		ids[i] = LinkID(i)
	}
	for attempts := 0; len(out) < count && attempts < maxAttempts; attempts++ {
		// Partial Fisher-Yates: pick k distinct links.
		for i := 0; i < k; i++ {
			j := i + rng.Intn(len(ids)-i)
			ids[i], ids[j] = ids[j], ids[i]
		}
		fs := NewFailureSet(ids[:k]...)
		key := fs.String()
		if seen[key] || !ConnectedUnder(g, fs) {
			continue
		}
		seen[key] = true
		out = append(out, fs)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("graph: no connectivity-preserving %d-failure scenario found", k)
	}
	return out, nil
}
