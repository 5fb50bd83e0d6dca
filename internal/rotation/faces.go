package rotation

import (
	"fmt"

	"recycle/internal/graph"
)

// Face is one oriented cellular cycle of the embedding: an orbit of the
// face-tracing permutation φ. The paper calls these "cellular cycles"; the
// bypass route for a failed link is exactly the face containing the link's
// reverse dart.
type Face struct {
	// Index is the face's position in Faces().
	Index int
	// Darts lists the orbit in φ order, starting from its smallest DartID.
	Darts []DartID
}

// Len returns the number of darts (= hops) on the face.
func (f Face) Len() int { return len(f.Darts) }

// Nodes returns the node sequence visited by the face (tails of each dart).
func (f Face) Nodes(s *System) []graph.NodeID {
	out := make([]graph.NodeID, len(f.Darts))
	for i, d := range f.Darts {
		out[i] = s.Dart(d).Tail
	}
	return out
}

// FaceSet is the complete cycle system of an embedding, with a dart→face
// index for O(1) "which cycle bypasses this link" lookups.
type FaceSet struct {
	Faces []Face
	// faceOf[d] is the index of the face containing dart d.
	faceOf []int
}

// Faces traces all orbits of φ and returns the embedding's cycle system.
// Every dart belongs to exactly one face, so every undirected link belongs
// to exactly two oriented faces (possibly the same face traversed twice,
// when the link is a bridge or the embedding folds a face onto both sides).
func (s *System) Faces() *FaceSet {
	n := s.NumDarts()
	fs := &FaceSet{faceOf: make([]int, n)}
	for i := range fs.faceOf {
		fs.faceOf[i] = -1
	}
	for d := 0; d < n; d++ {
		if fs.faceOf[d] >= 0 {
			continue
		}
		idx := len(fs.Faces)
		var orbit []DartID
		for e := DartID(d); fs.faceOf[e] < 0; e = s.FaceNext(e) {
			fs.faceOf[e] = idx
			orbit = append(orbit, e)
		}
		fs.Faces = append(fs.Faces, Face{Index: idx, Darts: orbit})
	}
	return fs
}

// FaceOf returns the face containing dart d.
func (fs *FaceSet) FaceOf(d DartID) Face { return fs.Faces[fs.faceOf[d]] }

// FaceIndexOf returns the index of the face containing dart d.
func (fs *FaceSet) FaceIndexOf(d DartID) int { return fs.faceOf[d] }

// SameFace reports whether two darts lie on the same oriented face.
func (fs *FaceSet) SameFace(a, b DartID) bool { return fs.faceOf[a] == fs.faceOf[b] }

// CountFaces returns the number of φ orbits without materialising them.
func (s *System) CountFaces() int {
	n := s.NumDarts()
	seen := make([]bool, n)
	count := 0
	for d := 0; d < n; d++ {
		if seen[d] {
			continue
		}
		count++
		for e := DartID(d); !seen[e]; e = s.FaceNext(e) {
			seen[e] = true
		}
	}
	return count
}

// Genus returns the genus of the orientable surface the rotation system
// embeds its (connected) graph on, via Euler's formula V − E + F = 2 − 2g.
// It panics if the underlying graph is disconnected (genus is then not
// defined by this formula) or if the parity is impossible, both of which
// indicate corrupted state.
func (s *System) Genus() int {
	if !graph.Connected(s.g) {
		panic("rotation: genus of a disconnected graph is undefined")
	}
	v := s.g.NumNodes()
	e := s.g.NumLinks()
	f := s.CountFaces()
	chi := v - e + f
	if chi > 2 || (2-chi)%2 != 0 {
		panic(fmt.Sprintf("rotation: impossible Euler characteristic %d (V=%d E=%d F=%d)", chi, v, e, f))
	}
	return (2 - chi) / 2
}
