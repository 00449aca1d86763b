package graph

import (
	"reflect"
	"testing"
)

func TestMutableAddRemove(t *testing.T) {
	m := NewMutable(buildPath(4), 4) // 0-1-2-3
	if m.NumEdges() != 3 {
		t.Fatalf("initial edges = %d", m.NumEdges())
	}
	if added, err := m.AddEdge(0, 3, 5); err != nil || !added {
		t.Fatalf("add (0,3): added=%v err=%v", added, err)
	}
	if !m.HasEdge(3, 0) || m.NumEdges() != 4 {
		t.Fatalf("added edge missing (edges = %d)", m.NumEdges())
	}
	if m.Degree(0) != 2 || m.Degree(3) != 2 {
		t.Fatalf("degrees %d %d", m.Degree(0), m.Degree(3))
	}
	// Re-adding an existing edge is a no-op that keeps the old weight.
	if added, err := m.AddEdge(3, 0, 9); err != nil || added {
		t.Fatalf("duplicate add: added=%v err=%v", added, err)
	}
	if w, ok := m.RemoveEdge(1, 2); !ok || w != 1 {
		t.Fatalf("remove base edge: w=%d ok=%v", w, ok)
	}
	if m.HasEdge(1, 2) || m.NumEdges() != 3 {
		t.Fatalf("removed base edge still visible (edges = %d)", m.NumEdges())
	}
	if w, ok := m.RemoveEdge(0, 3); !ok || w != 5 {
		t.Fatalf("remove added edge: w=%d ok=%v", w, ok)
	}
	// Removing an absent edge or out-of-range ids is a no-op.
	if _, ok := m.RemoveEdge(0, 2); ok {
		t.Fatal("removed an absent edge")
	}
	if _, ok := m.RemoveEdge(-1, 9); ok {
		t.Fatal("removed an out-of-range edge")
	}
	if m.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", m.NumEdges())
	}
}

func TestMutableErrors(t *testing.T) {
	m := NewMutable(buildPath(3), 3)
	if _, err := m.AddEdge(0, 9, 1); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := m.AddEdge(1, 1, 1); err == nil {
		t.Fatal("expected self-loop error")
	}
	if _, err := m.AddEdge(0, 2, 0); err == nil {
		t.Fatal("expected weight error")
	}
	if m.NumEdges() != 2 {
		t.Fatalf("rejected adds changed the edge count to %d", m.NumEdges())
	}
}

// Adjacency order is append on add and swap-delete on remove — samplers
// draw Neighbors(v)[i], so the order is part of the output.
func TestMutableNeighborOrder(t *testing.T) {
	m := NewMutable(buildPath(5), 5) // 1: [0 2]
	m.AddEdge(1, 3, 2)               // 1: [0 2 3]
	m.AddEdge(1, 4, 7)               // 1: [0 2 3 4]
	m.RemoveEdge(0, 1)               // 1: [4 2 3]
	want := []Half{{4, 7}, {2, 1}, {3, 2}}
	if got := m.Neighbors(1); !reflect.DeepEqual(got, want) {
		t.Fatalf("neighbors of 1 = %v, want %v", got, want)
	}
	if got := m.Neighbors(4); !reflect.DeepEqual(got, []Half{{3, 1}, {1, 7}}) {
		t.Fatalf("neighbors of 4 = %v", got)
	}
}

func TestMutableFreeze(t *testing.T) {
	g := buildPaperGraph()
	g.UseDegreeWeights()
	m := NewMutable(g, 12) // ids 10 and 11 start inactive
	m.AddEdge(0, 4, 3)
	m.RemoveEdge(7, 8)
	m.SetVertexWeight(11, 2)
	m.SetVertexSize(11, 5)
	m.AddEdge(11, 3, 1)
	f := m.Freeze()
	if err := f.Validate(); err != nil {
		t.Fatalf("frozen graph invalid: %v", err)
	}
	if f.NumVertices() != 12 || f.NumEdges() != g.NumEdges()+1 {
		t.Fatalf("frozen |V|=%d |E|=%d", f.NumVertices(), f.NumEdges())
	}
	if f.EdgeWeightBetween(0, 4) != 3 || f.HasEdge(7, 8) || !f.HasEdge(3, 11) {
		t.Fatal("churn lost in freeze")
	}
	for v := int32(0); v < g.NumVertices(); v++ {
		if f.VertexWeight(v) != g.VertexWeight(v) || f.VertexSize(v) != g.VertexSize(v) {
			t.Fatalf("vertex %d attrs lost", v)
		}
	}
	if f.VertexWeight(10) != 0 || f.VertexSize(10) != 0 || f.Degree(10) != 0 {
		t.Fatal("inactive id must freeze isolated with weight and size 0")
	}
	if f.VertexWeight(11) != 2 || f.VertexSize(11) != 5 {
		t.Fatal("set vertex attrs lost in freeze")
	}
}

// Fuzz geometry: a 6-vertex path base inside an 8-id space, so ids 6 and
// 7 start inactive; ids decode to [-9, 9] and weights to [-4, 4], so
// out-of-range ids and non-positive weights are common inputs.
const (
	fuzzBase = 6
	fuzzN    = 8
)

// FuzzMutable drives arbitrary add/remove/set-weight sequences against a
// map edge-set oracle. Each op is four bytes: kind (add, remove, set
// weight), u, v, w. After every op the edge count, the touched vertices'
// degrees and the edge's presence must match the oracle; at the end
// Freeze must validate and equal a Builder build of the oracle.
func FuzzMutable(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		type key struct{ a, b int32 }
		canon := func(u, v int32) key {
			if u > v {
				u, v = v, u
			}
			return key{u, v}
		}
		valid := func(v int32) bool { return v >= 0 && v < fuzzN }

		m := NewMutable(buildPath(fuzzBase), fuzzN)
		edges := map[key]int32{}
		var deg [fuzzN]int32
		var vw, vs [fuzzN]int32
		for v := int32(0); v < fuzzBase; v++ {
			vw[v], vs[v] = 1, 1
			if v+1 < fuzzBase {
				edges[key{v, v + 1}] = 1
				deg[v]++
				deg[v+1]++
			}
		}

		for i := 0; i+4 <= len(ops); i += 4 {
			kind := ops[i] % 3
			u := int32(int8(ops[i+1])) % 10
			v := int32(int8(ops[i+2])) % 10
			w := int32(int8(ops[i+3])) % 5
			switch kind {
			case 0:
				added, err := m.AddEdge(u, v, w)
				bad := !valid(u) || !valid(v) || u == v || w <= 0
				if (err != nil) != bad {
					t.Fatalf("op %d add(%d,%d,%d): err=%v, invalid=%v", i/4, u, v, w, err, bad)
				}
				_, exists := edges[canon(u, v)]
				if added != (!bad && !exists) {
					t.Fatalf("op %d add(%d,%d,%d): added=%v, oracle exists=%v", i/4, u, v, w, added, exists)
				}
				if added {
					edges[canon(u, v)] = w
					deg[u]++
					deg[v]++
				}
			case 1:
				got, ok := m.RemoveEdge(u, v)
				want, exists := edges[canon(u, v)]
				if ok != exists || got != want {
					t.Fatalf("op %d remove(%d,%d) = (%d,%v), oracle (%d,%v)", i/4, u, v, got, ok, want, exists)
				}
				if ok {
					delete(edges, canon(u, v))
					deg[u]--
					deg[v]--
				}
			case 2:
				if valid(u) && w >= 0 {
					m.SetVertexWeight(u, w)
					m.SetVertexSize(u, w)
					vw[u], vs[u] = w, w
				}
			}
			if m.NumEdges() != int64(len(edges)) {
				t.Fatalf("op %d: NumEdges %d, oracle %d", i/4, m.NumEdges(), len(edges))
			}
			if valid(u) && valid(v) {
				_, exists := edges[canon(u, v)]
				if m.HasEdge(u, v) != exists || m.HasEdge(v, u) != exists {
					t.Fatalf("op %d: HasEdge(%d,%d) disagrees with oracle %v", i/4, u, v, exists)
				}
				if m.Degree(u) != deg[u] || m.Degree(v) != deg[v] {
					t.Fatalf("op %d: degrees (%d,%d), oracle (%d,%d)", i/4, m.Degree(u), m.Degree(v), deg[u], deg[v])
				}
			}
		}

		got := m.Freeze()
		if err := got.Validate(); err != nil {
			t.Fatalf("frozen graph invalid: %v", err)
		}
		b := NewBuilder(fuzzN)
		for v := int32(0); v < fuzzN; v++ {
			b.SetVertexWeight(v, vw[v])
			b.SetVertexSize(v, vs[v])
		}
		for e, w := range edges {
			b.AddWeightedEdge(e.a, e.b, w)
		}
		if want := b.Build(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Freeze differs from oracle build:\n got %+v\nwant %+v", got, want)
		}
	})
}
