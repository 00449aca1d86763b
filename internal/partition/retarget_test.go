package partition

import (
	"testing"

	"paragon/internal/gen"
	"paragon/internal/graph"
)

// Retarget against a churned snapshot must leave the index bit-identical
// to a from-scratch BuildIndex over the new graph — ext counts, incident
// sums, and bucket membership all repaired through the dirty list alone.
func TestRetargetMatchesRebuild(t *testing.T) {
	g0 := gen.RMAT(1200, 6000, 0.57, 0.19, 0.19, 17)
	k := int32(8)
	p := New(k, g0.NumVertices())
	for v := range p.Assign {
		p.Assign[v] = int32(v) % k
	}
	ix := BuildIndex(g0, p)

	// Churn through a mutable graph: adds and removes, dirty = endpoints.
	o := graph.NewMutable(g0, g0.NumVertices())
	dirtySet := make(map[int32]bool)
	ops := []struct {
		add  bool
		u, v int32
	}{
		{true, 3, 977}, {true, 14, 500}, {true, 201, 202}, {true, 7, 8},
		{false, 0, -1}, // placeholder, replaced below with real edges
	}
	ops = ops[:4]
	// Remove the first incident edge of a few vertices.
	for _, v := range []int32{5, 42, 300, 999} {
		if g0.Degree(v) == 0 {
			continue
		}
		ops = append(ops, struct {
			add  bool
			u, v int32
		}{false, v, g0.Neighbors(v)[0]})
	}
	for _, op := range ops {
		if op.add {
			added, err := o.AddEdge(op.u, op.v, 1)
			if err != nil {
				t.Fatalf("add (%d,%d): %v", op.u, op.v, err)
			}
			if !added {
				continue
			}
		} else if _, ok := o.RemoveEdge(op.u, op.v); !ok {
			continue
		}
		dirtySet[op.u] = true
		dirtySet[op.v] = true
	}
	g1 := o.Freeze()
	if g1.NumVertices() != g0.NumVertices() {
		t.Fatal("churn changed the vertex count")
	}
	var dirty []int32
	for v := int32(0); v < g0.NumVertices(); v++ {
		if dirtySet[v] {
			dirty = append(dirty, v)
		}
	}

	if err := ix.Retarget(g1, dirty); err != nil {
		t.Fatalf("Retarget: %v", err)
	}
	if ix.Graph() != g1 {
		t.Fatal("Graph() does not return the new snapshot")
	}
	if err := ix.Validate(); err != nil {
		t.Fatalf("retargeted index invalid: %v", err)
	}

	fresh := BuildIndex(g1, p.Clone())
	for v := int32(0); v < g1.NumVertices(); v++ {
		if ix.ExternalNeighbors(v) != fresh.ExternalNeighbors(v) {
			t.Fatalf("ext[%d] = %d, want %d", v, ix.ExternalNeighbors(v), fresh.ExternalNeighbors(v))
		}
	}
	a, b := ix.IncidentEdges(), fresh.IncidentEdges()
	for q := range a {
		if a[q] != b[q] {
			t.Fatalf("incident[%d] = %d, want %d", q, a[q], b[q])
		}
	}
}

// Retargeting and then Moving must compose: the O(deg) Move invariants
// hold on the new snapshot.
func TestRetargetThenMove(t *testing.T) {
	g0 := gen.Mesh2D(20, 20)
	p := New(4, g0.NumVertices())
	for v := range p.Assign {
		p.Assign[v] = int32(v) % 4
	}
	ix := BuildIndex(g0, p)

	o := graph.NewMutable(g0, g0.NumVertices())
	if _, err := o.AddEdge(0, 399, 1); err != nil {
		t.Fatal(err)
	}
	o.RemoveEdge(0, 1)
	g1 := o.Freeze()
	if err := ix.Retarget(g1, []int32{0, 1, 399}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int32{0, 1, 17, 399, 200} {
		ix.Move(v, (p.Assign[v]+1)%4)
	}
	if err := ix.Validate(); err != nil {
		t.Fatalf("index invalid after retarget+moves: %v", err)
	}
}

func TestRetargetRejectsSizeMismatch(t *testing.T) {
	g0 := gen.Mesh2D(5, 5)
	p := New(2, g0.NumVertices())
	ix := BuildIndex(g0, p)
	if err := ix.Retarget(gen.Mesh2D(6, 5), nil); err == nil {
		t.Fatal("size mismatch accepted")
	}
}
