package graph

import "fmt"

// Half is one directed half-edge of a Mutable adjacency: the neighbor
// and the weight of the undirected edge.
type Half struct{ To, W int32 }

// Mutable is the repository's one changing graph: per-vertex half-edge
// lists over a fixed vertex-id space, mutated by edge churn and frozen
// back to CSR for the partitioners and the refiner. It models the
// paper's Pregel dynamism (vertex functions "add or remove
// vertices/edges") and the Figure 14 loop where injected changes
// trigger PARAGON again.
//
// Adjacency order is maintained data: AddEdge appends to both lists and
// RemoveEdge swap-deletes from both, so a fixed operation sequence gives
// a fixed order that samplers drawing Neighbors(v)[i] may depend on.
// A Mutable is not safe for concurrent mutation.
type Mutable struct {
	adj   [][]Half
	vwgt  []int32
	vsize []int32
	edges int64
}

// NewMutable copies g into a mutable graph over the id space [0, n).
// Ids in [g.NumVertices(), n) start with weight 0, size 0 and no edges;
// n below g.NumVertices() panics.
func NewMutable(g *Graph, n int32) *Mutable {
	n0 := g.NumVertices()
	if n < n0 {
		panic(fmt.Sprintf("graph: mutable id space %d below base size %d", n, n0))
	}
	m := &Mutable{
		adj:   make([][]Half, n),
		vwgt:  make([]int32, n),
		vsize: make([]int32, n),
		edges: g.NumEdges(),
	}
	for v := int32(0); v < n0; v++ {
		nbrs := g.Neighbors(v)
		wts := g.EdgeWeights(v)
		hs := make([]Half, len(nbrs))
		for i, u := range nbrs {
			hs[i] = Half{To: u, W: wts[i]}
		}
		m.adj[v] = hs
		m.vwgt[v] = g.VertexWeight(v)
		m.vsize[v] = g.VertexSize(v)
	}
	return m
}

// NumVertices returns the size of the id space.
func (m *Mutable) NumVertices() int32 { return int32(len(m.adj)) }

// NumEdges returns the current undirected edge count.
func (m *Mutable) NumEdges() int64 { return m.edges }

// Degree returns the current degree of v.
func (m *Mutable) Degree(v int32) int32 { return int32(len(m.adj[v])) }

// Neighbors returns v's half-edges in adjacency order. The slice is
// read-only and valid until the next mutation touching v.
func (m *Mutable) Neighbors(v int32) []Half { return m.adj[v] }

// VertexWeight returns w(v).
func (m *Mutable) VertexWeight(v int32) int32 { return m.vwgt[v] }

// SetVertexWeight sets w(v).
func (m *Mutable) SetVertexWeight(v, w int32) { m.vwgt[v] = w }

// SetVertexSize sets vs(v).
func (m *Mutable) SetVertexSize(v, s int32) { m.vsize[v] = s }

// HasEdge reports whether {u,v} exists, scanning the shorter list.
func (m *Mutable) HasEdge(u, v int32) bool {
	a := m.adj[u]
	if len(m.adj[v]) < len(a) {
		a, v = m.adj[v], u
	}
	for _, h := range a {
		if h.To == v {
			return true
		}
	}
	return false
}

// AddEdge inserts the undirected edge {u,v} with weight w, appending to
// both lists. It reports whether the edge was new: adding an existing
// edge is a no-op that keeps the old weight. Out-of-range ids,
// self-loops and non-positive weights are errors.
func (m *Mutable) AddEdge(u, v, w int32) (bool, error) {
	n := m.NumVertices()
	if u < 0 || u >= n || v < 0 || v >= n {
		return false, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	if u == v {
		return false, fmt.Errorf("graph: self-loop on %d", u)
	}
	if w <= 0 {
		return false, fmt.Errorf("graph: non-positive edge weight %d on (%d,%d)", w, u, v)
	}
	if m.HasEdge(u, v) {
		return false, nil
	}
	m.adj[u] = append(m.adj[u], Half{To: v, W: w})
	m.adj[v] = append(m.adj[v], Half{To: u, W: w})
	m.edges++
	return true, nil
}

// RemoveEdge deletes the undirected edge {u,v}, swap-deleting it from
// both lists, and returns its weight. ok is false (and nothing changes)
// when the edge is absent or an id is out of range.
func (m *Mutable) RemoveEdge(u, v int32) (w int32, ok bool) {
	n := m.NumVertices()
	if u < 0 || u >= n || v < 0 || v >= n {
		return 0, false
	}
	if w, ok = m.removeHalf(u, v); !ok {
		return 0, false
	}
	m.removeHalf(v, u)
	m.edges--
	return w, true
}

func (m *Mutable) removeHalf(u, v int32) (int32, bool) {
	a := m.adj[u]
	for i, h := range a {
		if h.To == v {
			last := len(a) - 1
			a[i] = a[last]
			m.adj[u] = a[:last]
			return h.W, true
		}
	}
	return 0, false
}

// Freeze builds an immutable CSR snapshot of the current graph over the
// whole id space. Every vertex weight is written explicitly — the
// Builder defaults to 1, and inactive ids must keep weight 0 so they
// stay invisible to Eq. 3/4 and to the refiner's balance bound.
func (m *Mutable) Freeze() *Graph {
	n := m.NumVertices()
	b := NewBuilder(n)
	b.Reserve(m.edges)
	for v := int32(0); v < n; v++ {
		b.SetVertexWeight(v, m.vwgt[v])
		b.SetVertexSize(v, m.vsize[v])
		for _, h := range m.adj[v] {
			if v < h.To {
				b.AddWeightedEdge(v, h.To, h.W)
			}
		}
	}
	return b.Build()
}
