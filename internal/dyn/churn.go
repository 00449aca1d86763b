package dyn

import (
	"fmt"
	"math/rand"

	"paragon/internal/graph"
	"paragon/internal/partition"
)

// Edge-level dynamism: the paper's Pregel background allows vertex
// functions to add or remove edges; between computations the
// decomposition then degrades and a refinement should be triggered.
// This file provides a churn generator, an applier over graph.Mutable,
// and the trigger policy deciding when re-refinement pays off.

// EdgeOp is one churn event.
type EdgeOp struct {
	Add     bool // false = remove
	U, V, W int32
}

// Source is the adjacency view churn generation draws endpoints from.
// A static *graph.Graph satisfies it through GraphSource; the streaming
// session feeds its live dynamic adjacency bounded to the currently
// active vertex prefix, so the workload generator keeps targeting
// vertices that actually exist as the graph grows.
type Source interface {
	NumVertices() int32
	Degree(v int32) int32
	// Neighbor returns the i-th neighbor of v, 0 <= i < Degree(v).
	Neighbor(v, i int32) int32
}

// GraphSource adapts a static *graph.Graph to Source.
type GraphSource struct{ G *graph.Graph }

func (s GraphSource) NumVertices() int32        { return s.G.NumVertices() }
func (s GraphSource) Degree(v int32) int32      { return s.G.Degree(v) }
func (s GraphSource) Neighbor(v, i int32) int32 { return s.G.Neighbors(v)[i] }

// resampleTries bounds every rejection-sampling loop in the generator.
// With n >= 2 a uniform redraw almost never needs more than a couple of
// tries; the bound only matters for degenerate inputs (a graph with
// fewer distinct edges than requested removals), where the generator
// returns fewer ops instead of spinning.
const resampleTries = 32

// RandomChurn generates adds+removes edge events against g: removals
// pick distinct existing edges uniformly; additions pick endpoint pairs
// with a mild preference for closing triangles (friend-of-friend), the
// dominant growth pattern of the paper's social datasets.
func RandomChurn(g *graph.Graph, adds, removes int, seed int64) []EdgeOp {
	return ChurnOps(GraphSource{g}, adds, removes, rand.New(rand.NewSource(seed)))
}

// ChurnOps is the rng-threading form of RandomChurn over any adjacency
// view — the form the streaming workload generator drives batch by
// batch with one long-lived rng.
//
// Removals are deduplicated: each picked edge is recorded under its
// canonical (min,max) key and duplicate picks are resampled, so the
// number of remove ops equals the number of removals ApplyChurn will
// perform (instead of duplicates collapsing into silent no-ops). When
// the view runs out of distinct pickable edges the op list comes up
// short — callers that care compare len(ops) against their request.
func ChurnOps(src Source, adds, removes int, rng *rand.Rand) []EdgeOp {
	n := src.NumVertices()
	if n < 2 {
		return nil
	}
	var ops []EdgeOp
	picked := make(map[[2]int32]struct{}, removes)
	for i := 0; i < removes; i++ {
		// Uniform-ish existing edge: random vertex with degree > 0, then
		// random incident edge, resampled while it hits an edge already
		// picked this call.
		for tries := 0; tries < resampleTries; tries++ {
			v := int32(rng.Intn(int(n)))
			d := src.Degree(v)
			if d == 0 {
				continue
			}
			u := src.Neighbor(v, int32(rng.Intn(int(d))))
			key := [2]int32{v, u}
			if u < v {
				key = [2]int32{u, v}
			}
			if _, dup := picked[key]; dup {
				continue
			}
			picked[key] = struct{}{}
			ops = append(ops, EdgeOp{Add: false, U: v, V: u})
			break
		}
	}
	for i := 0; i < adds; i++ {
		u := int32(rng.Intn(int(n)))
		v := int32(-1) // -1 = no endpoint drawn yet
		if d := src.Degree(u); d > 0 && rng.Intn(2) == 0 {
			// Friend-of-friend: a neighbor of a neighbor.
			w1 := src.Neighbor(u, int32(rng.Intn(int(d))))
			if d2 := src.Degree(w1); d2 > 0 {
				if cand := src.Neighbor(w1, int32(rng.Intn(int(d2)))); cand != u {
					v = cand
				}
			}
		}
		// A failed friend-of-friend draw falls back to a uniform endpoint.
		// (The old loop condition `v == u || v == 0 && rng.Intn(2) == 0`
		// parsed as `v == u || (v == 0 && ...)`, keeping the zero-value
		// sentinel half the time and biasing ~a quarter of all added
		// edges onto vertex 0.)
		for tries := 0; v < 0 || v == u; tries++ {
			if tries == resampleTries {
				v = -1
				break
			}
			v = int32(rng.Intn(int(n)))
		}
		if v < 0 {
			continue
		}
		ops = append(ops, EdgeOp{Add: true, U: u, V: v, W: 1})
	}
	return ops
}

// ApplyChurn applies events to a mutable graph, returning how many
// actually changed it (removals of absent edges, adds of existing edges
// and invalid adds are skipped).
func ApplyChurn(m *graph.Mutable, ops []EdgeOp) int {
	applied := 0
	for _, op := range ops {
		var ok bool
		if op.Add {
			ok, _ = m.AddEdge(op.U, op.V, op.W)
		} else {
			_, ok = m.RemoveEdge(op.U, op.V)
		}
		if ok {
			applied++
		}
	}
	return applied
}

// TriggerPolicy decides when accumulated dynamism justifies running the
// refiner again — the "injection also triggered the execution of
// PARAGON" loop of Figure 14, made explicit.
type TriggerPolicy struct {
	// MaxSkew triggers when Eq. 4 skewness exceeds it (default 1.1).
	MaxSkew float64
	// MaxChurn triggers when changed edges exceed this fraction of the
	// graph's edges (default 0.05).
	MaxChurn float64
	// MaxStaleness triggers when the live Eq. 2 communication cost has
	// grown past (1+MaxStaleness)× the reference recorded at the last
	// committed refinement (0 disables; only EvaluateScore consults it).
	MaxStaleness float64
}

// DefaultTrigger returns the defaults above.
func DefaultTrigger() TriggerPolicy {
	return TriggerPolicy{MaxSkew: 1.1, MaxChurn: 0.05, MaxStaleness: 0.25}
}

// Decision explains a trigger evaluation.
type Decision struct {
	Refine    bool
	Reason    string
	Code      int // firing rule: 0 skew, 1 churn, 2 staleness, -1 none
	Skew      float64
	Churn     float64
	Staleness float64 // live comm cost / reference comm cost (EvaluateScore only)
}

// Evaluate inspects the current graph state and decomposition plus the
// churned-edge count since the last refinement.
func (tp TriggerPolicy) Evaluate(g *graph.Graph, p *partition.Partitioning, churnedEdges int64) Decision {
	sc := partition.Score{Skewness: partition.Skewness(g, p)}
	return tp.EvaluateScore(sc, 0, g.NumEdges(), churnedEdges)
}

// EvaluateScore is the incremental form the streaming daemon drives: the
// caller maintains the Eq. 2–4 Score of the live decomposition itself
// (delta-updated per churn event, no graph rescan) and feeds it here
// together with the comm-cost reference of the last committed epoch.
// refCost <= 0 disables the staleness check, as does MaxStaleness == 0.
func (tp TriggerPolicy) EvaluateScore(sc partition.Score, refCost float64, edges, churnedEdges int64) Decision {
	if tp.MaxSkew == 0 {
		tp.MaxSkew = 1.1
	}
	if tp.MaxChurn == 0 {
		tp.MaxChurn = 0.05
	}
	d := Decision{Code: -1, Skew: sc.Skewness}
	if edges > 0 {
		d.Churn = float64(churnedEdges) / float64(edges)
	}
	if refCost > 0 {
		d.Staleness = sc.CommCost / refCost
	}
	switch {
	case d.Skew > tp.MaxSkew:
		d.Refine = true
		d.Code = 0
		d.Reason = fmt.Sprintf("skewness %.3f exceeds %.3f", d.Skew, tp.MaxSkew)
	case d.Churn > tp.MaxChurn:
		d.Refine = true
		d.Code = 1
		d.Reason = fmt.Sprintf("churn %.1f%% exceeds %.1f%%", 100*d.Churn, 100*tp.MaxChurn)
	case tp.MaxStaleness > 0 && refCost > 0 && d.Staleness > 1+tp.MaxStaleness:
		d.Refine = true
		d.Code = 2
		d.Reason = fmt.Sprintf("comm cost grew %.1f%% past the last epoch's %.3f", 100*(d.Staleness-1), refCost)
	default:
		d.Reason = "decomposition still healthy"
	}
	return d
}
