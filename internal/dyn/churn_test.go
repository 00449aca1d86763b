package dyn

import (
	"testing"

	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/partition"
	"paragon/internal/stream"
)

func TestRandomChurnShape(t *testing.T) {
	g := gen.RMAT(1000, 5000, 0.57, 0.19, 0.19, 1)
	ops := RandomChurn(g, 50, 30, 7)
	adds, removes := 0, 0
	for _, op := range ops {
		if op.U == op.V {
			t.Fatal("self-loop event generated")
		}
		if op.Add {
			adds++
			if op.W <= 0 {
				t.Fatal("add event without weight")
			}
		} else {
			removes++
			if !g.HasEdge(op.U, op.V) {
				t.Fatal("remove event for a non-edge")
			}
		}
	}
	if adds == 0 || removes == 0 {
		t.Fatalf("adds=%d removes=%d", adds, removes)
	}
	if RandomChurn(gen.Mesh2D(2, 2), 1, 1, 1) == nil {
		// tiny graphs still produce events
		t.Log("tiny graph produced no events (acceptable)")
	}
	if got := RandomChurn(graph.NewBuilder(1).Build(), 5, 5, 1); got != nil {
		t.Fatalf("single-vertex graph produced events: %v", got)
	}
}

func TestApplyChurn(t *testing.T) {
	g := gen.Mesh2D(10, 10)
	o := graph.NewMutable(g, g.NumVertices())
	before := o.NumEdges()
	ops := RandomChurn(g, 40, 20, 3)
	applied := ApplyChurn(o, ops)
	if applied == 0 {
		t.Fatal("nothing applied")
	}
	m := o.Freeze()
	if err := m.Validate(); err != nil {
		t.Fatalf("churned graph invalid: %v", err)
	}
	if m.NumEdges() == before {
		t.Log("edge count unchanged (adds balanced removes) — still fine")
	}
	// Removing an absent edge and re-adding an existing one are skipped.
	o2 := graph.NewMutable(g, g.NumVertices())
	skip := []EdgeOp{
		{Add: false, U: 0, V: 99},     // not an edge
		{Add: true, U: 0, V: 1, W: 1}, // already exists
	}
	if got := ApplyChurn(o2, skip); got != 0 {
		t.Fatalf("applied %d no-op events", got)
	}
}

func TestTriggerPolicySkew(t *testing.T) {
	g := gen.Mesh2D(12, 12)
	p := partition.New(4, g.NumVertices()) // everything in partition 0
	d := DefaultTrigger().Evaluate(g, p, 0)
	if !d.Refine {
		t.Fatalf("collapsed decomposition not flagged: %+v", d)
	}
	if d.Skew < 3 {
		t.Fatalf("skew = %v for a fully collapsed decomposition", d.Skew)
	}
}

func TestTriggerPolicyChurn(t *testing.T) {
	g := gen.Mesh2D(12, 12)
	p := stream.DG(g, 4, stream.DefaultOptions())
	tp := DefaultTrigger()
	healthy := tp.Evaluate(g, p, 0)
	if healthy.Refine {
		t.Fatalf("healthy decomposition flagged: %+v", healthy)
	}
	churned := tp.Evaluate(g, p, g.NumEdges()/10) // 10% churn
	if !churned.Refine {
		t.Fatalf("10%% churn not flagged: %+v", churned)
	}
	if churned.Reason == "" {
		t.Fatal("decision must carry a reason")
	}
}

func TestTriggerZeroValueDefaults(t *testing.T) {
	g := gen.Mesh2D(8, 8)
	p := stream.DG(g, 4, stream.DefaultOptions())
	var tp TriggerPolicy // zero value: defaults apply inside Evaluate
	d := tp.Evaluate(g, p, 0)
	if d.Refine {
		t.Fatalf("zero-value policy misfired: %+v", d)
	}
}

func TestChurnThenRefineLoop(t *testing.T) {
	// End-to-end edge-dynamism loop: churn -> trigger -> refine ->
	// healthy again.
	g := gen.RMAT(2000, 10000, 0.57, 0.19, 0.19, 5)
	g.UseDegreeWeights()
	p := stream.DG(g, 8, stream.DefaultOptions())
	o := graph.NewMutable(g, g.NumVertices())
	applied := ApplyChurn(o, RandomChurn(g, 1500, 200, 9))
	cur := o.Freeze()
	cur.UseDegreeWeights()
	d := DefaultTrigger().Evaluate(cur, p, int64(applied))
	if !d.Refine {
		t.Fatalf("heavy churn not flagged: %+v", d)
	}
}
