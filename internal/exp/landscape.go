package exp

import (
	"time"

	"paragon/internal/apps"
	"paragon/internal/aragonlb"
	"paragon/internal/bsp"
	"paragon/internal/dyn"
	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/mizan"
	"paragon/internal/parmetis"
	"paragon/internal/partition"
	"paragon/internal/stream"
	"paragon/internal/zoltan"
)

// RepartitionerLandscape reproduces the paper's Figure 1 landscape as a
// measurement: every repartitioner family in the repository adapts the
// same churned decomposition, and BFS JET, migration cost, and
// adaptation time are compared. The scenario: a DG decomposition of the
// YouTube stand-in degraded by edge churn (10% adds, friend-of-friend
// biased), exactly the §1 motivation for online repartitioning.
func RepartitionerLandscape(scale float64, nSources int) *Table {
	env := PittEnv(3)
	k := int32(env.K)
	d, err := gen.DatasetByName("YouTube")
	if err != nil {
		panic(err)
	}
	base := d.Build(scale)
	base.UseDegreeWeights()
	old := stream.DG(base, k, stream.DefaultOptions())

	// Churn the graph: the decomposition is now stale.
	mg := graph.NewMutable(base, base.NumVertices())
	adds := int(base.NumEdges() / 10)
	dyn.ApplyChurn(mg, dyn.RandomChurn(base, adds, adds/4, 31))
	g := mg.Freeze()
	g.UseDegreeWeights()

	c := env.PlainMatrix()
	srcs := sources(g.NumVertices(), nSources, 99)
	jet := func(p *partition.Partitioning) float64 {
		j, _ := runJob(appBFS, g, p, env, 8, srcs)
		return j
	}
	mig := func(p *partition.Partitioning) float64 {
		return partition.MigrationCost(g, old, p, c)
	}

	tab := &Table{
		ID:     "landscape",
		Title:  "Repartitioner landscape under 10% edge churn (YouTube stand-in, Figure 1 families)",
		Header: []string{"repartitioner", "family", "BFS_JET", "migration_cost", "adapt_time"},
		Notes:  "architecture-aware + parallel (PARAGON) vs heavyweight, lightweight, and runtime-driven families",
	}
	add := func(name, family string, p *partition.Partitioning, dt time.Duration) {
		tab.Rows = append(tab.Rows, []string{name, family, f0(jet(p)), f0(mig(p)), secs(dt)})
	}

	// Baseline: no adaptation.
	add("none (stale DG)", "streaming", old, 0)

	// Heavyweight multilevel repartitioners.
	start := time.Now()
	pScratch, err := parmetis.Repartition(g, old, parmetis.Options{Method: parmetis.ScratchRemap, Seed: 7})
	if err != nil {
		panic(err)
	}
	add("parmetis scratch-remap", "heavyweight", pScratch, time.Since(start))

	start = time.Now()
	pDiff, err := parmetis.Repartition(g, old, parmetis.Options{Method: parmetis.Diffusion, Seed: 7})
	if err != nil {
		panic(err)
	}
	add("parmetis diffusion", "heavyweight", pDiff, time.Since(start))

	// Hypergraph repartitioner.
	start = time.Now()
	pZ, _, err := zoltan.Repartition(g, old, zoltan.Options{Alpha: env.Alpha})
	if err != nil {
		panic(err)
	}
	add("zoltan hypergraph", "heavyweight", pZ, time.Since(start))

	// Runtime-statistics-driven (Mizan): profile one BFS, then migrate
	// hot vertices.
	profEngine, err := bsp.NewEngine(g, old, env.Cluster, bsp.Options{
		MsgGroupSize: 8, MemoryContention: env.Contention, TrackVertexTraffic: true,
	})
	if err != nil {
		panic(err)
	}
	_, prof, err := apps.BFS(profEngine, g, srcs[0])
	if err != nil {
		panic(err)
	}
	start = time.Now()
	pM, _, err := mizan.Repartition(g, old, prof.VertexTraffic, mizan.Options{})
	if err != nil {
		panic(err)
	}
	add("mizan hot-vertex", "lightweight/runtime", pM, time.Since(start))

	// Architecture-aware single-server prior work.
	pLB := old.Clone()
	stLB, err := aragonlb.Repartition(g, pLB, c, aragonlb.Config{Alpha: env.Alpha})
	if err != nil {
		panic(err)
	}
	add("aragonlb", "architecture-aware serial", pLB, stLB.Elapsed)

	// PARAGON (the paper: architecture-aware AND parallel).
	pPar := old.Clone()
	stPar := RefineParagon(g, pPar, env, 8, 8, 42)
	add("paragon", "architecture-aware parallel", pPar, stPar.RefinementTime)

	return tab
}
