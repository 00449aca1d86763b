package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"paragon/internal/apps"
	"paragon/internal/bsp"
	"paragon/internal/obs"
	"paragon/internal/paragon"
	"paragon/internal/partition"
	"paragon/internal/topology"
)

// refineCall is one timed paragon.Refine on a fresh copy of the input
// decomposition.
type refineCall struct {
	p    *partition.Partitioning
	st   paragon.Stats
	wall time.Duration
	err  error
}

func refineOnce(in input, cfg paragon.Config) refineCall {
	q := in.p0.Clone()
	runtime.GC() // every call starts from the same heap, so no call pays another's garbage
	start := time.Now()
	st, err := paragon.Refine(in.g, q, in.c, cfg)
	return refineCall{p: q, st: st, wall: time.Since(start), err: err}
}

// checkRefined verifies one refinement: no error, a valid assignment, a
// cost no higher than the input's, and Stats that agree with the
// objective recomputed from scratch (migration cost and migrated
// vertices exactly; the gain to rounding under uniform costs and to
// nonUniformGainTol otherwise). It
// returns the recomputed score.
func checkRefined(r *report, in input, call refineCall, before partition.Score, alpha float64) partition.Score {
	if !r.check(call.err == nil, "refine: %v", call.err) {
		return partition.Score{}
	}
	if !r.check(call.p.Validate(in.g) == nil, "refined assignment invalid: %v", call.p.Validate(in.g)) {
		return partition.Score{}
	}
	after := partition.ComputeScore(in.g, call.p, in.p0.Assign, in.c, alpha)
	var migrated int64
	for v, a := range call.p.Assign {
		if a != in.p0.Assign[v] {
			migrated++
		}
	}
	r.check(migrated == call.st.MigratedVertices,
		"Stats.MigratedVertices %d, recomputed %d", call.st.MigratedVertices, migrated)
	r.check(relDiff(after.MigrationCost, call.st.MigrationCost) <= 1e-9,
		"Stats.MigrationCost %v, recomputed %v", call.st.MigrationCost, after.MigrationCost)
	r.check(after.Cost() <= before.Cost(), "refinement raised the cost from %v to %v", before.Cost(), after.Cost())
	// Stats.Gain sums each pair's gains as evaluated against the
	// wave-start view of the other pairs' vertices. Under uniform costs
	// two adjacent vertices moved by concurrent pairs of one wave leave
	// their edge's cost unchanged, so the sum is the realized cost drop
	// exactly. Under non-uniform costs it is not: such an edge's cost
	// changes by a different amount than the two pairs counted. There the
	// gap is recorded and held to nonUniformGainTol.
	drop := before.Cost() - after.Cost()
	gap := relDiff(drop, call.st.Gain)
	if uniformOffDiag(in.c, in.p0.K) {
		r.check(gap <= 1e-6, "Stats.Gain %v, recomputed cost drop %v", call.st.Gain, drop)
	} else {
		r.observed["gain_gap"] = gap
		r.check(gap <= nonUniformGainTol, "Stats.Gain %v, recomputed cost drop %v: relative gap %v above %v",
			call.st.Gain, drop, gap, nonUniformGainTol)
	}
	return after
}

// nonUniformGainTol bounds the relative gap between Stats.Gain and the
// recomputed cost drop under non-uniform costs. The concurrent-pair
// mis-count measured 2e-4 to 4e-4 on road-arch; a gain-accounting
// regression on the general path would exceed it.
const nonUniformGainTol = 1e-3

// uniformOffDiag reports whether every off-diagonal cost of the first k
// rows and columns is the same.
func uniformOffDiag(c [][]float64, k int32) bool {
	for i := int32(0); i < k; i++ {
		for j := int32(0); j < k; j++ {
			if i != j && c[i][j] != c[0][1] {
				return false
			}
		}
	}
	return true
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if s := math.Max(math.Abs(a), math.Abs(b)); s > 0 {
		return d / s
	}
	return d
}

// measureRefine is the untraced run of a refine workload: paragon.Refine
// at Workers=2, repeated on copies of the same input for the window.
func measureRefine(r *report, sp spec, seed int64, window time.Duration) error {
	in, setups, err := sp.timedSetups(seed)
	if err != nil {
		return err
	}
	cfg := in.refineConfig(seed, 2)
	alpha := cfg.WithDefaults(in.p0.K).Alpha
	before := partition.ComputeScore(in.g, in.p0, nil, in.c, alpha)

	var walls, perRound sampler
	var after partition.Score
	var hash uint64
	calls, failedCalls := 0, 0
	start := time.Now()
	for ; calls < minRefineSamples || time.Since(start) < window; calls++ {
		call := refineOnce(in, cfg)
		failedBefore := r.failed
		after = checkRefined(r, in, call, before, alpha)
		h := assignHash(call.p.Assign)
		if calls == 0 {
			hash = h
		}
		r.check(h == hash, "call %d: assignment hash %#x differs from call 0's %#x", calls, h, hash)
		if r.failed > failedBefore {
			failedCalls++
			continue
		}
		walls.add(call.wall)
		perRound.add(call.wall / time.Duration(call.st.Rounds))
	}
	r.hash("refined", hash)
	r.samples["refine"] = len(walls)
	r.samples["setup"] = len(setups)

	r.set("setup_s", "s", median(setups).Seconds())
	r.set("refine_s", "s", median(walls).Seconds())
	r.set("cost_ratio", "ratio", ratio(after.Cost(), before.Cost()))
	r.set("edge_cut_ratio", "ratio", ratio(float64(after.EdgeCut), float64(before.EdgeCut)))
	// Every workload prints every end-to-end metric; here the next two
	// are refine_s restated (|E| per refine, and per round), not
	// independent timings.
	r.set("ingest_edges_per_s", "edges/s", ratio(float64(in.g.NumEdges()), median(walls).Seconds()))
	r.set("epoch_ms", "ms", millis(median(perRound)))
	r.set("success_ratio", "ratio", ratio(float64(calls-failedCalls), float64(calls)))
	return nil
}

// probeRefine is the traced run's refinement probe, shared by every
// workload: Refine at Workers=2 alternately with and without Trace and
// Metrics for the window, once at Workers=1, the serial round-0 replay
// of the traced schedule, and the simulated BFS of the result.
func probeRefine(r *report, in input, cfg paragon.Config, window time.Duration) error {
	cfg.Workers = 2
	var plain, traced sampler
	var events []obs.Event
	var reg *obs.Registry
	var ref refineCall
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < window; i++ {
		call := refineOnce(in, cfg)
		r.check(call.err == nil, "refine: %v", call.err)
		plain.add(call.wall)

		tcfg := cfg
		tcfg.Trace = obs.NewTracer(1 << 18)
		tcfg.Metrics = obs.NewRegistry()
		tcall := refineOnce(in, tcfg)
		r.check(tcall.err == nil, "traced refine: %v", tcall.err)
		r.check(tcfg.Trace.Dropped() == 0, "trace ring dropped %d events", tcfg.Trace.Dropped())
		traced.add(tcall.wall)
		r.check(assignHash(tcall.p.Assign) == assignHash(call.p.Assign),
			"traced refinement changed the output")
		if i == 0 {
			ref, events, reg = call, tcfg.Trace.Events(), tcfg.Metrics
		}
		r.check(assignHash(call.p.Assign) == assignHash(ref.p.Assign), "refinement %d is not deterministic", i)
	}
	cfg.Workers = 1
	w1 := refineOnce(in, cfg)
	r.check(w1.err == nil, "refine at Workers=1: %v", w1.err)
	r.check(assignHash(w1.p.Assign) == assignHash(ref.p.Assign),
		"Workers=1 hash %#x differs from Workers=2 hash %#x", assignHash(w1.p.Assign), assignHash(ref.p.Assign))
	alpha := cfg.WithDefaults(in.p0.K).Alpha
	checkRefined(r, in, ref, partition.ComputeScore(in.g, in.p0, nil, in.c, alpha), alpha)
	r.hash("refined", assignHash(ref.p.Assign))
	r.samples["refine"] = len(plain)

	rs, err := replayRound0(in, cfg, events)
	if err != nil {
		return fmt.Errorf("round-0 replay: %w", err)
	}
	if !r.check(len(rs.mismatches) == 0, "round-0 replay: %d mismatches", len(rs.mismatches)) {
		r.failures = append(r.failures, rs.mismatches...)
	}
	r.samples["replay_pairs"] = rs.pairs

	jet, err := bfsJETRatio(in, ref.p)
	if err != nil {
		return err
	}

	r.set("partition.build_index_ms", "ms", millis(median(rs.buildIndex)))
	r.set("partition.candidates_us", "us", micros(median(rs.candidates)))
	r.set("partition.profile_sync_ms", "ms", millis(rs.profileSync))
	r.set("partition.boundary_frac", "ratio", ratio(float64(rs.boundary), float64(rs.n)))
	r.set("aragon.pair_us", "us", micros(median(rs.pair)))
	r.set("aragon.candidates_per_pair", "count", ratio(float64(rs.cands), float64(rs.pairs)))
	r.set("aragon.keep_ratio", "ratio", ratio(float64(rs.kept), float64(rs.cands)))
	r.set("paragon.refine_w1_s", "s", w1.wall.Seconds())
	r.set("paragon.speedup_w2", "x", ratio(w1.wall.Seconds(), median(plain).Seconds()))
	r.set("paragon.waves", "count", float64(reg.Counter("refine_waves_total", "").Value()))
	r.set("paragon.pairs", "count", float64(reg.Counter("refine_pairs_total", "").Value()))
	r.set("paragon.moves", "count", float64(reg.Counter("refine_moves_total", "").Value()))
	r.set("paragon.ship_vertices", "count", float64(reg.Counter("ship_boundary_vertices_total", "").Value()))
	r.set("paragon.exchange_bytes", "bytes", float64(reg.Counter("exchange_bytes_total", "").Value()))
	r.set("obs.overhead_pct", "%", 100*(median(traced).Seconds()/median(plain).Seconds()-1))
	r.set("apps.bfs_jet_ratio", "ratio", jet)
	return nil
}

// bfsJETRatio simulates BFS from the middle vertex on GordonCluster(8)
// under the refined and the initial decomposition and returns the ratio
// of their job execution times. One source keeps the grid workload's
// ~500-superstep BFS affordable.
func bfsJETRatio(in input, refined *partition.Partitioning) (float64, error) {
	cl := topology.GordonCluster(8)
	opts := bsp.Options{MsgGroupSize: 8, MemoryContention: 0.1}
	src := in.g.NumVertices() / 2
	jet := func(p *partition.Partitioning) (float64, error) {
		e, err := bsp.NewEngine(in.g, p, cl, opts)
		if err != nil {
			return 0, err
		}
		_, res, err := apps.BFS(e, in.g, src)
		return res.JET, err
	}
	after, err := jet(refined)
	if err != nil {
		return 0, fmt.Errorf("bfs on the refined decomposition: %w", err)
	}
	before, err := jet(in.p0)
	if err != nil {
		return 0, fmt.Errorf("bfs on the initial decomposition: %w", err)
	}
	return ratio(after, before), nil
}
