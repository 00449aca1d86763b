package main

import (
	"fmt"
	"time"

	"paragon/internal/aragon"
	"paragon/internal/obs"
	"paragon/internal/paragon"
	"paragon/internal/partition"
)

// tracedPair is one KindPairRefined event: the pair and what the
// scheduler kept.
type tracedPair struct {
	pi, pj int32
	moves  int64
	gain   float64
}

// round0Waves extracts round 0's waves, pairs in task order, from a
// refinement trace: each wave is a KindWaveScheduled event, its pairs'
// KindPairRefined events (committed in task order at the barrier) and a
// KindWaveCommitted event carrying the wave's kept moves.
func round0Waves(events []obs.Event) (waves [][]tracedPair, waveMoves []int64, err error) {
	open := false
	for _, e := range events {
		if e.Round != 0 {
			continue
		}
		switch e.Kind {
		case obs.KindWaveScheduled:
			waves = append(waves, make([]tracedPair, 0, e.N))
			open = true
		case obs.KindPairRefined:
			if !open {
				return nil, nil, fmt.Errorf("pair (%d,%d) outside a wave", e.A, e.B)
			}
			w := len(waves) - 1
			waves[w] = append(waves[w], tracedPair{pi: e.A, pj: e.B, moves: e.N, gain: e.X})
		case obs.KindWaveCommitted:
			if !open {
				return nil, nil, fmt.Errorf("wave %d committed before it was scheduled", e.A)
			}
			waveMoves = append(waveMoves, e.N)
			open = false
		}
	}
	if len(waves) == 0 || open {
		return nil, nil, fmt.Errorf("trace holds %d round-0 waves (open=%v)", len(waves), open)
	}
	return waves, waveMoves, nil
}

// replayStats is what the serial round-0 replay measured.
type replayStats struct {
	buildIndex  sampler // partition.BuildIndex
	candidates  sampler // Shadow.AppendPairCandidates, per pair
	pair        sampler // Refiner.RefinePairScheduled, per pair
	profileSync time.Duration
	boundary    int
	n           int32
	pairs       int
	cands       int64
	kept        int64
	mismatches  []string
}

// replayRound0 re-executes round 0 of a traced Refine serially through
// the public layer functions, with the state the scheduler builds: a
// fresh index over the input decomposition, one shadow of it, the
// wave-start frozen view and NeighborProfile, and the k-hop-0 boundary
// mask. Pairs run in the traced task order; at each traced wave barrier
// the wave's kept moves are patched into the frozen view and the
// profile. Every pair's kept moves and gain must equal the trace's.
func replayRound0(in input, cfg paragon.Config, events []obs.Event) (replayStats, error) {
	var rs replayStats
	waves, waveMoves, err := round0Waves(events)
	if err != nil {
		return rs, err
	}
	g := in.g
	k := in.p0.K
	cfg = cfg.WithDefaults(k)
	n := g.NumVertices()
	rs.n = n

	master := in.p0.Clone()
	var ix *partition.Index
	for i := 0; i < 3; i++ {
		start := time.Now()
		ix = partition.BuildIndex(g, master)
		rs.buildIndex.add(time.Since(start))
	}
	orig := append([]int32(nil), in.p0.Assign...)
	cur := &partition.Partitioning{K: k, Assign: append([]int32(nil), in.p0.Assign...)}
	frozen := append([]int32(nil), in.p0.Assign...)
	shadow := partition.NewShadow(cur, n)
	shadow.Reset(ix)
	profile := partition.BuildNeighborProfile(g, frozen, k)
	mask := partition.NewBitset(n)
	for v := int32(0); v < n; v++ {
		if ix.IsBoundary(v) {
			mask.Set(v)
		}
	}
	rs.boundary = mask.Count()
	r := aragon.NewRefiner(g, shadow, cfg.AragonConfig())
	r.SetFrozen(frozen)
	r.SetProfile(profile)
	loads := master.Weights(g)
	maxLoad := partition.BalanceBound(g, k, cfg.MaxImbalance)

	var cands []int32
	var kept []aragon.Move
	for wi, wave := range waves {
		kept = kept[:0]
		var moved int64
		for _, tp := range wave {
			start := time.Now()
			cands = shadow.AppendPairCandidates(cands[:0], tp.pi, tp.pj, mask)
			rs.candidates.add(time.Since(start))

			mark := len(kept)
			start = time.Now()
			var res aragon.Result
			kept, res = r.RefinePairScheduled(kept, orig, tp.pi, tp.pj, in.c, loads, maxLoad, mask)
			rs.pair.add(time.Since(start))

			rs.pairs++
			rs.cands += int64(len(cands))
			rs.kept += int64(res.Moves)
			moved += int64(res.Moves)
			if int64(res.Moves) != tp.moves || res.Gain != tp.gain || len(kept)-mark != res.Moves {
				rs.mismatches = append(rs.mismatches, fmt.Sprintf(
					"wave %d pair (%d,%d): replay kept %d moves gain %v, trace %d moves gain %v",
					wi, tp.pi, tp.pj, res.Moves, res.Gain, tp.moves, tp.gain))
			}
		}
		if moved != waveMoves[wi] {
			rs.mismatches = append(rs.mismatches, fmt.Sprintf(
				"wave %d: replay kept %d moves, trace %d", wi, moved, waveMoves[wi]))
		}
		start := time.Now()
		for _, mv := range kept {
			old := frozen[mv.V]
			adj := g.Neighbors(mv.V)
			ew := g.EdgeWeights(mv.V)[:len(adj)]
			for i, u := range adj {
				profile.MoveNeighbor(u, old, mv.To, int64(ew[i]))
			}
			frozen[mv.V] = mv.To
		}
		rs.profileSync += time.Since(start)
	}
	return rs, nil
}
