package main

import (
	"fmt"
	"runtime"
	"time"

	"paragon/internal/dir"
	"paragon/internal/partition"
	"paragon/internal/session"
)

// maxTailBatches bounds the batches a run may ingest past its schedule
// while waiting for an epoch to commit on Drain.
const maxTailBatches = 500

// churnRun is one pass of a session over a churn schedule, timed at the
// public entry points: dyn.Workload.Next, Session.Ingest (split into
// plain, launching and joining batches), Session.Drain and blocks of
// Directory.Lookup.
type churnRun struct {
	next, plain, launch, join, epoch, lookup sampler
	ingest                                   time.Duration // inside Ingest and Drain only

	opening, final partition.Score
	stats          session.Stats
	hash           uint64
	replay         string
	failures       []string
}

// lookupIDs picks the base-graph vertex ids every lookup block reads,
// by a seeded hash.
func lookupIDs(n0 int32, seed int64) []int32 {
	ids := make([]int32, lookupsPerBatch)
	x := uint64(seed)
	for i := range ids {
		x = splitmix64(x)
		ids[i] = int32(x % uint64(n0))
	}
	return ids
}

// lookupBlock times one block of directory reads and reports whether
// every read returned a valid rank.
func lookupBlock(d *dir.Directory, ids []int32, k int32) (time.Duration, bool) {
	ok := true
	start := time.Now()
	for _, v := range ids {
		if r, _ := d.Lookup(v); r < 0 || r >= k {
			ok = false
		}
	}
	return time.Since(start), ok
}

// runChurn ingests batches from a fresh workload, then keeps ingesting
// until an epoch launches and drains it, until one drain commits: the
// run ends on a committed epoch, so the directory must serve exactly the
// live assignment. Load generation and lookups lie outside the ingest
// window.
func runChurn(s *session.Session, seed int64, batches int, n0, k int32) (churnRun, error) {
	r := churnRun{opening: s.LiveScore()}
	w := newWorkload(seed)
	ids := lookupIDs(n0, subSeed(seed, 5))
	var launchAt time.Time
	inFlight := false
	committed := false
	for i := 0; !committed; i++ {
		if i >= batches+maxTailBatches {
			return r, fmt.Errorf("no epoch committed within %d batches past the schedule", maxTailBatches)
		}
		t0 := time.Now()
		b := w.Next(s.Source())
		t1 := time.Now()
		bs, err := s.Ingest(b)
		t2 := time.Now()
		if err != nil {
			return r, fmt.Errorf("batch %d: %w", i, err)
		}
		r.next.add(t1.Sub(t0))
		d := t2.Sub(t1)
		r.ingest += d
		if bs.Joined {
			r.join.add(d)
			r.epoch.add(t2.Sub(launchAt))
			inFlight = false
		}
		if bs.Launched {
			r.launch.add(d)
			launchAt, inFlight = t1, true
		}
		if !bs.Joined && !bs.Launched {
			r.plain.add(d)
		}
		lt, ok := lookupBlock(s.Directory(), ids, k)
		r.lookup.add(lt)
		if !ok {
			r.failures = append(r.failures, fmt.Sprintf("batch %d: lookup returned a rank outside [0,%d)", i, k))
		}
		if i+1 >= batches && inFlight {
			t3 := time.Now()
			c, err := s.Drain()
			t4 := time.Now()
			if err != nil {
				return r, fmt.Errorf("drain: %w", err)
			}
			r.ingest += t4.Sub(t3)
			r.epoch.add(t4.Sub(launchAt))
			inFlight, committed = false, c
		}
	}
	r.stats = s.Stats()
	r.final = r.stats.Live
	r.hash = s.AssignHash()
	r.replay = replaySummary(s, r.stats)
	if served := servedHash(s.Directory().Current(), r.stats); served != r.hash {
		r.failures = append(r.failures, fmt.Sprintf("directory serves hash %#x after the committed drain, live is %#x", served, r.hash))
	}
	return r, nil
}

// servedHash folds the directory's served assignment the way
// Session.AssignHash folds the live one (assignment, active count,
// committed epochs), so equal hashes mean the directory serves exactly
// the live assignment.
func servedHash(snap *dir.Snapshot, st session.Stats) uint64 {
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime
			x >>= 8
		}
	}
	for _, a := range snap.AppendAssign(nil) {
		mix(uint64(uint32(a)))
	}
	mix(uint64(uint32(st.Active)))
	mix(uint64(st.EpochsCommitted))
	return h
}

// replaySummary is the deterministic part of a session run: it must be
// identical at every refinement worker count.
func replaySummary(s *session.Session, st session.Stats) string {
	return fmt.Sprintf("batches=%d ops=%d added=%d removed=%d arrivals=%d rejected=%d "+
		"epochs=%d/%d/%d moves=%d active=%d edges=%d vticks=%d cut=%d comm=%g skew=%g hash=%#x dir=%d/%#x",
		st.Batches, st.OpsApplied, st.EdgesAdded, st.EdgesRemoved, st.Arrivals, st.ArrivalsRejected,
		st.EpochsLaunched, st.EpochsCommitted, st.EpochsAborted, st.EpochMoves, st.Active, st.Edges,
		st.VirtualTicks, st.Live.EdgeCut, st.Live.CommCost, st.Live.Skewness,
		s.AssignHash(), st.DirectoryEpoch, s.Directory().Current().AssignHash())
}

// newSession builds the session over the input; capacity leaves room
// for every arrival of the schedule and its tail.
func newSession(in input, seed int64, batches, workers int, maxChurn float64) (*session.Session, error) {
	capacity := in.g.NumVertices() + int32((batches+maxTailBatches)*churnArrivals)
	return session.New(in.g, in.p0, in.sessionConfig(seed, capacity, workers, maxChurn))
}

// buildSession is daemon-churn's set-up: input generation, LDG and
// session construction, timed from a collected heap.
func buildSession(sp spec, seed int64) (*session.Session, input, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	in, err := sp.setup(seed)
	if err != nil {
		return nil, input{}, 0, err
	}
	s, err := newSession(in, seed, sp.batches, 1, churnTrigger)
	return s, in, time.Since(start), err
}

// measureDaemon is the untraced run of daemon-churn: fresh sessions
// (input generation, LDG and session construction are the set-up)
// replaying the same schedule at Workers=1 until the window is spent.
// Every pass must end in the same replay summary.
func measureDaemon(r *report, sp spec, seed int64, window time.Duration) error {
	var setups, epochs sampler
	var churned int64
	var ingest time.Duration
	var first churnRun
	var launched, committed int64
	start := time.Now()
	pass := 0
	for ; pass < 2 || time.Since(start) < window; pass++ {
		s, in, d, err := buildSession(sp, seed)
		if err != nil {
			return err
		}
		setups.add(d)
		run, err := runChurn(s, seed, sp.batches, in.g.NumVertices(), sp.k)
		if err != nil {
			return err
		}
		r.failures = append(r.failures, run.failures...)
		r.check(len(run.failures) == 0, "pass %d: %d failed checks", pass, len(run.failures))
		if pass == 0 {
			first = run
		}
		r.check(run.replay == first.replay, "pass %d replay differs:\n%s\n%s", pass, run.replay, first.replay)
		epochs = append(epochs, run.epoch...)
		churned += run.stats.EdgesAdded + run.stats.EdgesRemoved
		ingest += run.ingest
		launched += run.stats.EpochsLaunched
		committed += run.stats.EpochsCommitted
	}
	// Top up the set-up samples without running more passes.
	for len(setups) < setupSamples {
		_, _, d, err := buildSession(sp, seed)
		if err != nil {
			return err
		}
		setups.add(d)
	}
	r.hash("live", first.hash)
	r.samples["passes"] = pass
	r.samples["epochs"] = len(epochs)
	r.samples["setup"] = len(setups)

	r.set("setup_s", "s", median(setups).Seconds())
	r.set("refine_s", "s", median(epochs).Seconds()) // epoch_ms in s, not an independent timing
	r.set("cost_ratio", "ratio", ratio(first.final.CommCost, first.opening.CommCost))
	r.set("edge_cut_ratio", "ratio", ratio(float64(first.final.EdgeCut), float64(first.opening.EdgeCut)))
	// Throughput pools every pass: host speed drifts over seconds, and a
	// median of a handful of per-pass rates follows that drift more.
	r.set("ingest_edges_per_s", "edges/s", float64(churned)/ingest.Seconds())
	r.set("epoch_ms", "ms", millis(median(epochs)))
	r.set("success_ratio", "ratio", ratio(float64(committed), float64(launched)))
	return nil
}

// probeSession is the traced run's session probe: one session pass at
// Workers=1 whose entry-point timings become the session, dyn and dir
// layer metrics. With replayCheck the same pass is repeated at
// Workers=2 and both replay summaries must match.
func probeSession(r *report, in input, seed int64, batches int, maxChurn float64, replayCheck bool) error {
	s, err := newSession(in, seed, batches, 1, maxChurn)
	if err != nil {
		return err
	}
	run, err := runChurn(s, seed, batches, in.g.NumVertices(), in.p0.K)
	if err != nil {
		return err
	}
	r.failures = append(r.failures, run.failures...)
	r.check(len(run.failures) == 0, "session probe: %d failed checks", len(run.failures))
	if replayCheck {
		s2, err := newSession(in, seed, batches, 2, maxChurn)
		if err != nil {
			return err
		}
		run2, err := runChurn(s2, seed, batches, in.g.NumVertices(), in.p0.K)
		if err != nil {
			return err
		}
		r.check(run2.replay == run.replay, "replay at Workers=2 differs from Workers=1:\n%s\n%s", run2.replay, run.replay)
	}
	r.hash("live", run.hash)
	r.samples["session_epochs"] = len(run.epoch)

	r.set("session.plain_us", "us", micros(median(run.plain)))
	r.set("session.launch_ms", "ms", millis(median(run.launch)))
	r.set("session.join_ms", "ms", millis(median(run.join)))
	r.set("session.epochs", "count", float64(run.stats.EpochsLaunched))
	r.set("session.epoch_moves", "count", float64(run.stats.EpochMoves))
	r.set("dyn.next_us", "us", micros(median(run.next)))
	r.set("dir.lookup_ns", "ns", float64(median(run.lookup))/lookupsPerBatch)
	return nil
}
