package main

import (
	"fmt"
	"runtime"
	"time"

	"paragon/internal/dyn"
	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/paragon"
	"paragon/internal/partition"
	"paragon/internal/session"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

// spec is one workload at one size. Quick mode shrinks every size so the
// self-test runs in seconds; the shape of each workload is unchanged.
type spec struct {
	graph   func(seed int64) *graph.Graph
	initial func(g *graph.Graph, k int32) *partition.Partitioning
	k       int32
	costs   func(k int32) (c [][]float64, nodeOf []int, err error)
	batches int // churn batches; > 0 marks the daemon workload
}

// The churn and epoch settings are shared by daemon-churn and by the
// session probe of the traced refine workloads.
const (
	churnAdds        = 400
	churnRemoves     = 150
	churnArrivals    = 10
	churnArrivalDeg  = 3
	churnFaultRate   = 0.3
	churnFaultSeed   = 1 // fixed: the abort share is a property of the workload, not of --seed
	churnShuffles    = 2
	churnTrigger     = 0.05 // churned-edge fraction that triggers an epoch
	probeTrigger     = 1e-6 // session probe on the refine workloads: every batch the cooldown allows
	lookupsPerBatch  = 1024
	probeBatches     = 24 // session probe length on the refine workloads
	setupSamples     = 5  // set-ups timed per run (setup_s is their median)
	minRefineSamples = 3
)

func rmat(n int32, m int64) func(int64) *graph.Graph {
	return func(seed int64) *graph.Graph {
		g := gen.RMAT(n, m, 0.57, 0.19, 0.19, seed)
		g.UseDegreeWeights()
		return g
	}
}

func road(rows, cols int32) func(int64) *graph.Graph {
	return func(seed int64) *graph.Graph {
		g := gen.RoadGrid(rows, cols, 0.9, 0.1, seed)
		g.UseDegreeWeights()
		return g
	}
}

func uniformCosts(k int32) ([][]float64, []int, error) {
	return topology.UniformMatrix(int(k)), nil, nil
}

func pittCosts(k int32) ([][]float64, []int, error) {
	cl := topology.PittCluster(4)
	c, err := cl.PartitionCostMatrix(int(k), 1)
	if err != nil {
		return nil, nil, err
	}
	nodeOf, err := cl.NodeOf(int(k))
	return c, nodeOf, err
}

func hp(g *graph.Graph, k int32) *partition.Partitioning { return stream.HP(g, k) }
func dg(g *graph.Graph, k int32) *partition.Partitioning {
	return stream.DG(g, k, stream.DefaultOptions())
}
func ldg(g *graph.Graph, k int32) *partition.Partitioning {
	return stream.LDG(g, k, stream.DefaultOptions())
}

var workloadNames = []string{"social-uniform", "road-arch", "daemon-churn"}

func lookupSpec(name string, quick bool) (spec, error) {
	switch name {
	case "social-uniform":
		s := spec{graph: rmat(100000, 800000), initial: hp, k: 128, costs: uniformCosts}
		if quick {
			s.graph, s.k = rmat(3000, 18000), 16
		}
		return s, nil
	case "road-arch":
		s := spec{graph: road(700, 700), initial: dg, k: 64, costs: pittCosts}
		if quick {
			s.graph, s.k = road(60, 60), 16
		}
		return s, nil
	case "daemon-churn":
		s := spec{graph: rmat(100000, 800000), initial: ldg, k: 16, costs: uniformCosts,
			batches: 2000}
		if quick {
			s.graph, s.batches = rmat(3000, 15000), 60
		}
		return s, nil
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// input is one workload's generated input: the graph, its initial
// decomposition and the cost model. The refinement never sees the seed.
type input struct {
	g      *graph.Graph
	p0     *partition.Partitioning
	c      [][]float64
	nodeOf []int
}

// setup generates the input from the seed: graph, initial partitioning
// and cost matrix — everything setup_s times on the refine workloads.
func (s spec) setup(seed int64) (input, error) {
	g := s.graph(subSeed(seed, 1))
	c, nodeOf, err := s.costs(s.k)
	if err != nil {
		return input{}, err
	}
	return input{g: g, p0: s.initial(g, s.k), c: c, nodeOf: nodeOf}, nil
}

// timedSetups runs setup setupSamples times and returns the last input
// with the durations.
func (s spec) timedSetups(seed int64) (input, sampler, error) {
	var in input
	var ts sampler
	for i := 0; i < setupSamples; i++ {
		in = input{}
		runtime.GC()
		start := time.Now()
		var err error
		if in, err = s.setup(seed); err != nil {
			return input{}, nil, err
		}
		ts.add(time.Since(start))
	}
	return in, ts, nil
}

// refineConfig is the paper's default configuration (DRP 8, 8 shuffles,
// α = 10) for the given worker count.
func (in input) refineConfig(seed int64, workers int) paragon.Config {
	cfg := paragon.DefaultConfig()
	cfg.Workers = workers
	cfg.NodeOf = in.nodeOf
	cfg.Seed = subSeed(seed, 2)
	return cfg
}

// sessionConfig is the daemon-churn session: LDG arrival placement,
// trigger skew 1.1 / churn 5% / staleness 0.25, lag 2, cooldown 4,
// 2 shuffles per epoch, fault rate 0.3. maxChurn overrides the churn
// trigger (the refine workloads' session probe fires on every batch the
// cooldown allows, so a short probe still runs epochs).
func (in input) sessionConfig(seed int64, capacity int32, workers int, maxChurn float64) session.Config {
	cfg := session.Config{
		Capacity:        capacity,
		Placement:       stream.PlaceLDG,
		Trigger:         dyn.TriggerPolicy{MaxSkew: 1.1, MaxChurn: maxChurn, MaxStaleness: 0.25},
		EpochLagBatches: 2,
		CooldownBatches: 4,
		Costs:           in.c,
		FaultRate:       churnFaultRate,
		FaultSeed:       churnFaultSeed,
	}
	cfg.Refine = paragon.DefaultConfig()
	cfg.Refine.Shuffles = churnShuffles
	cfg.Refine.Workers = workers
	cfg.Refine.NodeOf = in.nodeOf
	cfg.Refine.Seed = subSeed(seed, 3)
	return cfg
}

func newWorkload(seed int64) *dyn.Workload {
	return dyn.NewWorkload(subSeed(seed, 4), dyn.WorkloadConfig{
		Adds: churnAdds, Removes: churnRemoves, Arrivals: churnArrivals, ArrivalDegree: churnArrivalDeg,
	})
}
