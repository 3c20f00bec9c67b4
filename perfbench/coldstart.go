package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/famspec"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stab"
)

// coldStartBudget bounds a hand-driven run; a correct run needs ~60
// rounds at n = 2·10⁴.
const coldStartBudget = 100_000

// runColdStart is the default beepmis path: stab.Supervisor with
// alg1-known-delta, random init and the default engine, from graph to
// verified MIS, once per seed derived from the workload seed. The graph
// is built in set-up. An op is one supervised run; a round is one
// supervised round (step plus legality probe), timed between the
// engine's per-round stats callbacks.
//
// The traced run pairs every supervised run with a hand-driven run of
// the same seed that makes the supervisor's calls itself (NewNetwork,
// ApplyInit, Step, probe, Snapshot+VerifyMIS) under spans; the pair must
// agree on rounds and MIS, and the untraced half is the overhead
// baseline.
func runColdStart(b *bench) error {
	// 2·10⁴ vertices keep a run's working set (about 1.5 MB) within one
	// core's L2: at 2·10⁵ it lives in the host's shared L3, and the run
	// time then follows the neighbours' load by up to 30% between runs.
	family := "gnpavg:20000:8"
	if b.cfg.short {
		family = "gnpavg:2000:8"
	}
	g, err := buildGraph(b, family, derive(b.cfg.seed, "cold-start/graph"), 15)
	if err != nil {
		return err
	}

	var ops, traced, rounds []float64
	ls := &loopStats{}
	totalRounds := 0
	deadline := b.startWindow()
	for i := uint64(0); i == 0 || time.Now().Before(deadline); i++ {
		seed := derive(b.cfg.seed, "cold-start/run", i)
		var marks []time.Time
		stats := beep.WithStatsObserver(func(round, active, frontierWords int) { marks = append(marks, time.Now()) })
		proto, err := core.ProtocolByName("alg1-known-delta")
		if err != nil {
			return err
		}
		sup, err := stab.NewSupervisor(stab.SupervisorConfig{
			Graph: g, Protocol: proto, Seed: seed, Init: core.InitRandom, Options: []beep.Option{stats},
		})
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := sup.Run()
		took := time.Since(start)
		ops = append(ops, ms(took))
		for k := 1; k < len(marks); k++ {
			rounds = append(rounds, us(marks[k].Sub(marks[k-1])))
		}
		if err == nil {
			totalRounds += res.Rounds
			err = checkMIS(b, g, res.MIS)
		}
		if b.tr == nil || err != nil {
			b.check(fmt.Sprintf("run seed=%#x", seed), err)
			continue
		}
		hand, err := handDriven(b, ls, int64(i), g, seed)
		if err == nil {
			traced = append(traced, ms(hand.took))
			switch {
			case hand.rounds != res.Rounds:
				err = fmt.Errorf("hand-driven loop stabilized at round %d, supervisor at %d", hand.rounds, res.Rounds)
			case !slices.Equal(hand.mis, res.MIS):
				err = fmt.Errorf("hand-driven loop and supervisor reached different MIS")
			}
		}
		b.check(fmt.Sprintf("run seed=%#x", seed), err)
	}
	b.endWindow(totalRounds + ls.rounds)
	b.set("op_ms_p50", quantile(ops, 0.5))
	b.set("rounds_per_s", float64(totalRounds)/(sum(ops)/1e3))
	b.set("round_us_p50", quantile(rounds, 0.5))
	if b.tr != nil {
		ls.report(b, g.N())
		b.setOverhead(traced, ops)
	}
	return nil
}

// buildGraph is the set-up of the workloads whose set-up is the graph:
// it builds it reps times and reports the median.
func buildGraph(b *bench, family string, seed uint64, reps int) (*graph.Graph, error) {
	var g *graph.Graph
	var setups, builds []float64
	for i := 0; i < reps; i++ {
		g = nil // let the previous copy go before building the next
		sp := b.tr.begin(-1, 0, "bench", "setup")
		gs := b.tr.begin(-1, sp.id, "graph", "famspec.Parse")
		var err error
		g, err = famspec.Parse(family, rng.New(seed))
		builds = append(builds, gs.end().Seconds())
		setups = append(setups, sp.end().Seconds())
		if err != nil {
			return nil, err
		}
	}
	b.set("setup_s", quantile(setups, 0.5))
	b.set("graph.build_s", quantile(builds, 0.5))
	b.set("graph.edges", float64(g.M()))
	return g, nil
}

// checkMIS verifies a result's MIS against the graph independently of
// the program's own verification. The "mis" planted fault flips one
// bit first.
func checkMIS(b *bench, g graph.Topology, mis []bool) error {
	if b.cfg.plant == "mis" && len(mis) > 0 {
		mis = slices.Clone(mis)
		mis[0] = !mis[0]
	}
	return graph.VerifyMISOf(g, mis)
}

type handResult struct {
	rounds int
	mis    []bool
	took   time.Duration
}

// handDriven makes the supervisor's calls for one run, each under a span.
func handDriven(b *bench, ls *loopStats, op int64, g *graph.Graph, seed uint64) (*handResult, error) {
	root := b.tr.begin(op, 0, "bench", "cold-start.run")
	res, err := handLoop(b, ls, op, root.id, g, seed)
	took := root.end()
	if err != nil {
		return nil, err
	}
	res.took = took
	return res, nil
}

func handLoop(b *bench, ls *loopStats, op, root int64, g *graph.Graph, seed uint64) (*handResult, error) {
	proto, err := core.ProtocolByName("alg1-known-delta")
	if err != nil {
		return nil, err
	}
	sp := b.tr.begin(op, root, "beep", "NewNetwork+ApplyInit")
	net, err := beep.NewNetwork(g, proto, seed, beep.WithEngine(beep.Sequential), ls.observer())
	if err == nil {
		err = core.ApplyInit(net, core.InitRandom)
	}
	ls.init = append(ls.init, sp.end().Seconds())
	if err != nil {
		return nil, err
	}
	defer net.Close()

	var probe core.State
	legal, err := ls.probe(b.tr, op, root, net, &probe)
	for !legal && err == nil && net.Round() < coldStartBudget {
		if err = ls.step(b.tr, op, root, net); err == nil {
			legal, err = ls.probe(b.tr, op, root, net, &probe)
		}
	}
	if err == nil && !legal {
		err = fmt.Errorf("no MIS within %d rounds", coldStartBudget)
	}
	if err != nil {
		return nil, err
	}
	sp = b.tr.begin(op, root, "core", "Snapshot+VerifyMIS")
	st, err := core.Snapshot(net)
	if err == nil {
		err = st.VerifyMIS()
	}
	ls.verify = append(ls.verify, ms(sp.end()))
	if err != nil {
		return nil, err
	}
	return &handResult{rounds: net.Round(), mis: st.MISMask()}, nil
}

// loopStats collects the beep and core layer samples of hand-driven
// supervised rounds.
type loopStats struct {
	init, verify         []float64
	stepUs, probeUs      []float64
	active, frontier     []float64
	elided, rounds       int
	stepBusy, probeBusy  time.Duration
	lastActive, lastWord int
}

func (ls *loopStats) observer() beep.Option {
	return beep.WithStatsObserver(func(round, active, frontierWords int) {
		ls.lastActive, ls.lastWord = active, frontierWords
	})
}

func (ls *loopStats) step(tr *tracer, op, parent int64, net *beep.Network) error {
	sp := tr.begin(op, parent, "beep", "Step")
	err := net.TryStep()
	d := sp.end()
	ls.stepUs = append(ls.stepUs, us(d))
	ls.stepBusy += d
	ls.rounds++
	ls.active = append(ls.active, float64(ls.lastActive))
	ls.frontier = append(ls.frontier, float64(ls.lastWord))
	if ls.lastActive == 0 {
		ls.elided++
	}
	return err
}

// probe is the supervisor's per-round legality check.
func (ls *loopStats) probe(tr *tracer, op, parent int64, net *beep.Network, st *core.State) (bool, error) {
	sp := tr.begin(op, parent, "core", "Refresh+Stabilized")
	err := st.Refresh(net)
	ok := err == nil && st.Stabilized()
	d := sp.end()
	ls.probeUs = append(ls.probeUs, us(d))
	ls.probeBusy += d
	return ok, err
}

func (ls *loopStats) report(b *bench, n int) {
	b.set("beep.init_s", quantile(ls.init, 0.5))
	b.set("beep.step_us_p50", quantile(ls.stepUs, 0.5))
	b.set("beep.step_us_p99", quantile(ls.stepUs, 0.99))
	b.set("beep.step_busy_s", ls.stepBusy.Seconds())
	b.set("beep.rounds", float64(ls.rounds))
	b.set("beep.active_frac_mean", mean(ls.active)/float64(n))
	b.set("beep.frontier_words_mean", mean(ls.frontier))
	b.set("beep.elided_rounds", float64(ls.elided))
	b.set("core.probe_us_p50", quantile(ls.probeUs, 0.5))
	b.set("core.probe_us_p99", quantile(ls.probeUs, 0.99))
	b.set("core.probe_busy_s", ls.probeBusy.Seconds())
	if busy := ls.stepBusy + ls.probeBusy; busy > 0 {
		b.set("core.probe_share", float64(ls.probeBusy)/float64(busy))
	}
	if len(ls.verify) > 0 {
		b.set("core.verify_ms", quantile(ls.verify, 0.5))
	}
}
