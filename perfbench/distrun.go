package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/stab"
)

const distPartitions = 2

// runDistRun runs dist.Run with in-process workers over two partitions
// to stabilization, once per seed derived from the workload seed. The
// graph is built in set-up. An op is one dist.Run call, worker spawn
// included; a round is the gap between two of the coordinator's
// per-round Observer callbacks. Every run's MIS must equal the
// single-process Flat run of the same seed.
//
// The traced run records the call and each round as spans on every
// other run; the untraced runs are the overhead baseline.
func runDistRun(b *bench) error {
	family := "gnpavg:65536:8"
	if b.cfg.short {
		family = "gnpavg:1024:8"
	}
	g, err := buildGraph(b, family, derive(b.cfg.seed, "dist/graph"), 5)
	if err != nil {
		return err
	}

	type distRun struct {
		seed uint64
		res  *dist.Result
		err  error
	}
	var runs []distRun
	var ops, traced, untraced, gaps, firstRound, wire, respawns []float64
	totalRounds := 0
	deadline := b.startWindow()
	for i := int64(0); i == 0 || time.Now().Before(deadline); i++ {
		seed := derive(b.cfg.seed, "dist/run", uint64(i))
		tr := b.alternate(i)
		root := tr.begin(i, 0, "bench", "dist-run.run")
		call := tr.begin(i, root.id, "dist", "dist.Run")
		var mu sync.Mutex
		var marks []time.Time
		res, err := dist.Run(context.Background(), dist.Config{
			Graph: g, Protocol: "alg1-known-delta", Seed: seed, Init: core.InitRandom,
			Partitions: distPartitions, Spawner: dist.InProcessSpawner(nil),
			Observer: func(round int, hash uint64) {
				mu.Lock()
				marks = append(marks, time.Now())
				mu.Unlock()
			},
		})
		took := call.end()
		root.end()
		mu.Lock()
		if tr != nil {
			prev := call.start
			for _, m := range marks {
				tr.record(i, call.id, "dist", "round", prev, m)
				prev = m
			}
		}
		if len(marks) > 0 {
			firstRound = append(firstRound, ms(marks[0].Sub(call.start)))
		}
		for k := 1; k < len(marks); k++ {
			gaps = append(gaps, us(marks[k].Sub(marks[k-1])))
		}
		mu.Unlock()
		ops = append(ops, ms(took))
		if tr != nil {
			traced = append(traced, ms(took))
		} else {
			untraced = append(untraced, ms(took))
		}
		if err == nil {
			totalRounds += res.Rounds
			wire = append(wire, float64(res.WireBytes))
			respawns = append(respawns, float64(res.Respawns))
		}
		runs = append(runs, distRun{seed, res, err})
	}
	b.endWindow(totalRounds)
	b.set("op_ms_p50", quantile(ops, 0.5))
	b.set("rounds_per_s", float64(totalRounds)/(sum(ops)/1e3))
	b.set("round_us_p50", quantile(gaps, 0.5))

	for _, r := range runs {
		b.check(fmt.Sprintf("dist run seed=%#x", r.seed), checkDist(b, g, r.seed, r.res, r.err))
	}
	if b.tr != nil {
		b.set("dist.first_round_ms", quantile(firstRound, 0.5))
		b.set("dist.round_ms_p50", quantile(gaps, 0.5)/1e3)
		b.set("dist.round_ms_p99", quantile(gaps, 0.99)/1e3)
		b.set("dist.rounds", float64(totalRounds))
		b.set("dist.wire_bytes", mean(wire))
		if totalRounds > 0 {
			b.set("dist.wire_bytes_per_round", sum(wire)/float64(totalRounds))
		}
		b.set("dist.respawns", sum(respawns))
		b.setOverhead(traced, untraced)
	}
	return nil
}

// checkDist compares a distributed run with the single-process Flat
// run of the same seed: same stabilization round, same MIS.
func checkDist(b *bench, g *graph.Graph, seed uint64, res *dist.Result, err error) error {
	if err != nil {
		return err
	}
	if !res.Stabilized {
		return fmt.Errorf("did not stabilize in %d rounds", res.Rounds)
	}
	if err := checkMIS(b, g, res.MIS); err != nil {
		return err
	}
	proto, err := core.ProtocolByName("alg1-known-delta")
	if err != nil {
		return err
	}
	sup, err := stab.NewSupervisor(stab.SupervisorConfig{Graph: g, Protocol: proto, Seed: seed,
		Init: core.InitRandom, Engine: beep.Flat})
	if err != nil {
		return err
	}
	ref, err := sup.Run()
	if err != nil {
		return fmt.Errorf("flat reference: %w", err)
	}
	if ref.Rounds != res.StabilizedRound || !slices.Equal(ref.MIS, res.MIS) {
		return fmt.Errorf("stabilized at round %d with |MIS|=%d, flat reference at %d with |MIS|=%d",
			res.StabilizedRound, res.MISSize, ref.Rounds, ref.MISSize)
	}
	return nil
}
