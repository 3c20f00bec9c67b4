package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/beep"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/famspec"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stab"
)

const (
	// checkpointEvery is beepd's default checkpoint cadence.
	checkpointEvery = 64
	// recoveryBudget bounds one recovery; a correct one needs ~35
	// rounds at n = 128².
	recoveryBudget = 100_000
)

// runSteadyRecover drives a long-running supervised network the way the
// supervisor does: Step, a checkpoint tick every checkpointEvery rounds
// into a base + delta chain, and a Refresh+Stabilized probe per round.
// Set-up builds the torus and stabilizes it.
// Once the network has been legal for holdRounds rounds, faultK random
// vertices are corrupted at the next round that just ticked, so every
// fault cycle holds the same number of ticks and a recovery (~35 of
// the 64 rounds to the next tick) holds none: otherwise about half of
// the recoveries would pay a tick's fsync, and their median would sit
// on the edge between the two modes. An op is one recovery, from fault
// injection until the probe says legal; a round is one steady (legal)
// supervised round; the round rate is taken per fault cycle, from one
// injection to the next. The run ends by loading the chain, restoring
// it into a fresh network and probing it: the resume must match the
// live network's state hash and MIS.
//
// The traced run records spans on every other fault cycle; the
// untraced cycles are the overhead baseline.
func runSteadyRecover(b *bench) error {
	// 128² vertices keep the steady round's working set within one
	// core's L2; at 512² the O(n) probe streams from the host's shared
	// L3 and the steady round spread by ~25% between runs.
	family, holdRounds, faultK := "torus:128:128", 128, 64
	if b.cfg.short {
		family, holdRounds, faultK = "torus:32:32", 32, 8
	}
	netSeed := derive(b.cfg.seed, "steady/net")
	chainPath := filepath.Join(b.cfg.workDir, "steady.ckpt")

	var g *graph.Graph
	var net *beep.Network
	ls := &loopStats{}
	var setups []float64
	for i := 0; i < 5; i++ {
		if net != nil {
			// Drop the previous copy before building the next, so set-up
			// never holds two networks.
			net.Close()
			g, net = nil, nil
		}
		sp := b.tr.begin(-1, 0, "bench", "setup")
		var err error
		g, net, err = stabilizedNetwork(b, ls, sp.id, family, netSeed)
		setups = append(setups, sp.end().Seconds())
		if err != nil {
			return err
		}
	}
	defer net.Close()
	// The chain's base is written by the first tick, as in a supervised
	// run.
	chain := &chainTicker{w: ckpt.NewWriter(chainPath), words: (net.N() + 63) / 64}
	defer chain.w.Close()
	b.set("setup_s", quantile(setups, 0.5))
	b.set("graph.edges", float64(g.M()))
	*ls = loopStats{} // set-up rounds are not steady rounds

	faults := rng.New(derive(b.cfg.seed, "steady/faults"))
	var probe core.State
	var steady, recoveries, tracedRec, untracedRec, recRounds, faultUs, cycleRates []float64
	legalFor, cycle := 0, int64(0)
	recovering, faultAt, faultRound := false, time.Time{}, 0
	rounds := 0
	deadline := b.startWindow()
	for recovering || time.Now().Before(deadline) || len(cycleRates) == 0 {
		inject := !recovering && legalFor >= holdRounds && net.Round()%checkpointEvery == 0
		if inject {
			cycle++
		}
		tr := b.alternate(cycle)
		if inject {
			now := time.Now()
			if cycle > 1 {
				cycleRates = append(cycleRates, float64(net.Round()-faultRound)/now.Sub(faultAt).Seconds())
			}
			faultAt, faultRound = now, net.Round()
			ft := tr.begin(cycle, 0, "bench", "fault")
			fs := tr.begin(cycle, ft.id, "stab", "RandomFault.Apply")
			err := stab.RandomFault{K: faultK}.Apply(net, faults)
			faultUs = append(faultUs, us(fs.end()))
			ft.end()
			if err != nil {
				return err
			}
			recovering, legalFor = true, 0
		}
		rt := tr.begin(cycle, 0, "bench", "round")
		err := ls.step(tr, cycle, rt.id, net)
		if err == nil && net.Round()%checkpointEvery == 0 {
			err = chain.tick(tr, cycle, rt.id, net)
		}
		var legal bool
		if err == nil {
			legal, err = ls.probe(tr, cycle, rt.id, net, &probe)
		}
		d := rt.end()
		rounds++
		if err != nil {
			return err
		}
		switch {
		case recovering && legal:
			rec := ms(time.Since(faultAt))
			recoveries = append(recoveries, rec)
			if tr != nil {
				tracedRec = append(tracedRec, rec)
			} else {
				untracedRec = append(untracedRec, rec)
			}
			recRounds = append(recRounds, float64(net.Round()-faultRound))
			b.check(fmt.Sprintf("recovery %d", cycle), nil)
			recovering = false
		case recovering && net.Round()-faultRound > recoveryBudget:
			b.check(fmt.Sprintf("recovery %d", cycle), fmt.Errorf("not legal %d rounds after the fault", recoveryBudget))
			recovering = false
		case !recovering:
			steady = append(steady, us(d))
			if !legal {
				// Closure: a legal configuration must stay legal.
				b.check(fmt.Sprintf("closure at round %d", net.Round()), fmt.Errorf("legal configuration became illegal without a fault"))
			}
		}
		if legal {
			legalFor++
		} else {
			legalFor = 0
		}
	}
	b.endWindow(rounds)

	b.set("op_ms_p50", quantile(recoveries, 0.5))
	b.set("rounds_per_s", quantile(cycleRates, 0.5))
	b.set("round_us_p50", quantile(steady, 0.5))

	if err := chain.tick(nil, 0, 0, net); err != nil {
		return err
	}
	b.check("resume", resume(b, g, net, &probe, chainPath, netSeed))

	if b.tr != nil {
		ls.report(b, g.N())
		chain.report(b)
		b.set("stab.fault_us_p50", quantile(faultUs, 0.5))
		b.set("stab.recovery_rounds_p50", quantile(recRounds, 0.5))
		b.set("stab.recovery_rounds_p90", quantile(recRounds, 0.9))
		b.set("stab.recover_ms_p90", quantile(recoveries, 0.9))
		b.set("stab.round_us_p99", quantile(steady, 0.99))
		b.setOverhead(tracedRec, untracedRec)
	}
	return nil
}

// stabilizedNetwork is one set-up: build the graph, initialize a random
// configuration and run supervised rounds until it is legal.
func stabilizedNetwork(b *bench, ls *loopStats, parent int64, family string, seed uint64) (*graph.Graph, *beep.Network, error) {
	gs := b.tr.begin(-1, parent, "graph", "famspec.Parse")
	g, err := famspec.Parse(family, rng.New(seed))
	b.set("graph.build_s", gs.end().Seconds())
	if err != nil {
		return nil, nil, err
	}
	proto, err := core.ProtocolByName("alg1-known-delta")
	if err != nil {
		return nil, nil, err
	}
	is := b.tr.begin(-1, parent, "beep", "NewNetwork+ApplyInit")
	net, err := beep.NewNetwork(g, proto, seed, beep.WithEngine(beep.Sequential), ls.observer())
	if err == nil {
		err = core.ApplyInit(net, core.InitRandom)
	}
	b.set("beep.init_s", is.end().Seconds())
	if err != nil {
		return nil, nil, err
	}
	var probe core.State
	legal, err := ls.probe(b.tr, -1, parent, net, &probe)
	for !legal && err == nil && net.Round() < recoveryBudget {
		if err = ls.step(b.tr, -1, parent, net); err == nil {
			legal, err = ls.probe(b.tr, -1, parent, net, &probe)
		}
	}
	if err == nil && !legal {
		err = fmt.Errorf("set-up did not stabilize within %d rounds", recoveryBudget)
	}
	if err != nil {
		net.Close()
		return nil, nil, err
	}
	return g, net, nil
}

// chainTicker is the supervisor's checkpoint tick: a base snapshot when
// the writer's compaction policy asks for one, otherwise a dirty-word
// delta appended to the chain and applied to the in-memory tip.
type chainTicker struct {
	w     *ckpt.Writer
	words int
	tip   *beep.Checkpoint

	capture, persist, deltaMs, deltaBytes, baseMs []float64
	baseBytes                                     int
}

func (c *chainTicker) tick(tr *tracer, op, parent int64, net *beep.Network) error {
	if c.w.NeedsBase(net.DirtyAll(), net.DirtyWords(), c.words) {
		sp := tr.begin(op, parent, "ckpt", "tick.base")
		cs := tr.begin(op, sp.id, "ckpt", "Network.Checkpoint")
		cp, err := net.Checkpoint()
		c.capture = append(c.capture, ms(cs.end()))
		if err != nil {
			sp.end()
			return err
		}
		ps := tr.begin(op, sp.id, "ckpt", "Writer.WriteBase")
		n, err := c.w.WriteBase(cp)
		c.persist = append(c.persist, ms(ps.end()))
		c.baseMs = append(c.baseMs, ms(sp.end()))
		c.tip, c.baseBytes = cp, n
		return err
	}
	sp := tr.begin(op, parent, "ckpt", "tick.delta")
	cs := tr.begin(op, sp.id, "ckpt", "Network.CheckpointDelta")
	d, err := net.CheckpointDelta(c.w.ParentHash())
	c.capture = append(c.capture, ms(cs.end()))
	if err != nil {
		sp.end()
		return err
	}
	ps := tr.begin(op, sp.id, "ckpt", "Writer.AppendDelta")
	n, err := c.w.AppendDelta(d)
	c.persist = append(c.persist, ms(ps.end()))
	if err == nil {
		err = beep.ApplyDelta(c.tip, d)
	}
	c.deltaMs = append(c.deltaMs, ms(sp.end()))
	c.deltaBytes = append(c.deltaBytes, float64(n))
	return err
}

func (c *chainTicker) report(b *bench) {
	b.set("ckpt.capture_ms_p50", quantile(c.capture, 0.5))
	b.set("ckpt.persist_ms_p50", quantile(c.persist, 0.5))
	b.set("ckpt.delta_ms_p50", quantile(c.deltaMs, 0.5))
	b.set("ckpt.delta_ms_p99", quantile(c.deltaMs, 0.99))
	b.set("ckpt.delta_bytes_p50", quantile(c.deltaBytes, 0.5))
	b.set("ckpt.base_ms", quantile(c.baseMs, 0.5))
	b.set("ckpt.base_bytes", float64(c.baseBytes))
	b.set("ckpt.bases", float64(len(c.baseMs)))
	b.set("ckpt.deltas", float64(len(c.deltaMs)))
}

// resume loads the chain, restores it into a fresh network and probes
// it. The resumed network must be legal, with the live network's MIS
// and state hash. The "chain" planted fault flips one byte of the last
// delta link before the load.
func resume(b *bench, g *graph.Graph, live *beep.Network, liveProbe *core.State, chainPath string, seed uint64) error {
	if b.cfg.plant == "chain" {
		if err := flipByte(chainPath + ckpt.DeltaSuffix); err != nil {
			return err
		}
	}
	root := b.tr.begin(-2, 0, "bench", "resume")
	defer root.end()
	ls := b.tr.begin(-2, root.id, "ckpt", "ckpt.Load")
	cp, _, err := ckpt.Load(chainPath)
	b.set("ckpt.load_ms", ms(ls.end()))
	if err != nil {
		return err
	}
	rs := b.tr.begin(-2, root.id, "ckpt", "NewNetwork+Restore")
	proto, err := core.ProtocolByName("alg1-known-delta")
	if err != nil {
		return err
	}
	net, err := beep.NewNetwork(g, proto, seed, beep.WithEngine(beep.Sequential))
	if err == nil {
		defer net.Close()
		err = net.Restore(cp)
	}
	b.set("ckpt.restore_ms", ms(rs.end()))
	if err != nil {
		return err
	}
	ps := b.tr.begin(-2, root.id, "core", "Refresh+Stabilized")
	var st core.State
	err = st.Refresh(net)
	legal := err == nil && st.Stabilized()
	ps.end()
	b.set("ckpt.resume_ms", ms(time.Since(root.start)))
	if err != nil {
		return err
	}
	if !legal {
		return fmt.Errorf("resumed network at round %d is not legal", net.Round())
	}
	a, err := live.Checkpoint()
	if err != nil {
		return err
	}
	r, err := net.Checkpoint()
	if err != nil {
		return err
	}
	if a.Hash != r.Hash || a.Round != r.Round {
		return fmt.Errorf("resumed state (round %d, hash %#x) differs from the live one (round %d, hash %#x)",
			r.Round, r.Hash, a.Round, a.Hash)
	}
	if !slices.Equal(st.MISMask(), liveProbe.MISMask()) {
		return fmt.Errorf("resumed MIS differs from the live one")
	}
	return nil
}

// flipByte corrupts the middle byte of a file in place.
func flipByte(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("%s is empty", path)
	}
	data[len(data)/2] ^= 0xff
	return os.WriteFile(path, data, 0o644)
}
