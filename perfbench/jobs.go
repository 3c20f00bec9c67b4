package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/famspec"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/stab"
)

const (
	jobClients = 2
	// famSeedSalt is the service's graph-seed derivation
	// (internal/service/spec.go): a job's graph is
	// famspec.Parse(Family, rng.New(Seed^famSeedSalt)).
	famSeedSalt = 0x9e37
	// pollEvery paces the client's GET /v1/jobs/{id} polling.
	pollEvery = 500 * time.Microsecond
)

// runBeepdJobs runs an in-process beepd daemon on loopback HTTP with
// two workers and two closed-loop clients. Each client submits a
// fixed-round job, waits for it to run, follows its NDJSON event stream
// to done, and only then submits the next. Set-up is daemon start plus
// one warm-up job to done: the start alone is about a millisecond of
// fsyncs whose spread between processes no median of starts removes. An
// op is one job from submit to done; a job's round time is its run, from
// the client seeing it running to seeing it done, over its rounds (the
// stream delivers events in bursts, so their gaps are not rounds). Every job's last
// round hash must equal an in-process fixed-round stab.Supervisor run
// of the same spec.
//
// A stream that closes without a done event (a subscriber that arrived
// before the job's topic was open) counts in service.stream_miss; the
// client then polls the job to its terminal state, so its latency stays
// defined, and replays the durable log for the output check.
func runBeepdJobs(b *bench) error {
	family, rounds := "gnpavg:16384:8", 200
	if b.cfg.short {
		family, rounds = "gnpavg:512:8", 40
	}
	spec := service.JobSpec{Family: family, Rounds: rounds}
	var d *service.Daemon
	var jc *jobClient
	var setups []float64
	var warm []*jobRecord
	for i := 0; i < 5; i++ {
		if d != nil {
			jc.http.CloseIdleConnections()
			if err := d.Shutdown(context.Background()); err != nil {
				return err
			}
		}
		dir := filepath.Join(b.cfg.workDir, fmt.Sprintf("beepd-%d", i))
		sp := b.tr.begin(-1, 0, "bench", "setup")
		ss := b.tr.begin(-1, sp.id, "service", "New+Start")
		var err error
		d, err = service.New(service.Config{DataDir: dir, Addr: "127.0.0.1:0", Workers: jobClients,
			Logf: func(string, ...any) {}})
		if err == nil {
			err = d.Start()
		}
		ss.end()
		if err != nil {
			return err
		}
		jc = newJobClient(b, d.Addr())
		s := spec
		s.Seed = derive(b.cfg.seed, "beepd/warm-up", uint64(i))
		warm = append(warm, jc.run(-1, s))
		setups = append(setups, sp.end().Seconds())
	}
	b.set("setup_s", quantile(setups, 0.5))

	perClient := make([][]*jobRecord, jobClients)
	deadline := b.startWindow()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < jobClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k == 0 || time.Now().Before(deadline); k++ {
				s := spec
				s.Seed = derive(b.cfg.seed, "beepd/job", uint64(c), uint64(k))
				perClient[c] = append(perClient[c], jc.run(int64(c)*1_000_000+int64(k), s))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var jobs []*jobRecord
	totalRounds := 0
	for _, recs := range perClient {
		jobs = append(jobs, recs...)
		for _, j := range recs {
			totalRounds += j.lastRound
		}
	}
	b.endWindow(totalRounds)
	jc.http.CloseIdleConnections()
	if err := d.Shutdown(context.Background()); err != nil {
		return err
	}
	builds, edges := verifyJobs(b, append(warm, jobs...), family, rounds)

	var lat, traced, untraced, perRound, submit, wait, runMs, first, events, ckptMs, ckptBytes []float64
	misses := 0
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		l := ms(j.done.Sub(j.submit))
		lat = append(lat, l)
		if j.traced {
			traced = append(traced, l)
		} else {
			untraced = append(untraced, l)
		}
		perRound = append(perRound, us(j.done.Sub(j.running))/float64(j.lastRound))
		submit = append(submit, ms(j.accepted.Sub(j.submit)))
		wait = append(wait, ms(j.running.Sub(j.accepted)))
		runMs = append(runMs, ms(j.done.Sub(j.running)))
		if !j.firstEvent.IsZero() {
			first = append(first, ms(j.firstEvent.Sub(j.running)))
		}
		events = append(events, float64(j.events))
		ckptMs = append(ckptMs, j.ckptMs...)
		ckptBytes = append(ckptBytes, float64(j.ckptBytes))
		if j.miss {
			misses++
		}
	}
	b.set("op_ms_p50", quantile(lat, 0.5))
	b.set("rounds_per_s", float64(totalRounds)/elapsed.Seconds())
	b.set("round_us_p50", quantile(perRound, 0.5))
	b.note(fmt.Sprintf("%d jobs, %d stream misses", len(jobs), misses))
	if b.tr != nil {
		b.set("graph.build_s", quantile(builds, 0.5))
		b.set("graph.edges", quantile(edges, 0.5))
		b.set("service.job_ms_p90", quantile(lat, 0.9))
		b.set("service.submit_ms_p50", quantile(submit, 0.5))
		b.set("service.queue_wait_ms_p50", quantile(wait, 0.5))
		b.set("service.queue_wait_ms_p90", quantile(wait, 0.9))
		b.set("service.run_ms_p50", quantile(runMs, 0.5))
		b.set("service.first_event_ms_p50", quantile(first, 0.5))
		b.set("service.events_per_job", mean(events))
		b.set("service.ckpt_ms_p50", quantile(ckptMs, 0.5))
		b.set("service.ckpt_bytes_per_job", mean(ckptBytes))
		b.set("service.rejected", float64(jc.rejected.Load()))
		b.set("service.stream_miss", float64(misses))
		b.setOverhead(traced, untraced)
	}
	return nil
}

// jobRecord is one job as its client saw it.
type jobRecord struct {
	spec   service.JobSpec
	id     string
	traced bool
	err    error

	submit, accepted, running, firstEvent, done time.Time

	state     service.JobState
	events    int
	lastRound int
	lastHash  string
	ckptMs    []float64
	ckptBytes int
	miss      bool
}

func newJobClient(b *bench, addr string) *jobClient {
	return &jobClient{b: b, base: "http://" + addr,
		http: &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 2 * jobClients}}}
}

type jobClient struct {
	b        *bench
	base     string
	http     *http.Client
	rejected atomic.Int64
}

// run submits one job and follows it to its terminal state.
func (jc *jobClient) run(op int64, spec service.JobSpec) *jobRecord {
	tr := jc.b.alternate(op)
	j := &jobRecord{spec: spec, traced: tr != nil}
	root := tr.begin(op, 0, "bench", "job")
	j.err = jc.follow(tr, op, root.id, j)
	root.end()
	if j.err == nil && j.miss {
		// The output check needs every round event: replay what the
		// live streams did not deliver from the durable log.
		j.err = jc.stream(j, j.lastRound, func(service.Event) {})
	}
	return j
}

func (jc *jobClient) follow(tr *tracer, op, parent int64, j *jobRecord) error {
	j.submit = time.Now()
	sp := tr.begin(op, parent, "service", "POST /v1/jobs")
	err := jc.submit(j)
	sp.end()
	if err != nil {
		return err
	}
	j.accepted = time.Now()

	sp = tr.begin(op, parent, "service", "GET /v1/jobs/{id} until running")
	for err == nil {
		var state service.JobState
		if state, err = jc.get(j.id); err == nil && state != service.JobPending {
			break
		}
		time.Sleep(pollEvery)
	}
	sp.end()
	if err != nil {
		return err
	}
	j.running = time.Now()

	onEvent := func(ev service.Event) {
		now := time.Now()
		switch {
		case ev.Type == "done":
			j.done = now
		case j.firstEvent.IsZero():
			j.firstEvent = now
		}
		if ev.CkptNS > 0 {
			j.ckptMs = append(j.ckptMs, float64(ev.CkptNS)/1e6)
		}
		j.ckptBytes += ev.CkptBytes
	}
	sp = tr.begin(op, parent, "service", "GET /v1/jobs/{id}/events")
	err = jc.stream(j, 0, onEvent)
	sp.end()
	if err != nil || !j.done.IsZero() {
		return err
	}
	// The stream closed without done: poll the job to its terminal
	// state, following the stream again (after the events already
	// seen) while it runs.
	j.miss = true
	sp = tr.begin(op, parent, "service", "GET /v1/jobs/{id} until terminal")
	defer sp.end()
	for j.done.IsZero() {
		state, err := jc.get(j.id)
		if err != nil {
			return err
		}
		if state.Terminal() {
			j.done, j.state = time.Now(), state
			return nil
		}
		time.Sleep(pollEvery)
		if err := jc.stream(j, j.lastRound, onEvent); err != nil {
			return err
		}
	}
	return nil
}

// submit posts the job, retrying after a 429 rejection.
func (jc *jobClient) submit(j *jobRecord) error {
	body, err := json.Marshal(j.spec)
	if err != nil {
		return err
	}
	for {
		resp, err := jc.http.Post(jc.base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		var job service.Job
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			jc.rejected.Add(1)
			time.Sleep(10 * time.Millisecond)
			continue
		case resp.StatusCode != http.StatusAccepted:
			return fmt.Errorf("submit: HTTP %d", resp.StatusCode)
		case err != nil:
			return fmt.Errorf("submit: %w", err)
		}
		j.id = job.ID
		return nil
	}
}

// get returns the job's state.
func (jc *jobClient) get(id string) (service.JobState, error) {
	resp, err := jc.http.Get(jc.base + "/v1/jobs/" + id)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var job service.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil || resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("get job %s: HTTP %d: %v", id, resp.StatusCode, err)
	}
	return job.State, nil
}

// stream reads the job's NDJSON event stream after event id after to
// its end, recording the round events and the done event, and calling
// on for each.
func (jc *jobClient) stream(j *jobRecord, after int, on func(service.Event)) error {
	resp, err := jc.http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?after=%d", jc.base, j.id, after))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events %s: HTTP %d", j.id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("events %s: %w", j.id, err)
		}
		switch ev.Type {
		case "round":
			j.events++
			j.lastRound, j.lastHash = ev.Round, ev.Hash
		case "done":
			j.state = ev.State
		}
		on(ev)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events %s: %w", j.id, err)
	}
	return nil
}

// verifyJobs checks every job against an in-process supervisor run of
// its spec, on two goroutines, and returns the graph build times and
// edge counts of those runs.
func verifyJobs(b *bench, jobs []*jobRecord, family string, rounds int) (builds, edges []float64) {
	builds = make([]float64, len(jobs))
	edges = make([]float64, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				builds[i], edges[i], errs[i] = verifyJob(jobs[i], family, rounds)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, j := range jobs {
		b.check(fmt.Sprintf("job %s seed=%#x", j.id, j.spec.Seed), errs[i])
	}
	return builds, edges
}

func verifyJob(j *jobRecord, family string, rounds int) (build, edges float64, err error) {
	if j.err != nil {
		return 0, 0, j.err
	}
	if j.state != service.JobDone || j.lastRound != rounds {
		return 0, 0, fmt.Errorf("job ended %s at round %d, want done at %d", j.state, j.lastRound, rounds)
	}
	start := time.Now()
	g, err := famspec.Parse(family, rng.New(j.spec.Seed^famSeedSalt))
	build = time.Since(start).Seconds()
	if err != nil {
		return build, 0, err
	}
	edges = float64(g.M())
	proto, err := core.ProtocolByName("alg1-known-delta")
	if err != nil {
		return build, edges, err
	}
	var last uint64
	obs := beep.WithObserver(func(round int, sent, heard []beep.Signal) {
		if round == rounds {
			last = stab.TraceHash(round, sent, heard)
		}
	})
	sup, err := stab.NewSupervisor(stab.SupervisorConfig{Graph: g, Protocol: proto, Seed: j.spec.Seed,
		Init: core.InitRandom, FixedRounds: rounds, Options: []beep.Option{obs}})
	if err == nil {
		_, err = sup.Run()
	}
	if err != nil {
		return build, edges, err
	}
	if want := fmt.Sprintf("%016x", last); j.lastHash != want {
		return build, edges, fmt.Errorf("last round hash %s, in-process run %s", j.lastHash, want)
	}
	return build, edges, nil
}
