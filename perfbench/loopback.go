package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"fifl"
	"fifl/internal/metrics"
)

// Loopback federation shape: two HTTP workers (at most nproc connections
// on the smallest machine the benchmark targets) doing real local SGD on
// SynthDigits.
const (
	loopWorkers = 2
	loopSamples = 256
	loopLocalK  = 8
	loopTestSet = 500
	// loopReplicas is the replica count of an end-to-end run (see
	// replicas). Without a twin federation, round_growth compares two
	// moments of one run, so it takes five replicas of 60 rounds per
	// second, not three of 100, for its median to outvote two slow spells.
	loopReplicas = 5
)

// trainTimer wraps a worker's LocalTrain. The two workers share this
// machine, and each one's training already spreads its matrix products over
// every core, so they take turns: left to the scheduler, the two trainings
// sometimes overlap and sometimes run back to back, which splits round
// latency into two modes. On a traced pass it records nn.LocalTrain spans
// and the total time spent training, excluding the wait for the turn.
type trainTimer struct {
	fifl.Worker
	tr    *tracer
	turn  *sync.Mutex
	mu    *sync.Mutex
	total *float64
}

func (w trainTimer) LocalTrain(round int, global []float64) fifl.Gradient {
	w.turn.Lock()
	defer w.turn.Unlock()
	t0 := time.Now()
	g := w.Worker.LocalTrain(round, global)
	t1 := time.Now()
	if round >= 1 && !w.tr.isStopped() {
		w.tr.add(round, "nn.LocalTrain", t0, t1)
		w.mu.Lock()
		*w.total += float64(t1.Sub(t0)) / float64(time.Millisecond)
		w.mu.Unlock()
	}
	return g
}

// wireTimer times every worker request by endpoint on a traced pass.
type wireTimer struct {
	next http.RoundTripper
	tr   *tracer
	mu   sync.Mutex
	ms   map[string][]float64
}

func (w *wireTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := w.next.RoundTrip(req)
	if w.tr.isStopped() {
		return resp, err
	}
	ms := since(t0)
	w.mu.Lock()
	w.ms[req.URL.Path] = append(w.ms[req.URL.Path], ms)
	w.mu.Unlock()
	return resp, err
}

// loopFederation is one running loopback federation.
type loopFederation struct {
	recipe fifl.FederationRecipe
	coord  *fifl.Coordinator
	srv    *fifl.CoordinatorServer
	ts     *httptest.Server
	cancel context.CancelFunc
	idle   func() // closes the clients' idle connections
	wg     sync.WaitGroup
	errs   []error
	mu     sync.Mutex
}

func loopRecipe(seed uint64) fifl.FederationRecipe {
	return fifl.FederationRecipe{Seed: seed, Workers: loopWorkers, SamplesPerWorker: loopSamples,
		Local: fifl.LocalConfig{K: loopLocalK, BatchSize: 32, LR: 0.05}}
}

// startLoopback serves a coordinator over loopback HTTP and dials its
// workers; stop ends them.
func startLoopback(ctx context.Context, seed uint64, tr *tracer, clientReg *fifl.MetricsRegistry,
	wire *wireTimer, train *float64, trainMu *sync.Mutex) (*loopFederation, error) {
	recipe := loopRecipe(seed)
	build, err := recipe.Builder()
	if err != nil {
		return nil, err
	}
	hub, err := fifl.NewTransportHub(loopWorkers)
	if err != nil {
		return nil, err
	}
	engine, err := fifl.NewEngine(fifl.EngineConfig{Servers: 2, GlobalLR: 0.05}, build, hub.Workers(),
		fifl.NewRNG(seed), fifl.WithWorkerTimeout(30*time.Second), fifl.WithMetrics(fifl.NewMetricsRegistry()))
	if err != nil {
		return nil, err
	}
	coord, err := fifl.NewCoordinator(coordConfig(true), engine, []int{0, 1}, tr.stageHook()...)
	if err != nil {
		return nil, err
	}
	srv, err := fifl.ServeCoordinator(coord, hub)
	if err != nil {
		return nil, err
	}
	f := &loopFederation{recipe: recipe, coord: coord, srv: srv, ts: httptest.NewServer(srv.Handler()),
		idle: wire.next.(*http.Transport).CloseIdleConnections}
	ctx, f.cancel = context.WithCancel(ctx)
	httpClient := &http.Client{Transport: wire, Timeout: time.Minute}
	var turn sync.Mutex
	for i := 0; i < loopWorkers; i++ {
		w, err := recipe.Worker(i)
		if err != nil {
			return nil, errors.Join(err, f.stop())
		}
		c, err := fifl.DialWorker(ctx, fifl.WorkerClientConfig{BaseURL: f.ts.URL, HTTPClient: httpClient,
			Worker: trainTimer{Worker: w, tr: tr, turn: &turn, mu: trainMu, total: train}, PollWait: 5 * time.Second, Metrics: clientReg})
		if err != nil {
			return nil, errors.Join(err, f.stop())
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			if _, err := c.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				f.mu.Lock()
				f.errs = append(f.errs, err)
				f.mu.Unlock()
			}
		}()
	}
	if err := srv.WaitReady(ctx); err != nil {
		return nil, errors.Join(err, f.stop())
	}
	return f, nil
}

// stop tells the workers the federation is done, waits for them and shuts
// the server down.
func (f *loopFederation) stop() error {
	f.srv.MarkDone()
	done := make(chan struct{})
	go func() { f.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		f.cancel()
		<-done
	}
	f.cancel()
	f.srv.Close()
	f.ts.Close()
	f.idle()
	f.mu.Lock()
	defer f.mu.Unlock()
	return errors.Join(f.errs...)
}

// runLoopbackTrain is the wire workload: ServeCoordinator plus two
// DialWorker clients over real loopback HTTP, each doing K local SGD steps
// per round on its SynthDigits shard, ledger on.
func runLoopbackTrain(ctx context.Context, p params, tr *tracer, full bool) (*result, error) {
	r := newResult()
	clientReg := fifl.NewMetricsRegistry()
	wire := &wireTimer{next: http.DefaultTransport.(*http.Transport).Clone(), tr: tr, ms: map[string][]float64{}}
	lc := &loopCounters{clientReg: clientReg, wire: wire}
	test, err := loopRecipe(p.seed).TestSet(loopTestSet)
	if err != nil {
		return nil, err
	}
	var f *loopFederation
	var a *assessment
	var fp string
	err = replicate(r, replicas(tr, full, loopReplicas), func(rr *result) error {
		if f != nil {
			if err := f.stop(); err != nil {
				return err
			}
			f = nil
		}
		a = newAssessment(make([]bool, loopWorkers))
		_, err := setup(rr, a, setupReps, func() (*fifl.Coordinator, error) {
			var err error
			if f, err = startLoopback(ctx, p.seed, tr, clientReg, wire, &lc.trainMs, &lc.trainMu); err != nil {
				return nil, err
			}
			return f.coord, nil
		}, func() error {
			err := f.stop()
			f = nil
			return err
		})
		if err != nil {
			return err
		}
		lc.start(f)
		rounds := roundsFor(p, 60)
		fp, err = runRounds(ctx, rr, tr, &fedRun{round: f.srv.RunRound, fingerprint: func() string {
			acc, _ := f.coord.Engine.Evaluate(test, 100)
			return fmt.Sprintf("%s/acc=%.6f", digest(f.coord), acc)
		}, regs: []*fifl.MetricsRegistry{f.coord.Metrics(), clientReg}}, a, rounds, nil)
		if err != nil {
			return err
		}
		acc, _ := f.coord.Engine.Evaluate(test, 100)
		rr.add("test_acc", acc, "share", test.Len())
		lc.report(rr, f, tr != nil, rounds)
		return nil
	})
	if err == nil && full {
		err = loopTail(ctx, p, tr, r, f, a, fp, test)
	}
	if f != nil {
		err = errors.Join(err, f.stop())
	}
	return r, err
}

// loopCounters reads the wire and training instruments over one measured
// loop: totals taken at its start, and the sources read at its end.
type loopCounters struct {
	upAt, downAt       []int64
	serverAt, clientAt metrics.Snapshot
	clientReg          *fifl.MetricsRegistry
	wire               *wireTimer
	trainMu            sync.Mutex
	trainMs            float64
}

// start records the instrument totals before the measured loop.
func (lc *loopCounters) start(f *loopFederation) {
	lc.upAt, lc.downAt = f.srv.WorkerTraffic()
	lc.serverAt, lc.clientAt = f.coord.Metrics().Snapshot(), lc.clientReg.Snapshot()
	lc.wire.mu.Lock()
	clear(lc.wire.ms)
	lc.wire.mu.Unlock()
	lc.trainMu.Lock()
	lc.trainMs = 0
	lc.trainMu.Unlock()
}

// report adds the wire traffic of the measured loop and, on a traced pass,
// the transport, codec, runtime-retry and training metrics.
func (lc *loopCounters) report(r *result, f *loopFederation, traced bool, rounds int) {
	nr := float64(rounds)
	up, down := f.srv.WorkerTraffic()
	var upB, downB int64
	for i := range up {
		upB += up[i] - lc.upAt[i]
		downB += down[i] - lc.downAt[i]
	}
	r.add("transport.up_kb_per_round", float64(upB)/1024/nr, "KB", rounds)
	r.add("transport.down_kb_per_round", float64(downB)/1024/nr, "KB", rounds)
	r.add("wire_kb_per_round", float64(upB+downB)/1024/nr, "KB", rounds)
	if !traced {
		return
	}
	srvNow, cliNow := f.coord.Metrics().Snapshot(), lc.clientReg.Snapshot()
	delta := func(name string) float64 {
		return float64(sumCounters(srvNow, name) + sumCounters(cliNow, name) -
			sumCounters(lc.serverAt, name) - sumCounters(lc.clientAt, name))
	}
	histSum := func(name string) float64 {
		return histSeconds(srvNow, name) + histSeconds(cliNow, name) -
			histSeconds(lc.serverAt, name) - histSeconds(lc.clientAt, name)
	}
	lc.wire.mu.Lock()
	submit, model := lc.wire.ms["/v1/round/submit"], lc.wire.ms["/v1/model"]
	lc.wire.mu.Unlock()
	r.add("transport.submit_ms_p50", median(submit), "ms", len(submit))
	r.add("transport.model_wait_ms", sum(model)/nr/loopWorkers, "ms", len(model))
	r.add("transport.replays", delta("fifl_transport_submit_replays_total"), "count", rounds)
	r.add("transport.request_errors", delta("fifl_http_request_errors_total")+delta("fifl_client_request_errors_total"), "count", rounds)
	r.add("codec.encode_ms_per_round", histSum("fifl_codec_encode_seconds")*1e3/nr, "ms", rounds)
	r.add("codec.decode_ms_per_round", histSum("fifl_codec_decode_seconds")*1e3/nr, "ms", rounds)
	lc.trainMu.Lock()
	r.add("nn.train_ms_per_round", lc.trainMs/nr, "ms", rounds*loopWorkers)
	lc.trainMu.Unlock()
}

// loopTail audits the ledger, checkpoints and resumes the coordinator, and
// replays the recipe in process to check determinism.
func loopTail(ctx context.Context, p params, tr *tracer, r *result, f *loopFederation, a *assessment,
	fp string, test *fifl.Dataset) error {
	if err := auditFairness(tr, r, f.coord, a, loopWorkers); err != nil {
		return err
	}
	if _, err := checkpointResume(p, "loopback-train", tr, r, f.coord, coordConfig(true), tailReps, 5, func() (*fifl.Engine, []fifl.CoordinatorOption, error) {
		hub, err := fifl.NewTransportHub(loopWorkers)
		if err != nil {
			return nil, nil, err
		}
		build, err := f.recipe.Builder()
		if err != nil {
			return nil, nil, err
		}
		e, err := fifl.NewEngine(fifl.EngineConfig{Servers: 2, GlobalLR: 0.05}, build, hub.Workers(),
			fifl.NewRNG(p.seed), fifl.WithWorkerTimeout(30*time.Second), fifl.WithMetrics(fifl.NewMetricsRegistry()))
		return e, nil, err
	}); err != nil {
		return err
	}
	return loopReplay(ctx, p, r, f.recipe, test, fp)
}

// loopReplay runs the same recipe in process — the transport is
// bit-identical to it — to checkRound and compares the fingerprint and
// test accuracy with the loopback run's.
func loopReplay(ctx context.Context, p params, r *result, recipe fifl.FederationRecipe, test *fifl.Dataset, want string) error {
	build, err := recipe.Builder()
	if err != nil {
		return err
	}
	workers, err := recipe.AllWorkers()
	if err != nil {
		return err
	}
	engine, err := fifl.NewEngine(fifl.EngineConfig{Servers: 2, GlobalLR: 0.05}, build, workers, fifl.NewRNG(p.seed))
	if err != nil {
		return err
	}
	c, err := fifl.NewCoordinator(coordConfig(true), engine, []int{0, 1})
	for t := 0; t <= checkRound && err == nil; t++ {
		_, err = c.RunRoundContext(ctx, t)
	}
	got := "error"
	if err == nil {
		acc, _ := engine.Evaluate(test, 100)
		got = fmt.Sprintf("%s/acc=%.6f", digest(c), acc)
	}
	r.expect("seed_determinism", err == nil && got == want, "round-%d digest and test accuracy %s, in-process replay %s (%v)",
		checkRound, want, got, err)
	return nil
}

// sumCounters adds every series of a counter family.
func sumCounters(s metrics.Snapshot, family string) int64 {
	var total int64
	for k, v := range s.Counters {
		if k == family || strings.HasPrefix(k, family+"{") {
			total += v
		}
	}
	return total
}

// histSeconds adds the observed seconds of every series of a histogram
// family.
func histSeconds(s metrics.Snapshot, family string) float64 {
	total := 0.0
	for k, h := range s.Histograms {
		if k == family || strings.HasPrefix(k, family+"{") {
			total += h.Sum
		}
	}
	return total
}
