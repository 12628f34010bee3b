package main

import (
	"context"
	"math/rand/v2"

	"fifl"
)

// asyncConfig is async-wide's collector setup: windows of n/2 submissions,
// staleness bound 2, and a seeded static lag per worker — mostly fresh,
// some stale within the bound, some over it (rejected as stale).
func asyncConfig(seed uint64, n int) fifl.AsyncConfig {
	r := rand.New(rand.NewPCG(seed, 0x6c6167))
	lags := make([]int, n)
	for i := range lags {
		switch u := r.Float64(); {
		case i < 2 || u < 0.6:
			lags[i] = 0 // the initial servers stay fresh
		case u < 0.75:
			lags[i] = 1
		case u < 0.9:
			lags[i] = 2
		default:
			lags[i] = 3
		}
	}
	return fifl.AsyncConfig{MaxStaleness: 2, AdvanceEvery: n / 2, Lag: fifl.StaticLag(lags)}
}

// asyncFederation builds the in-process async federation: an engine over
// the wide inputs with the bounded-staleness collector as Collect stage.
func (f *wideFederation) asyncEngine(seed uint64) (*fifl.Engine, *fifl.AsyncCollector, error) {
	engine, err := fifl.NewEngine(fifl.EngineConfig{Servers: 2, GlobalLR: 0.05}, f.build,
		f.in.workers(0, ledgerWorkers), fifl.NewRNG(seed), fifl.WithMetrics(fifl.NewMetricsRegistry()))
	if err != nil {
		return nil, nil, err
	}
	col, err := fifl.NewAsyncCollector(engine, asyncConfig(seed, ledgerWorkers))
	return engine, col, err
}

func (f *wideFederation) asyncCoordinator(seed uint64, opts []fifl.CoordinatorOption) (*fifl.Coordinator, error) {
	engine, col, err := f.asyncEngine(seed)
	if err != nil {
		return nil, err
	}
	return fifl.NewCoordinator(f.cfg, engine, initialServers(ledgerWorkers), append(opts, fifl.WithCollector(col))...)
}

// asyncCensus counts the fate of every worker slot over the measured
// windows.
type asyncCensus struct{ folded, stale, pending, slots int }

func (c *asyncCensus) observe(rep *fifl.RoundReport) {
	for _, s := range rep.Statuses {
		c.slots++
		switch s {
		case fifl.UploadOK, fifl.UploadRetried:
			c.folded++
		case fifl.UploadStale:
			c.stale++
		case fifl.UploadPending:
			c.pending++
		}
	}
}

// runAsyncWide is the async workload: the in-process AsyncCollector over
// 256 workers with LeNet-sized gradients, ledger off, advancing every n/2
// submissions with staleness bound 2 under a seeded lag schedule.
func runAsyncWide(ctx context.Context, p params, tr *tracer, full bool) (*result, error) {
	r := newResult()
	f := newWideFederation(p.seed)
	opts := tr.stageHook()
	var c *fifl.Coordinator
	err := replicate(r, replicas(tr, full, 3), func(rr *result) error {
		a := newAssessment(f.in.attacker)
		var err error
		c, err = setup(rr, a, setupReps, func() (*fifl.Coordinator, error) { return f.asyncCoordinator(p.seed, opts) }, nil)
		if err != nil {
			return err
		}
		var census asyncCensus
		counted := &fedRun{round: func(ctx context.Context, t int) (*fifl.RoundReport, error) {
			rep, err := c.RunRoundContext(ctx, t)
			if err == nil {
				census.observe(rep)
			}
			return rep, err
		}, fingerprint: func() string { return digest(c) }}
		_, err = runRounds(ctx, rr, tr, counted, a, roundsFor(p, 40), func() (*fedRun, error) {
			twin, err := warmTwin(ctx, func() (*fifl.Coordinator, error) { return f.asyncCoordinator(p.seed, nil) })
			return coordRun(twin), err
		})
		census.report(rr)
		return err
	})
	if err != nil || !full {
		return r, err
	}
	resumed, err := checkpointResume(p, "async-wide", tr, r, c, f.cfg, tailReps, tailReps, func() (*fifl.Engine, []fifl.CoordinatorOption, error) {
		e, col, err := f.asyncEngine(p.seed)
		return e, []fifl.CoordinatorOption{fifl.WithCollector(col)}, err
	})
	if err != nil {
		return nil, err
	}
	return r, nextRoundMatches(ctx, r, c, resumed)
}

// report adds the census shares and checks that the lag schedule produced
// every fate: folded, rejected over the staleness bound, and pending.
func (c *asyncCensus) report(r *result) {
	submitted := c.folded + c.stale
	if submitted == 0 || c.slots == 0 {
		r.expect("async_mix", false, "no submissions")
		return
	}
	r.add("fl.async.folded_share", float64(c.folded)/float64(submitted), "share", submitted)
	r.add("fl.async.stale_share", float64(c.stale)/float64(submitted), "share", submitted)
	r.add("fl.async.pending_share", float64(c.pending)/float64(c.slots), "share", c.slots)
	r.expect("async_mix", c.folded > 0 && c.stale > 0 && c.pending > 0,
		"%d folded, %d over the staleness bound, %d pending", c.folded, c.stale, c.pending)
}
