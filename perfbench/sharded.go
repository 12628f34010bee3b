package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"fifl"
	"fifl/internal/transport/codec"
)

// wideShards is the number of edge aggregators of sharded-wide.
const wideShards = 8

// wideFederation is the input side of the two -wide workloads: 256
// fixed-gradient workers over a LeNet-sized model (a 784-56-10 MLP, 44,530
// parameters), ledger off.
type wideFederation struct {
	in    inputs
	build fifl.ModelBuilder
	cfg   fifl.CoordinatorConfig
}

func newWideFederation(seed uint64) *wideFederation {
	build := fifl.NewMLP(seed, 28*28, []int{56}, 10)
	dim := build().NumParams()
	return &wideFederation{in: genInputs(seed, ledgerWorkers, dim), build: build, cfg: coordConfig(false)}
}

// edgeLink is an aggregator's ShardDirectLink with the benchmark's
// instrumentation around it: the time from receiving a directive to
// submitting its evidence is the edge's busy time, and on a traced pass
// each submitted frame is re-encoded to count its wire bytes.
type edgeLink struct {
	fifl.ShardDirectLink
	tr    *tracer
	stats *edgeStats
	shard int

	got   time.Time
	round int
}

type edgeStats struct {
	mu         sync.Mutex
	busy       [wideShards]float64 // ms per edge over the measured rounds
	frames     int
	frameBytes int
}

func (l *edgeLink) NextDirective(ctx context.Context, after int) (codec.ShardDirective, error) {
	d, err := l.ShardDirectLink.NextDirective(ctx, after)
	l.got, l.round = time.Now(), d.Round
	return d, err
}

func (l *edgeLink) Submit(ctx context.Context, s codec.ShardSubmit) error {
	err := l.ShardDirectLink.Submit(ctx, s)
	if l.tr == nil || s.Phase == codec.ShardPhaseHello || l.round < 1 || l.tr.isStopped() {
		return err
	}
	end := time.Now()
	l.tr.add(l.round, fmt.Sprintf("shard.edge%d.%s", l.shard, s.Phase), l.got, end)
	frame, encErr := codec.EncodeShardSubmit(s)
	l.stats.mu.Lock()
	l.stats.busy[l.shard] += float64(end.Sub(l.got)) / float64(time.Millisecond)
	l.stats.frames++
	l.stats.frameBytes += len(frame)
	l.stats.mu.Unlock()
	return errors.Join(err, encErr)
}

// shardedRun is one built sharded federation: root coordinator plus its
// edge aggregators running on their own goroutines.
type shardedRun struct {
	coord  *fifl.Coordinator
	aggs   []*fifl.ShardAggregator
	edges  []*fifl.MetricsRegistry // the edge engines' registries
	bridge *fifl.ShardBridge
	hub    *fifl.ShardHub
	cancel context.CancelFunc
	errc   chan error
}

// rootEngine builds the root's engine over virtual stand-ins for every
// worker, plus its hub and the bridge that installs as the Collect stage.
func (f *wideFederation) rootEngine(seed uint64) (*fifl.Engine, *fifl.ShardHub, *fifl.ShardBridge, error) {
	root, err := fifl.NewEngine(fifl.EngineConfig{Servers: 2, GlobalLR: 0.05}, f.build,
		fifl.ShardVirtualWorkers(f.in.samples), fifl.NewRNG(seed), fifl.WithMetrics(fifl.NewMetricsRegistry()))
	if err != nil {
		return nil, nil, nil, err
	}
	hub, err := fifl.NewShardHub(ledgerWorkers, wideShards, root.Metrics())
	if err != nil {
		return nil, nil, nil, err
	}
	bridge, err := fifl.NewShardBridge(hub, root, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	return root, hub, bridge, nil
}

// startSharded builds the federation and starts its aggregators; stop
// must be called to end them.
func (f *wideFederation) startSharded(ctx context.Context, seed uint64, tr *tracer, st *edgeStats) (*shardedRun, error) {
	root, hub, bridge, err := f.rootEngine(seed)
	if err != nil {
		return nil, err
	}
	coord, err := fifl.NewCoordinator(f.cfg, root, initialServers(ledgerWorkers), append(tr.stageHook(), fifl.WithCollector(bridge))...)
	if err != nil {
		return nil, err
	}
	return f.startEdges(ctx, seed, coord, hub, bridge, tr, st, nil)
}

// startEdges binds coord's servers to its bridge, then builds the edge
// aggregators over hub and starts them. draws, when non-nil, fast-forwards
// each edge engine's RNG to the position a shard checkpoint section
// records, as a sharded resume does.
func (f *wideFederation) startEdges(ctx context.Context, seed uint64, coord *fifl.Coordinator, hub *fifl.ShardHub,
	bridge *fifl.ShardBridge, tr *tracer, st *edgeStats, draws []uint64) (*shardedRun, error) {
	bridge.BindServers(coord.Servers)
	aggs := make([]*fifl.ShardAggregator, wideShards)
	edges := make([]*fifl.MetricsRegistry, wideShards)
	per := ledgerWorkers / wideShards
	for s := range aggs {
		lo := s * per
		edges[s] = fifl.NewMetricsRegistry()
		eng, err := fifl.NewEngine(fifl.EngineConfig{Servers: 1, GlobalLR: 0.05}, f.build, f.in.workers(lo, lo+per),
			fifl.NewRNG(seed+uint64(s)+1), fifl.WithMetrics(edges[s]))
		if err != nil {
			return nil, err
		}
		if draws != nil {
			if err := eng.DiscardRNG(draws[s]); err != nil {
				return nil, err
			}
		}
		link := &edgeLink{ShardDirectLink: fifl.ShardDirectLink{Hub: hub}, tr: tr, stats: st, shard: s}
		if aggs[s], err = fifl.NewShardAggregator(s, lo, eng, link); err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(ctx)
	run := &shardedRun{coord: coord, aggs: aggs, edges: edges, bridge: bridge, hub: hub, cancel: cancel, errc: make(chan error, wideShards)}
	for _, agg := range aggs {
		go func(agg *fifl.ShardAggregator) {
			if err := agg.Hello(ctx); err != nil {
				run.errc <- err
				return
			}
			run.errc <- agg.Run(ctx)
		}(agg)
	}
	if err := hub.WaitReady(ctx); err != nil {
		return nil, errors.Join(err, run.stop())
	}
	return run, nil
}

// stop ends the aggregators and waits for every one of them.
func (r *shardedRun) stop() error {
	err := r.bridge.Finish()
	errs := []error{err}
	if err != nil {
		r.cancel() // aggregators will never see the done directive
	}
	for s := 0; s < wideShards; s++ {
		if e := <-r.errc; e != nil && !errors.Is(e, context.Canceled) {
			errs = append(errs, e)
		}
	}
	r.cancel()
	r.hub.Close()
	return errors.Join(errs...)
}

// runShardedWide is the sharded workload: 8 edge aggregators over
// ShardDirectLink under a virtual-worker root, 256 workers with
// LeNet-sized gradients, ledger off. Edge detection, contribution and the
// /v1/shard frame codec do the work; the ledger does none.
func runShardedWide(ctx context.Context, p params, tr *tracer, full bool) (*result, error) {
	r := newResult()
	f := newWideFederation(p.seed)
	st := &edgeStats{}
	rounds := roundsFor(p, 20)
	var run *shardedRun
	err := replicate(r, replicas(tr, full, 3), func(rr *result) error {
		if run != nil {
			if err := run.stop(); err != nil {
				return err
			}
			run = nil
		}
		return f.shardedPhase(ctx, p, tr, rr, st, rounds, &run)
	})
	if err == nil && tr != nil {
		st.report(r, rounds)
	}
	if err == nil && full {
		err = f.resume(ctx, p, tr, r, run)
	}
	if run != nil {
		err = errors.Join(err, run.stop())
	}
	return r, err
}

// resume checkpoints the root coordinator and resumes a fresh one from it,
// then starts edge aggregators for the resumed root, each edge engine
// fast-forwarded to its live counterpart's RNG position, and checks that
// the next round of both federations matches.
func (f *wideFederation) resume(ctx context.Context, p params, tr *tracer, r *result, run *shardedRun) error {
	var hub *fifl.ShardHub
	var bridge *fifl.ShardBridge
	resumed, err := checkpointResume(p, "sharded-wide", tr, r, run.coord, f.cfg, tailReps, tailReps, func() (*fifl.Engine, []fifl.CoordinatorOption, error) {
		var root *fifl.Engine
		var err error
		root, hub, bridge, err = f.rootEngine(p.seed)
		return root, []fifl.CoordinatorOption{fifl.WithCollector(bridge)}, err
	})
	if err != nil {
		return err
	}
	draws := make([]uint64, wideShards)
	for s, agg := range run.aggs {
		draws[s] = agg.Engine().RNGDraws()
	}
	edges, err := f.startEdges(ctx, p.seed, resumed, hub, bridge, nil, &edgeStats{}, draws)
	if err != nil {
		return err
	}
	return errors.Join(nextRoundMatches(ctx, r, run.coord, resumed), edges.stop())
}

// shardedPhase builds the sharded federation into *run and drives its
// measured rounds, with a twin federation for the last tenth.
func (f *wideFederation) shardedPhase(ctx context.Context, p params, tr *tracer, r *result, st *edgeStats, rounds int, run **shardedRun) error {
	a := newAssessment(f.in.attacker)
	_, err := setup(r, a, setupReps, func() (*fifl.Coordinator, error) {
		var err error
		if *run, err = f.startSharded(ctx, p.seed, tr, st); err != nil {
			return nil, err
		}
		return (*run).coord, nil
	}, func() error {
		err := (*run).stop()
		*run = nil
		return err
	})
	if err != nil {
		return err
	}
	var twin *shardedRun
	main := coordRun((*run).coord)
	main.regs = (*run).edges
	_, err = runRounds(ctx, r, tr, main, a, rounds, func() (*fedRun, error) {
		var err error
		if twin, err = f.startSharded(ctx, p.seed, nil, &edgeStats{}); err != nil {
			return nil, err
		}
		_, err = twin.coord.RunRoundContext(ctx, 0)
		return coordRun(twin.coord), err
	})
	if twin != nil {
		err = errors.Join(err, twin.stop())
	}
	return err
}

// report adds the edges' per-layer metrics over the measured rounds.
func (st *edgeStats) report(r *result, rounds int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	med := median(st.busy[:])
	maxBusy := 0.0
	for _, b := range st.busy {
		maxBusy = max(maxBusy, b)
	}
	r.add("shard.edge_busy_ms", med/float64(rounds), "ms", rounds*wideShards)
	r.add("shard.edge_skew", maxBusy/med, "ratio", wideShards)
	r.add("shard.frames_per_round", float64(st.frames)/float64(rounds), "count", rounds)
	r.add("shard.frame_kb_per_round", float64(st.frameBytes)/1024/float64(rounds), "KB", st.frames)
}
