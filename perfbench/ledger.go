package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"fifl"
)

// ledgerWorkers is the federation size of every in-process workload.
const ledgerWorkers = 256

// checkRound is the round after which every workload fingerprints its
// state; a second federation built from the same seed must match it.
const checkRound = 10

// setupReps is how many times each workload builds its federation to time
// set-up.
const setupReps = 5

// flatFederation is an in-process synchronous federation of fixed-gradient
// workers over a small MLP (536 parameters).
type flatFederation struct {
	in    inputs
	build fifl.ModelBuilder
	cfg   fifl.CoordinatorConfig
}

func newFlatFederation(seed uint64, ledger bool) *flatFederation {
	build := fifl.NewMLP(seed, 24, []int{16}, 8)
	dim := build().NumParams()
	return &flatFederation{in: genInputs(seed, ledgerWorkers, dim), build: build, cfg: coordConfig(ledger)}
}

func (f *flatFederation) engine(seed uint64) (*fifl.Engine, error) {
	return fifl.NewEngine(fifl.EngineConfig{Servers: 2, GlobalLR: 0.05}, f.build,
		f.in.workers(0, ledgerWorkers), fifl.NewRNG(seed), fifl.WithMetrics(fifl.NewMetricsRegistry()))
}

func (f *flatFederation) coordinator(seed uint64, opts []fifl.CoordinatorOption) (*fifl.Coordinator, error) {
	engine, err := f.engine(seed)
	if err != nil {
		return nil, err
	}
	return fifl.NewCoordinator(f.cfg, engine, initialServers(ledgerWorkers), opts...)
}

// setup builds a federation and runs its warm-up round 0 (arenas, signing
// buffers), reps times; it reports the median, folds the last build's
// warm-up report into a and returns that build. discard, when non-nil,
// tears down a superseded build outside the timed interval.
func setup(r *result, a *assessment, reps int, build func() (*fifl.Coordinator, error), discard func() error) (*fifl.Coordinator, error) {
	var c *fifl.Coordinator
	var rep *fifl.RoundReport
	ts := make([]float64, reps)
	for i := range ts {
		if i > 0 && discard != nil {
			if err := discard(); err != nil {
				return nil, err
			}
		}
		settle()
		t0 := time.Now()
		var err error
		if c, err = build(); err != nil {
			return nil, err
		}
		if rep, err = c.RunRoundContext(context.Background(), 0); err != nil {
			return nil, err
		}
		ts[i] = time.Since(t0).Seconds()
	}
	r.add("setup_s", median(ts), "s", reps)
	a.fold(rep)
	return c, nil
}

// fedRun is one built federation as the round loop drives it; regs are the
// registries its uploads are counted in.
type fedRun struct {
	round       func(ctx context.Context, t int) (*fifl.RoundReport, error)
	fingerprint func() string
	regs        []*fifl.MetricsRegistry
}

func coordRun(c *fifl.Coordinator) *fedRun {
	return &fedRun{round: c.RunRoundContext, fingerprint: func() string { return digest(c) },
		regs: []*fifl.MetricsRegistry{c.Engine.Metrics()}}
}

// runRounds drives rounds 1..rounds of a federation, timing each. When
// twin is non-nil it builds a second federation from the same seed (warmed
// up with its round 0) just before the last tenth of rounds; the twin's
// first rounds are interleaved one for one with the main run's last tenth,
// alternating which goes first, so round_growth compares two sides
// measured at the same moments. The twin's state after checkRound must
// match the main run's — equal seeds, equal federations. runRounds returns
// the main run's fingerprint after checkRound.
func runRounds(ctx context.Context, r *result, tr *tracer, main *fedRun, a *assessment, rounds int,
	twin func() (*fedRun, error)) (string, error) {
	var s roundSampler
	var fp string
	tenth := max(rounds/10, 1)
	uploadsAt := readUploads(main.regs)
	var tw *fedRun
	twinRound := func(k int) error {
		ms, _, err := s.time(func() error {
			_, err := tw.round(ctx, k)
			return err
		})
		if err != nil {
			return fmt.Errorf("twin round %d: %w", k, err)
		}
		s.twin = append(s.twin, ms)
		if k == checkRound {
			got := tw.fingerprint()
			r.expect("seed_determinism", got == fp, "round-%d state %s, twin from the same seed %s", checkRound, fp, got)
		}
		return nil
	}
	for t := 1; t <= rounds; t++ {
		k := t - (rounds - tenth) // the twin round paired with this one
		if k == 1 && twin != nil {
			var err error
			if tw, err = twin(); err != nil {
				return "", fmt.Errorf("twin: %w", err)
			}
		}
		paired := tw != nil && k >= 1
		if paired && k%2 == 0 {
			if err := twinRound(k); err != nil {
				return "", err
			}
		}
		var rep *fifl.RoundReport
		ms, mb, err := s.time(func() error {
			t0 := time.Now()
			var err error
			rep, err = main.round(ctx, t)
			tr.round(t, t0, time.Now())
			return err
		})
		if err != nil {
			return "", fmt.Errorf("round %d: %w", t, err)
		}
		if paired && k%2 != 0 {
			if err := twinRound(k); err != nil {
				return "", err
			}
		}
		s.lat, s.alloc = append(s.lat, ms), append(s.alloc, mb)
		a.observe(rep)
		if t == checkRound {
			fp = main.fingerprint()
		}
	}
	tr.stop()
	reportUploads(r, uploadsAt, readUploads(main.regs), rounds)
	s.report(r)
	a.report(r)
	return fp, nil
}

// nextRoundMatches runs one more round on the measured coordinator and on
// the one resumed from its checkpoint; both must produce the same report
// and end in the same state.
func nextRoundMatches(ctx context.Context, r *result, orig, resumed *fifl.Coordinator) error {
	t := orig.NextRound()
	a, err := orig.RunRoundContext(ctx, t)
	if err != nil {
		return err
	}
	b, err := resumed.RunRoundContext(ctx, t)
	if err != nil {
		return err
	}
	da, db := reportDigest(a)+digest(orig), reportDigest(b)+digest(resumed)
	ok := da == db
	if orig.Ledger.Len() > 0 {
		ha, _ := orig.Ledger.Block(orig.Ledger.Len() - 1)
		hb, _ := resumed.Ledger.Block(resumed.Ledger.Len() - 1)
		ok = ok && ha.Hash == hb.Hash
	}
	r.expect("resume_equivalence", ok, "round %d after resume %s, uninterrupted %s", t, db, da)
	return nil
}

// warmTwin builds a coordinator with build and runs its warm-up round 0.
func warmTwin(ctx context.Context, build func() (*fifl.Coordinator, error)) (*fifl.Coordinator, error) {
	c, err := build()
	if err == nil {
		_, err = c.RunRoundContext(ctx, 0)
	}
	return c, err
}

// runLedgerLong is the ledger-heavy workload: a flat synchronous federation
// of 256 fixed-gradient workers with the audit ledger on, long enough that
// per-round growth of the chain shows, ending with export, offline audit,
// checkpoint, resume and a resumed-round equivalence check.
func runLedgerLong(ctx context.Context, p params, tr *tracer, full bool) (*result, error) {
	r := newResult()
	f := newFlatFederation(p.seed, true)
	opts := tr.stageHook()
	var c *fifl.Coordinator
	var a *assessment
	err := replicate(r, replicas(tr, full, 3), func(rr *result) error {
		a = newAssessment(f.in.attacker)
		var err error
		c, err = setup(rr, a, setupReps, func() (*fifl.Coordinator, error) { return f.coordinator(p.seed, opts) }, nil)
		if err != nil {
			return err
		}
		_, err = runRounds(ctx, rr, tr, coordRun(c), a, roundsFor(p, 20), func() (*fedRun, error) {
			twin, err := warmTwin(ctx, func() (*fifl.Coordinator, error) { return f.coordinator(p.seed, nil) })
			return coordRun(twin), err
		})
		return err
	})
	if err != nil || !full {
		return r, err
	}
	if err := auditFairness(tr, r, c, a, ledgerWorkers); err != nil {
		return nil, err
	}
	resumed, err := checkpointResume(p, "ledger-long", tr, r, c, f.cfg, 5, 1, func() (*fifl.Engine, []fifl.CoordinatorOption, error) {
		e, err := f.engine(p.seed)
		return e, nil, err
	})
	if err != nil {
		return nil, err
	}
	return r, nextRoundMatches(ctx, r, c, resumed)
}

// auditFairness runs the ledger tail and checks that the offline Eq. 16
// coefficient the audit recomputes from the ledger equals the in-run one.
func auditFairness(tr *tracer, r *result, c *fifl.Coordinator, a *assessment, n int) error {
	audited, err := ledgerTail(tr, r, c, n, c.NextRound())
	if err != nil {
		return err
	}
	fair, _ := a.fairness()
	r.expect("fairness_offline", math.Abs(audited-fair) < 1e-9, "ledger audit %.12f, in-run %.12f", audited, fair)
	return nil
}
