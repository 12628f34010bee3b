package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fifl"
	"fifl/internal/core"
	"fifl/internal/persist"
)

// Where checkpoint and resume take milliseconds, each is repeated tailReps
// times.
const tailReps = 15

// minRep is the least time one repetition of a short measurement spans: an
// operation faster than that runs back to back within the repetition and
// its mean is counted, so a sub-millisecond checkpoint is not timed alone.
const minRep = 20 * time.Millisecond

// repGap separates repetitions of a short measurement, so that their
// median samples several moments of a shared host rather than one.
const repGap = 50 * time.Millisecond

// settle prepares a repetition of a short measurement: it collects garbage
// left by the previous one and waits repGap, both outside the timed
// interval.
func settle() {
	runtime.GC()
	time.Sleep(repGap)
}

// restoreTarget builds what a restore needs: a fresh engine that has run no
// rounds, and the coordinator options of the interrupted run.
type restoreTarget func() (*fifl.Engine, []fifl.CoordinatorOption, error)

// checkpointResume measures the operator's restart path on a live
// coordinator between rounds. checkpoint_s is Coordinator.Snapshot plus
// persist.Write of the encoded checkpoint into memory; the bytes then go
// to a file outside the timed interval, because on a shared disk the
// kernel's writeback makes file writes vary by more than any bound. The
// atomic, fsync'd persist.WriteFile is timed once on a traced pass as
// persist.write_ms. resume_s is persist.ReadFile plus
// RestoreCoordinatorSnapshot over a fresh engine, built outside the timed
// interval. They are repeated ckptReps and resumeReps times, each
// repetition spanning at least minRep, and each is reported as its fastest
// repetition: within one run, repetitions of these millisecond operations
// fall into a fast and a slow mode in varying proportions, and the fastest
// one is the cost of the program without that interference. The last
// resumed coordinator is returned.
func checkpointResume(p params, name string, tr *tracer, r *result, c *fifl.Coordinator, cfg fifl.CoordinatorConfig,
	ckptReps, resumeReps int, fresh restoreTarget) (*fifl.Coordinator, error) {
	path := filepath.Join(p.outDir, name+".ckpt")
	defer os.Remove(path)
	ckpt := make([]float64, ckptReps)
	checkpoints := 0
	var encoded bytes.Buffer
	for i := range ckpt {
		settle()
		var snap *persist.Snapshot
		k := 0
		start := time.Now()
		for ; k == 0 || time.Since(start) < minRep; k++ {
			encoded.Reset()
			t0 := time.Now()
			var err error
			snap, err = c.Snapshot()
			t1 := time.Now()
			tr.add(tailTrace, "core.Snapshot", t0, t1)
			if err == nil {
				err = persist.Write(&encoded, snap)
			}
			tr.add(tailTrace, "persist.Write", t1, time.Now())
			if err != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
		}
		ckpt[i] = time.Since(start).Seconds() / float64(k)
		checkpoints += k
		if i == 0 && tr != nil {
			t3 := time.Now()
			err := persist.WriteFile(path+".durable", snap)
			t4 := time.Now()
			tr.add(tailTrace, "persist.WriteFile", t3, t4)
			os.Remove(path + ".durable")
			if err != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
			r.add("persist.write_ms", float64(t4.Sub(t3))/float64(time.Millisecond), "ms", 1)
		}
	}
	if err := os.WriteFile(path, encoded.Bytes(), 0o644); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	r.add("checkpoint_s", minimum(ckpt), "s", checkpoints)
	r.add("persist.checkpoint_mb", float64(st.Size())/(1<<20), "MB", 1)

	var resumed *fifl.Coordinator
	reads, restores := make([]float64, resumeReps), make([]float64, resumeReps)
	resumes := 0
	for i := range reads {
		settle()
		var read, restore time.Duration
		k := 0
		for ; k == 0 || read+restore < minRep; k++ {
			engine, opts, err := fresh()
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			snap, err := persist.ReadFile(path)
			t1 := time.Now()
			tr.add(tailTrace, "persist.ReadFile", t0, t1)
			if err != nil {
				return nil, fmt.Errorf("resume: %w", err)
			}
			resumed, err = core.RestoreCoordinatorSnapshot(snap, cfg, engine, opts...)
			t2 := time.Now()
			tr.add(tailTrace, "core.RestoreCoordinatorSnapshot", t1, t2)
			if err != nil {
				return nil, fmt.Errorf("resume: %w", err)
			}
			read += t1.Sub(t0)
			restore += t2.Sub(t1)
		}
		reads[i] = float64(read) / float64(time.Millisecond) / float64(k)
		restores[i] = float64(restore) / float64(time.Millisecond) / float64(k)
		resumes += k
	}
	resume := make([]float64, resumeReps)
	for i := range resume {
		resume[i] = (reads[i] + restores[i]) / 1e3
	}
	r.add("resume_s", minimum(resume), "s", resumes)
	r.add("persist.read_ms", minimum(reads), "ms", resumes)
	r.add("persist.restore_ms", minimum(restores), "ms", resumes)
	r.expect("resume_round", resumed.NextRound() == c.NextRound(),
		"resumed coordinator continues at round %d, original at %d", resumed.NextRound(), c.NextRound())
	return resumed, nil
}

// ledgerTail measures the ledger's read side at the end of a run: the
// export (WriteBinary), an offline audit that folds the export through the
// score collector with its Eq. 15 re-audit, and — on a traced pass — a
// full Ledger.Verify. It checks the record census (5n records per round)
// and that the audit found no reward mismatch, and returns the offline
// Eq. 16 fairness coefficient.
func ledgerTail(tr *tracer, r *result, c *fifl.Coordinator, n, rounds int) (float64, error) {
	led := c.Ledger
	blocks := led.Len()
	var export bytes.Buffer
	t0 := time.Now()
	if err := led.WriteBinary(&export); err != nil {
		return 0, fmt.Errorf("export: %w", err)
	}
	t1 := time.Now()
	tr.add(tailTrace, "chain.WriteBinary", t0, t1)
	r.add("chain.export_ms", float64(t1.Sub(t0))/float64(time.Millisecond), "ms", 1)
	r.add("ledger_kb_per_round", float64(export.Len())/1024/float64(rounds), "KB", rounds)
	r.add("chain.records_per_round", float64(blocks)/float64(rounds), "count", rounds)
	r.expect("ledger_records", blocks == 5*n*rounds, "%d records for %d rounds of %d workers (want 5n per round)", blocks, rounds, n)

	col := fifl.NewScoreCollector(fifl.ScoreConfig{})
	t2 := time.Now()
	if err := col.FromStream(bytes.NewReader(export.Bytes())); err != nil {
		return 0, fmt.Errorf("audit fold: %w", err)
	}
	_, rep := col.Finalize()
	t3 := time.Now()
	tr.add(tailTrace, "score.FromStream", t2, t3)
	fold := t3.Sub(t2).Seconds()
	r.add("score.fold_ms", fold*1e3, "ms", 1)
	r.add("audit_records_per_s", float64(rep.Records)/fold, "1/s", rep.Records)
	r.add("score.reward_mismatches", float64(rep.MismatchCount), "count", rep.Rounds)
	r.add("score.unaudited_rounds", float64(rep.UnauditedRounds), "count", rep.Rounds)
	r.expect("reward_mismatches", rep.MismatchCount == 0, "%d Eq. 15 reward mismatches over %d rounds", rep.MismatchCount, rep.Rounds)
	r.expect("audit_census", rep.Records == blocks && rep.UnauditedRounds == 0,
		"audit folded %d of %d records, %d rounds unaudited", rep.Records, blocks, rep.UnauditedRounds)
	if !rep.FairnessDefined {
		return 0, fmt.Errorf("audit: fairness undefined")
	}

	if tr != nil {
		t4 := time.Now()
		err := led.Verify()
		t5 := time.Now()
		tr.add(tailTrace, "chain.Verify", t4, t5)
		if err != nil {
			return 0, fmt.Errorf("verify: %w", err)
		}
		r.add("chain.verify_us_per_record", float64(t5.Sub(t4))/float64(time.Microsecond)/float64(blocks), "us", blocks)
	}
	return rep.Fairness, nil
}
