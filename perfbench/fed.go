package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"fifl"
	"fifl/internal/stats"
)

// coordConfig is the FIFL mechanism setup shared by every workload.
func coordConfig(ledger bool) fifl.CoordinatorConfig {
	return fifl.CoordinatorConfig{
		Detection:      fifl.Detector{Threshold: 0.02},
		Reputation:     fifl.DefaultReputationConfig(),
		Contribution:   fifl.ContributionConfig{BaselineWorker: -1, Clamp: 10, SmoothBH: 0.2},
		RewardPerRound: 1,
		RecordToLedger: ledger,
	}
}

// digest fingerprints a coordinator's model, reputations and cumulative
// rewards; equal seeds must give equal digests.
func digest(c *fifl.Coordinator) string {
	return hashFloats(nil, c.Engine.ParamsRef(), c.Rep.Reputations(), c.CumulativeRewards())
}

// reportDigest fingerprints one round's report.
func reportDigest(rep *fifl.RoundReport) string {
	accept := make([]byte, len(rep.Detection.Accept))
	for i, a := range rep.Detection.Accept {
		if a {
			accept[i] = 1
		}
	}
	return hashFloats(accept, rep.Reputations, rep.Shares, rep.Rewards, rep.Global, rep.Contributions.C)
}

// hashFloats is the hex prefix of the SHA-256 of prefix followed by the
// bits of every value.
func hashFloats(prefix []byte, vss ...[]float64) string {
	h := sha256.New()
	h.Write(prefix)
	var b [8]byte
	for _, vs := range vss {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// uploadCounters totals the upload instruments of a federation's engine
// (and worker client) registries.
type uploadCounters struct{ uploads, ok, retries int64 }

func readUploads(regs []*fifl.MetricsRegistry) uploadCounters {
	var c uploadCounters
	for _, reg := range regs {
		s := reg.Snapshot()
		c.uploads += sumCounters(s, "fifl_engine_uploads_total")
		c.ok += s.CounterValue("fifl_engine_uploads_total", "status", "ok")
		c.retries += sumCounters(s, "fifl_engine_upload_retries_total") + sumCounters(s, "fifl_client_retry_attempts_total")
	}
	return c
}

// reportUploads adds the upload layer's retries and failed-upload share
// between two readings.
func reportUploads(r *result, before, after uploadCounters, rounds int) {
	uploads := after.uploads - before.uploads
	failed := uploads - (after.ok - before.ok)
	share := 0.0
	if uploads > 0 {
		share = float64(failed) / float64(uploads)
	}
	r.add("fl.upload_retries", float64(after.retries-before.retries), "count", rounds)
	r.add("fl.failed_upload_share", share, "share", int(uploads))
}

// assessment folds the measured rounds' reports: commit rate, how many
// sign-flip uploads detection rejected, and per-worker cumulative
// contributions and rewards for the in-run Eq. 16 fairness coefficient.
type assessment struct {
	attacker         []bool
	contrib, reward  []float64
	flips, rejected  int
	rounds, degraded int
}

func newAssessment(attacker []bool) *assessment {
	n := len(attacker)
	return &assessment{attacker: attacker, contrib: make([]float64, n), reward: make([]float64, n)}
}

// observe folds one measured round.
func (a *assessment) observe(rep *fifl.RoundReport) {
	a.rounds++
	if !rep.Committed {
		a.degraded++
	}
	a.fold(rep)
}

// fold accumulates a round's contributions, rewards and verdicts; the
// warm-up round is folded without being counted as measured, so the in-run
// fairness covers the same rounds as the ledger.
func (a *assessment) fold(rep *fifl.RoundReport) {
	for i, id := range rep.WorkerIDs {
		a.contrib[id] += rep.Contributions.C[i]
		a.reward[id] += rep.Rewards[i]
		if !a.attacker[id] {
			continue
		}
		if s := rep.Statuses[i]; s == fifl.UploadOK || s == fifl.UploadRetried {
			a.flips++
			if !rep.Detection.Accept[i] {
				a.rejected++
			}
		}
	}
}

// fairness is Eq. 16 over the run: the Pearson correlation of cumulative
// contributions and cumulative rewards.
func (a *assessment) fairness() (float64, error) { return stats.Pearson(a.contrib, a.reward) }

// report adds the assessment's metrics and checks.
func (a *assessment) report(r *result) {
	fair, err := a.fairness()
	r.add("fairness", fair, "coeff", len(a.contrib))
	r.expect("fairness_defined", err == nil, "Eq. 16 over %d workers (%v)", len(a.contrib), err)
	r.attempted, r.failed = a.rounds, a.degraded
	r.add("round_ok_share", float64(a.rounds-a.degraded)/float64(a.rounds), "share", a.rounds)
	r.add("fail_share", float64(a.degraded)/float64(a.rounds), "share", a.rounds)
	share := 0.0
	if a.flips > 0 {
		share = float64(a.rejected) / float64(a.flips)
	}
	r.add("attacker_reject_share", share, "share", a.flips)
	r.expect("rounds_committed", a.degraded == 0, "%d of %d rounds degraded", a.degraded, a.rounds)
}
