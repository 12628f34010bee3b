package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// The metrics, in the order BENCHMARK.json lists them. Every workload
// reports every end-to-end metric; a per-layer metric of a layer that does
// no work on a workload reads 0 there. The per-layer names without a layer
// prefix (round_ms_p95, fairness, test_acc, ...) are user-facing figures
// that apply to only some workloads, or whose spread across runs exceeds
// any bound a gated metric may have; every run prints them, and the traced
// result records them ungated.
var endToEnd = []metricDef{
	{"round_ms_p50", "ms"}, {"round_growth", "ratio"}, {"setup_s", "s"},
	{"checkpoint_s", "s"}, {"resume_s", "s"},
	{"alloc_mb_per_round", "MB"}, {"heap_live_mb", "MB"}, {"round_ok_share", "share"},
}

var perLayer = []metricDef{
	{"core.Collect.ms", "ms"}, {"core.Detect.ms", "ms"}, {"core.Reputation.ms", "ms"},
	{"core.Aggregate.ms", "ms"}, {"core.Contribution.ms", "ms"}, {"core.Reward.ms", "ms"},
	{"core.Record.ms", "ms"}, {"core.Reselect.ms", "ms"}, {"core.unattributed.ms", "ms"},
	{"attacker_reject_share", "share"}, {"fairness", "coeff"},
	{"chain.records_per_round", "count"}, {"chain.record_us_per_record", "us"},
	{"chain.verify_us_per_record", "us"}, {"chain.export_ms", "ms"}, {"ledger_kb_per_round", "KB"},
	{"round_ms_p95", "ms"}, {"round.alloc_mb.first_decile", "MB"}, {"round.alloc_mb.last_decile", "MB"},
	{"persist.write_ms", "ms"}, {"persist.read_ms", "ms"}, {"persist.restore_ms", "ms"},
	{"persist.checkpoint_mb", "MB"},
	{"score.fold_ms", "ms"}, {"audit_records_per_s", "1/s"}, {"score.reward_mismatches", "count"},
	{"score.unaudited_rounds", "count"},
	{"fl.upload_retries", "count"}, {"fl.failed_upload_share", "share"}, {"fail_share", "share"},
	{"fl.async.folded_share", "share"}, {"fl.async.stale_share", "share"}, {"fl.async.pending_share", "share"},
	{"shard.frames_per_round", "count"}, {"shard.frame_kb_per_round", "KB"}, {"shard.edge_busy_ms", "ms"},
	{"shard.edge_skew", "ratio"},
	{"transport.submit_ms_p50", "ms"}, {"transport.model_wait_ms", "ms"}, {"transport.up_kb_per_round", "KB"},
	{"transport.down_kb_per_round", "KB"}, {"wire_kb_per_round", "KB"}, {"transport.replays", "count"},
	{"transport.request_errors", "count"}, {"codec.encode_ms_per_round", "ms"}, {"codec.decode_ms_per_round", "ms"},
	{"nn.train_ms_per_round", "ms"}, {"test_acc", "share"},
	{"runtime.gc_cycles_per_round", "count"}, {"runtime.gc_pause_ms_per_round", "ms"},
	{"self.round.ms", "ms"}, {"self.core.ms", "ms"}, {"self.nn.ms", "ms"}, {"self.shard.ms", "ms"},
	{"self.persist.ms", "ms"}, {"self.chain.ms", "ms"}, {"self.score.ms", "ms"},
	{"trace.overhead_ms", "ms"}, {"trace.spans", "count"},
}

// roundSampler times rounds and the memory they allocate. Garbage is
// collected before every timed round, outside the timed interval, and the
// pacer is off (see run): where a concurrent collection lands relative to a
// round is scheduling noise that swamps stage-level changes, so round
// latency excludes it and the collection's own cost is reported per round
// instead (with allocation volume and the live heap gated as end-to-end
// metrics).
type roundSampler struct {
	lat, alloc []float64 // ms and MB per measured round
	twin       []float64 // ms per twin round, see runRounds
	gcForcedMs float64   // total time of the between-round collections
	gcCycles   float64   // collections a default pacer would have run, see time
	ms         runtime.MemStats
}

// time collects garbage, then times fn and the bytes it allocates. With
// the default GOGC=100 a collection starts each time the heap grows by its
// live size, so fn's allocation over the live heap counts the collections
// the default pacer would have run during it.
func (s *roundSampler) time(fn func() error) (ms, mb float64, err error) {
	t0 := time.Now()
	runtime.GC()
	s.gcForcedMs += since(t0)
	runtime.ReadMemStats(&s.ms)
	allocAt, live := s.ms.TotalAlloc, s.ms.HeapAlloc
	t1 := time.Now()
	err = fn()
	ms = since(t1)
	runtime.ReadMemStats(&s.ms)
	alloc := s.ms.TotalAlloc - allocAt
	s.gcCycles += float64(alloc) / float64(live)
	return ms, float64(alloc) / (1 << 20), err
}

// report adds the round-level metrics every workload shares. It must run
// right after the measured loop, while the federation is still live: the
// heap is measured after a forced collection. round_growth divides the
// median of the last tenth of rounds by the median of the first tenth —
// taken from the twin rounds interleaved with the last tenth where the
// workload has a twin, so both sides see the same moments of a shared host.
func (s *roundSampler) report(r *result) {
	n := len(s.lat)
	tenth := max(n/10, 1)
	first := s.lat[:tenth]
	if len(s.twin) > 0 {
		first = s.twin
	}
	r.lat = s.lat
	r.add("round_ms_p50", median(s.lat), "ms", n)
	r.add("round_ms_p95", percentile(s.lat, 0.95), "ms", n)
	r.add("round_growth", median(s.lat[n-tenth:])/median(first), "ratio", tenth+len(first))
	r.add("alloc_mb_per_round", mean(s.alloc), "MB", n)
	r.add("round.alloc_mb.first_decile", median(s.alloc[:tenth]), "MB", tenth)
	r.add("round.alloc_mb.last_decile", median(s.alloc[n-tenth:]), "MB", tenth)
	r.add("runtime.gc_cycles_per_round", s.gcCycles/float64(n+len(s.twin)), "count", n+len(s.twin))
	r.add("runtime.gc_pause_ms_per_round", s.gcForcedMs/float64(n+len(s.twin)), "ms", n+len(s.twin))
	runtime.GC()
	runtime.GC() // the second collection empties what sync.Pools kept
	runtime.ReadMemStats(&s.ms)
	r.add("heap_live_mb", float64(s.ms.HeapAlloc)/(1<<20), "MB", 1)
}

// replicas is how many times a workload repeats its measured phase:
// untraced times on an end-to-end run, whose metrics are the median across
// the replicas, so a replica caught by a slow spell of a shared host does
// not move them; once on either pass of a traced run.
func replicas(tr *tracer, full bool, untraced int) int {
	if tr == nil && full {
		return untraced
	}
	return 1
}

// replicate runs a workload's measured phase k times, each into a fresh
// result, and adds to r the median across replicas of every metric, the
// sample counts summed, and every replica's checks. The exception is
// round_ms_p95, taken over the rounds of all replicas pooled: a tail
// percentile of one replica rests on few samples, and its median across
// replicas wanders more than the pooled one.
func replicate(r *result, k int, phase func(rr *result) error) error {
	rs := make([]*result, k)
	for i := range rs {
		rs[i] = newResult()
		if err := phase(rs[i]); err != nil {
			return err
		}
	}
	for _, name := range rs[k-1].order {
		vals := make([]float64, 0, k)
		n := 0
		for _, rr := range rs {
			m := rr.metrics[name]
			vals = append(vals, m.Value)
			n += m.N
		}
		r.add(name, median(vals), rs[k-1].metrics[name].Unit, n)
	}
	var pooled []float64
	for _, rr := range rs {
		pooled = append(pooled, rr.lat...)
		r.checks = append(r.checks, rr.checks...)
		r.attempted += rr.attempted
		r.failed += rr.failed
	}
	if len(pooled) > 0 {
		r.add("round_ms_p95", percentile(pooled, 0.95), "ms", len(pooled))
	}
	return nil
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile interpolates linearly between the closest ranks.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func minimum(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

// roundsFor scales a workload's round count with the run length: perSecond
// rounds for every second asked for, and never fewer than 200, so the 95th
// percentile keeps ten samples beyond it. The count is a multiple of 20, so
// the first and last tenth of rounds hold the same round parities — async
// advance cohorts alternate by round.
func roundsFor(p params, perSecond int) int {
	return (max(200, perSecond*p.seconds) + 19) / 20 * 20
}
