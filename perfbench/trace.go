package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"fifl"
)

// tailTrace is the trace id of the end-of-run phases (checkpoint, resume,
// audit); rounds use their round number.
const tailTrace = -1

// span is one timed call at a layer boundary. Parent is resolved when the
// trace is finished: the innermost span of the same trace whose interval
// contains this one (0 = root).
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the module a span's name starts with ("core.Record" → "core").
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory for the whole traced pass. A nil *tracer is
// a valid no-op, so workloads call it unconditionally.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	stages map[string]float64 // total ms per core stage
	rounds int
	// stopped ends round accounting once the measured loop is over, so
	// rounds the end-of-run checks drive do not count. Warm-up rounds
	// (round 0) never count.
	stopped bool
}

func newTracer() *tracer { return &tracer{t0: time.Now(), stages: map[string]float64{}} }

// add records a finished span.
func (t *tracer) add(trace int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Trace: trace, ID: len(t.spans) + 1, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// stageHook returns the coordinator option that turns every pipeline
// stage into a span of its round, or nothing on an untraced pass.
func (t *tracer) stageHook() []fifl.CoordinatorOption {
	if t == nil {
		return nil
	}
	return []fifl.CoordinatorOption{fifl.WithStageTrace(func(st fifl.RoundStageTrace) {
		end := time.Now()
		if st.Round < 1 || t.isStopped() {
			return // warm-up round or end-of-run check
		}
		t.add(st.Round, "core."+st.Stage, end.Add(-st.Elapsed), end)
		t.mu.Lock()
		t.stages[st.Stage] += float64(st.Elapsed) / float64(time.Millisecond)
		t.mu.Unlock()
	})}
}

// isStopped reports whether the measured loop is over; a nil tracer never
// records.
func (t *tracer) isStopped() bool {
	if t == nil {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stopped
}

// stop ends stage accounting.
func (t *tracer) stop() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.stopped = true
	t.mu.Unlock()
}

// round records one measured round's root span.
func (t *tracer) round(round int, start time.Time, end time.Time) {
	if t == nil {
		return
	}
	t.add(round, "round", start, end)
	t.mu.Lock()
	t.rounds++
	t.mu.Unlock()
}

// link assigns every span its parent: the innermost span of the same trace
// that contains it.
func (t *tracer) link() {
	sort.SliceStable(t.spans, func(i, j int) bool {
		a, b := t.spans[i], t.spans[j]
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End > b.End
	})
	var stack []int
	for i := range t.spans {
		s := &t.spans[i]
		for len(stack) > 0 {
			top := t.spans[stack[len(stack)-1]]
			if top.Trace == s.Trace && top.Start <= s.Start && s.End <= top.End {
				break
			}
			stack = stack[:len(stack)-1]
		}
		s.Parent = 0
		if len(stack) > 0 {
			s.Parent = t.spans[stack[len(stack)-1]].ID
		}
		stack = append(stack, i)
	}
}

// selfTimes returns each layer's self time in ms: its spans' durations
// minus the part of each interval its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		self := s.End - s.Start - covered(children[s.ID])
		out[s.layer()] += float64(self) / float64(time.Millisecond)
	}
	return out
}

// covered is the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		if !open || x[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = x[0], x[1], true
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// addLayerMetrics adds the per-stage times (ms per round), the part of the
// round outside the stages, and every layer's self time.
func (t *tracer) addLayerMetrics(r *result) {
	t.link()
	n := max(t.rounds, 1)
	var staged, rounds float64
	for _, st := range []string{"Collect", "Detect", "Reputation", "Aggregate", "Contribution", "Reward", "Record", "Reselect"} {
		r.add("core."+st+".ms", t.stages[st]/float64(n), "ms", t.rounds)
		staged += t.stages[st]
	}
	for _, s := range t.spans {
		if s.Name == "round" {
			rounds += float64(s.End-s.Start) / float64(time.Millisecond)
		}
	}
	r.add("core.unattributed.ms", (rounds-staged)/float64(n), "ms", t.rounds)
	self := t.selfTimes()
	for _, l := range []string{"round", "core", "nn", "shard", "persist", "chain", "score"} {
		r.add("self."+l+".ms", self[l], "ms", len(t.spans))
	}
	r.add("trace.spans", float64(len(t.spans)), "count", 1)
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Machine machine `json:"machine"`
		Spans   []span  `json:"spans"`
	}{currentMachine(), t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
