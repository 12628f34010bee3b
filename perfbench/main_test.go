package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestBenchmarkFileMatchesDefinitions keeps BENCHMARK.json and the metric
// tables the benchmark reports from drifting apart.
func TestBenchmarkFileMatchesDefinitions(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		file []metric
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.file) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", c.name, len(c.file), len(c.defs))
		}
		for i, m := range c.file {
			if d := c.defs[i]; m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)", c.name, i, m.Name, m.Unit, d.name, d.unit)
			}
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, w.Name, workloads[i].name)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.95, 4.8}} {
		if got := percentile(xs, c.q); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestSelfTimes checks parent linking by containment and self time as
// span time minus the union of child spans, overlapping children included.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	tr.add(1, "round", at(0), at(100))
	tr.add(1, "core.Collect", at(0), at(60))
	tr.add(1, "nn.LocalTrain", at(10), at(40))
	tr.add(1, "nn.LocalTrain", at(20), at(50))
	tr.add(1, "core.Record", at(60), at(90))
	tr.add(2, "round", at(100), at(110))
	tr.link()
	parents := map[string]string{}
	byID := map[int]span{}
	for _, s := range tr.spans {
		byID[s.ID] = s
	}
	for _, s := range tr.spans {
		if s.Parent != 0 {
			parents[s.Name] = byID[s.Parent].Name
		}
	}
	if parents["nn.LocalTrain"] != "core.Collect" || parents["core.Collect"] != "round" || parents["core.Record"] != "round" {
		t.Fatalf("parents = %v", parents)
	}
	self := tr.selfTimes()
	want := map[string]float64{"round": 10 + 10, "core": 20 + 30, "nn": 30 + 30}
	for l, w := range want {
		if got := self[l]; got < w-1e-9 || got > w+1e-9 {
			t.Errorf("self[%s] = %v ms, want %v", l, got, w)
		}
	}
}
