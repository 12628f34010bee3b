package main

import (
	"math"
	"math/rand/v2"

	"fifl"
)

// Attack-degree range of the paper's evaluation: the share of sign-flipping
// workers a workload draws lies in [minAttackShare, maxAttackShare].
const (
	minAttackShare = 0.08
	maxAttackShare = 0.385
)

// inputs are one workload's generated federation: a fixed local gradient
// per worker, its sample count and whether it flips signs. Honest workers
// upload seeded noise around one common descent direction, each with its
// own noise level so contributions (and so rewards) differ; attackers
// upload the negated honest form. The initial servers are always honest:
// their uploads form the detection benchmark.
type inputs struct {
	grads    []fifl.Gradient
	samples  []int
	attacker []bool
}

// genInputs draws an n-worker federation of dim-dimensional gradients from
// seed; the initial servers are honest.
func genInputs(seed uint64, n, dim int) inputs {
	r := rand.New(rand.NewPCG(seed, 0x6669666c))
	share := minAttackShare + (maxAttackShare-minAttackShare)*r.Float64()
	attackers := int(math.Round(share * float64(n)))
	in := inputs{
		grads:    make([]fifl.Gradient, n),
		samples:  make([]int, n),
		attacker: make([]bool, n),
	}
	servers := initialServers(n)
	var candidates []int
	for i := 0; i < n; i++ {
		if i != servers[0] && i != servers[1] {
			candidates = append(candidates, i)
		}
	}
	r.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	for _, i := range candidates[:attackers] {
		in.attacker[i] = true
	}
	dir := make([]float64, dim)
	for j := range dir {
		dir[j] = 0.01 * r.NormFloat64()
	}
	for i := range in.grads {
		noise := 0.005 + 0.015*r.Float64() // per-worker data quality
		g := make(fifl.Gradient, dim)
		sign := 1.0
		if in.attacker[i] {
			sign = -1
		}
		for j := range g {
			g[j] = sign * (dir[j] + noise*r.NormFloat64())
		}
		in.grads[i] = g
		in.samples[i] = 50 + r.IntN(101)
	}
	return in
}

// initialServers is the server cluster of an n-worker federation: one
// worker from each half, so each of async-wide's two alternating advance
// cohorts holds a server.
func initialServers(n int) []int { return []int{0, n / 2} }

// fixedWorker uploads a pre-generated gradient every round, so the
// in-process workloads measure the coordinator machinery rather than SGD.
type fixedWorker struct {
	id, samples int
	grad        fifl.Gradient
}

func (w *fixedWorker) ID() int         { return w.id }
func (w *fixedWorker) NumSamples() int { return w.samples }
func (w *fixedWorker) LocalTrain(int, []float64) fifl.Gradient {
	return w.grad
}

// workers wraps the slots [lo, hi) of the generated federation under their
// federation-wide IDs.
func (in inputs) workers(lo, hi int) []fifl.Worker {
	out := make([]fifl.Worker, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, &fixedWorker{id: i, samples: in.samples[i], grad: in.grads[i]})
	}
	return out
}
