package main

import (
	"fmt"
	"math/rand"

	"powercap/internal/workload"
)

// Budget levels in watts per node. Whole watts, so that a node's budget
// view after a write compares equal to the value written.
const (
	budgetHiPerNode   = 170
	budgetLoPerNode   = 145
	budgetHierPerNode = 160
)

// perturbRel is how far the seed moves each server's curve. It is small on
// purpose. How many rounds a budget cut needs depends far more on which
// workloads sit next to each other on the ring than on anything the code
// does — 422 to 973 rounds at N=12 over ring orders of one set of
// curves, 380 to 3192 over free draws — so the benchmark holds the
// ring order fixed (catalog order, repeated) and lets the seed move only
// the curves, which moves rounds-to-99 by about 2%.
const perturbRel = 0.01

// epochRNG derives the generator for one epoch of one seed.
func epochRNG(seed int64, epoch int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(epoch)))
}

// ringUtilities fits the utilities of an n-node ring: node i runs
// names[i mod len(names)] from the HPC catalog, perturbed by the seed.
func ringUtilities(n int, names []string, rng *rand.Rand) ([]workload.Utility, error) {
	us := make([]workload.Utility, n)
	for i := range us {
		b, err := workload.ByName(workload.HPC, names[i%len(names)])
		if err != nil {
			return nil, err
		}
		q, err := workload.FitFromSweep(b.Perturb(rng, perturbRel), workload.DefaultServer, 0, rng)
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		us[i] = q
	}
	return us, nil
}

// catalogOrder is the HPC catalog's own order.
func catalogOrder() []string {
	names := make([]string, len(workload.HPC))
	for i, b := range workload.HPC {
		names[i] = b.Name
	}
	return names
}
