package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"bhive/internal/corpus"
)

// paperBlocks is the size of the paper's full suite; corpus scales are
// fractions of it.
const paperBlocks = 358561

// distinctPool draws n records with pairwise-distinct block bytes from the
// generated suite under seed, shuffled by the same seed, so every chunk
// cut from it samples all applications.
func distinctPool(seed int64, n int) ([]corpus.Record, error) {
	scale := 1.25 * float64(n) / paperBlocks
	for attempt := 0; attempt < 8; attempt++ {
		var out []corpus.Record
		seen := make(map[string]bool)
		for _, r := range corpus.GenerateAll(scale, seed) {
			h, err := r.Block.Hex()
			if err != nil {
				return nil, fmt.Errorf("encode generated block: %w", err)
			}
			if !seen[h] {
				seen[h] = true
				out = append(out, r)
			}
		}
		if len(out) >= n {
			rng := rand.New(rand.NewSource(seed))
			rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
			return out[:n], nil
		}
		scale *= 1.5
	}
	return nil, fmt.Errorf("could not draw %d distinct blocks under seed %d", n, seed)
}

// lengthEdges bound the instruction-count strata. Evaluation cost is
// heavy-tailed in block length (the longest 2% of blocks take over 40% of
// the models' time), so a corpus drawn without strata varies from seed to
// seed mostly in how many long blocks it happens to hold.
var lengthEdges = []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32, 64, 100, 150}

func stratum(insts int) int {
	for i, e := range lengthEdges {
		if insts <= e {
			return i
		}
	}
	return len(lengthEdges)
}

// refSeed fixes the stratum quotas: every run holds the same number of
// blocks of each length class, whatever its own seed.
const refSeed = 0

// quotas splits n blocks over the strata in the proportions of the
// reference corpus (largest remainder).
func quotas(n int) ([]int, error) {
	ref, err := distinctPool(refSeed, 4*n)
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(lengthEdges)+1)
	for _, r := range ref {
		counts[stratum(len(r.Block.Insts))]++
	}
	q := make([]int, len(counts))
	type rem struct {
		k    int
		frac float64
	}
	var rems []rem
	left := n
	for k, c := range counts {
		exact := float64(n) * float64(c) / float64(len(ref))
		q[k] = int(exact)
		left -= q[k]
		rems = append(rems, rem{k, exact - float64(q[k])})
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].frac > rems[j].frac })
	for i := 0; i < left; i++ {
		q[rems[i].k]++
	}
	return q, nil
}

// stratifiedPool draws n distinct blocks under seed, with the reference
// quota of each length stratum, and deals them into groups of n/groups
// blocks with near-equal composition: longest first, in snake order, then
// shuffled within each group. Groups are concatenated in order.
func stratifiedPool(seed int64, n, groups int) ([]corpus.Record, error) {
	if n%groups != 0 {
		return nil, fmt.Errorf("%d blocks do not split into %d groups", n, groups)
	}
	q, err := quotas(n)
	if err != nil {
		return nil, err
	}
	for factor := 4; factor <= 32; factor *= 2 {
		cands, err := distinctPool(seed, factor*n)
		if err != nil {
			return nil, err
		}
		by := make([][]corpus.Record, len(q))
		for _, r := range cands {
			if k := stratum(len(r.Block.Insts)); len(by[k]) < q[k] {
				by[k] = append(by[k], r)
			}
		}
		short := false
		for k := range q {
			short = short || len(by[k]) < q[k]
		}
		if short {
			continue
		}
		var picked []corpus.Record
		for _, rs := range by {
			picked = append(picked, rs...)
		}
		sort.SliceStable(picked, func(a, b int) bool { return len(picked[a].Block.Insts) > len(picked[b].Block.Insts) })
		dealt := make([][]corpus.Record, groups)
		for i, r := range picked {
			g := i % groups
			if (i/groups)%2 == 1 {
				g = groups - 1 - g // snake order evens out the groups' totals
			}
			dealt[g] = append(dealt[g], r)
		}
		rng := rand.New(rand.NewSource(seed))
		out := make([]corpus.Record, 0, n)
		for _, g := range dealt {
			rng.Shuffle(len(g), func(a, b int) { g[a], g[b] = g[b], g[a] })
			out = append(out, g...)
		}
		return out, nil
	}
	return nil, fmt.Errorf("seed %d: too few blocks in some length stratum", seed)
}

// chunks cuts recs into consecutive pieces of size n.
func chunks(recs []corpus.Record, n int) [][]corpus.Record {
	var out [][]corpus.Record
	for lo := 0; lo+n <= len(recs); lo += n {
		out = append(out, recs[lo:lo+n])
	}
	return out
}

// csvOf renders records in the corpus interchange format.
func csvOf(recs []corpus.Record) (string, error) {
	var sb strings.Builder
	if err := corpus.WriteCSV(&sb, recs); err != nil {
		return "", err
	}
	return sb.String(), nil
}
