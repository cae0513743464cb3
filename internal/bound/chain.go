package bound

import (
	"bhive/internal/memo"
	"bhive/internal/uarch"
)

// The dependence model mirrors the reference pipeline's dependence wiring
// (internal/pipeline) exactly, because the bound is a claim about that
// simulator:
//
//   - register-use sets come from memo.Prepared — the same address/data/
//     write split the simulator's items carry;
//   - an instruction's register writes become ready when its last compute
//     µop completes (or its load µop, for pure loads); store µops never
//     produce register values;
//   - data reads feed the compute µops directly (they bypass the load), so
//     a data-carried edge costs only the compute-chain latency; address
//     reads feed the load µop first, so an address-carried edge through a
//     loading instruction additionally pays the load-to-use latency;
//   - instructions without a load µop ignore their address reads entirely
//     (the simulator wires addrDeps only into load and store-address µops,
//     so e.g. an LEA's compute µop does not wait for its address
//     registers);
//   - zero idioms break dependences (their outputs become free), and
//     eliminated moves alias their destination to the source's producer at
//     zero latency;
//   - instructions with neither a compute nor a load µop (push, nop, ...)
//     produce their writes "for free" — the simulator records no producer.
//
// chainKind classifies an instruction for that model.
type chainKind uint8

const (
	chainNormal chainKind = iota
	chainZero             // zero idiom: breaks every chain through its writes
	chainElim             // eliminated move: aliases writes to the source producer
	chainFree             // no producing µop: writes are ready immediately
)

// instChain is the per-instruction dependence-model summary.
type instChain struct {
	kind       chainKind
	computeSum int64 // chained latency of the compute µops
	loadLat    int64 // load µop latency (0 when hasLoad is false)
	hasLoad    bool
	hasCompute bool
	addr, data []uint8 // pipeline register ids (memo.Facts)
	writes     []uint8
}

// buildChains derives the dependence-model summaries for a block.
func buildChains(pis []*memo.PreparedInst) []instChain {
	chains := make([]instChain, len(pis))
	for i, pi := range pis {
		c := &chains[i]
		c.addr, c.data, c.writes = pi.Addr, pi.Data, pi.Writes
		d := &pi.Desc
		switch {
		case d.ZeroIdiom:
			c.kind = chainZero
			continue
		case d.EliminatedMove:
			c.kind = chainElim
			continue
		}
		for _, u := range d.Uops {
			switch u.Class {
			case uarch.ClassLoad:
				c.hasLoad = true
				c.loadLat = int64(u.Lat)
			case uarch.ClassStoreAddr, uarch.ClassStoreData:
				// Store µops never feed register writes.
			default:
				c.hasCompute = true
				c.computeSum += int64(u.Lat)
			}
		}
		if !c.hasCompute && !c.hasLoad {
			c.kind = chainFree
		}
	}
	return chains
}

// depEdge is one quotient-graph dependence edge: the consumer's producer
// completes no earlier than delta cycles after the producer of `from`
// completed, `lag` iterations earlier (0 = same iteration).
type depEdge struct {
	from, to int
	delta    int64
	lag      int
}

// numRegs matches the pipeline register file (0-15 GPR, 16-31 vector, 32
// flags).
const numRegs = 33

// aliasCopies is how many consecutive iteration copies the writer map is
// advanced before edges are extracted. Eliminated-move aliases can forward
// a producer across iteration boundaries; by the last copy every alias
// chain of practical length has stabilized, and a chain that has not
// merely loses an edge — weakening, never unsounding, the lower bound.
const aliasCopies = 4

// carriedEdges extracts the steady-state dependence edges of one
// iteration: the writer map is advanced over aliasCopies copies of the
// block, and the edges feeding the final copy are reported with their
// iteration lag.
func carriedEdges(chains []instChain) []depEdge {
	n := len(chains)
	var writer [numRegs]int32 // global node id (copy*n + inst), -1 = no producer
	for i := range writer {
		writer[i] = -1
	}
	var edges []depEdge
	for k := 0; k < aliasCopies; k++ {
		last := k == aliasCopies-1
		for i := 0; i < n; i++ {
			c := &chains[i]
			switch c.kind {
			case chainZero, chainFree:
				for _, w := range c.writes {
					writer[w] = -1
				}
				continue
			case chainElim:
				src := int32(-1)
				if len(c.data) > 0 {
					src = writer[c.data[0]]
				}
				for _, w := range c.writes {
					writer[w] = src
				}
				continue
			}
			if last {
				if c.hasCompute {
					for _, r := range c.data {
						if p := writer[r]; p >= 0 {
							edges = append(edges, depEdge{
								from: int(p) % n, to: i,
								delta: c.computeSum,
								lag:   aliasCopies - 1 - int(p)/n,
							})
						}
					}
				}
				if c.hasLoad {
					for _, r := range c.addr {
						if p := writer[r]; p >= 0 {
							edges = append(edges, depEdge{
								from: int(p) % n, to: i,
								delta: c.loadLat + c.computeSum,
								lag:   aliasCopies - 1 - int(p)/n,
							})
						}
					}
				}
			}
			id := int32(k*n + i)
			for _, w := range c.writes {
				writer[w] = id
			}
		}
	}
	return edges
}

// positiveCycle reports whether the edge-weighted quotient graph contains
// a cycle of positive total weight under w(e) = delta - lambda*lag
// (Bellman-Ford from a virtual source connected to every node). dist is
// scratch space of one entry per node; its contents are overwritten.
func positiveCycle(dist []float64, edges []depEdge, lambda float64) bool {
	clear(dist)
	n := len(dist)
	for pass := 0; pass <= n; pass++ {
		changed := false
		for _, e := range edges {
			w := float64(e.delta) - lambda*float64(e.lag)
			if d := dist[e.from] + w; d > dist[e.to]+1e-9 {
				dist[e.to] = d
				changed = true
			}
		}
		if !changed {
			return false
		}
	}
	return true
}

// maxCycleRatio computes the maximum cycles-per-iteration over all
// dependence cycles: max over cycles of Σdelta / Σlag. Intra-iteration
// edges run strictly forward, so every cycle carries lag ≥ 1 and the
// ratio is well defined. The value is found by bisection on the positive-
// cycle test; the returned value is from the feasible side, so it never
// exceeds the true ratio (the lower bound stays sound).
func maxCycleRatio(n int, edges []depEdge) float64 {
	if len(edges) == 0 {
		return 0 // acyclic: no loop-carried dependence
	}
	dist := make([]float64, n) // shared by every positiveCycle probe
	if !positiveCycle(dist, edges, 0) {
		return 0
	}
	// Any simple cycle visits each instruction at most once, so its total
	// delta is at most the sum of the largest per-instruction deltas.
	var hi float64
	perInst := make([]int64, n)
	for _, e := range edges {
		if e.delta > perInst[e.to] {
			perInst[e.to] = e.delta
		}
	}
	for _, d := range perInst {
		hi += float64(d)
	}
	hi++
	lo := 0.0
	for iter := 0; iter < 50 && hi-lo > 1e-9*(1+hi); iter++ {
		mid := (lo + hi) / 2
		if positiveCycle(dist, edges, mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// critPath computes the latency-weighted critical path of a single
// iteration from clean state: the completion time of the latest producer
// when every register starts ready.
func critPath(chains []instChain) int64 {
	var t [numRegs]int64
	var ready [numRegs]bool
	var crit int64
	// fin[i] tracked implicitly through the register times.
	for i := range chains {
		c := &chains[i]
		switch c.kind {
		case chainZero, chainFree:
			for _, w := range c.writes {
				t[w], ready[w] = 0, false
			}
			continue
		case chainElim:
			var v int64
			ok := false
			if len(c.data) > 0 && ready[c.data[0]] {
				v, ok = t[c.data[0]], true
			}
			for _, w := range c.writes {
				t[w], ready[w] = v, ok
			}
			if v > crit {
				crit = v
			}
			continue
		}
		var fin int64
		if c.hasCompute || c.hasLoad {
			var dataBase, addrBase int64
			for _, r := range c.data {
				if ready[r] && t[r] > dataBase {
					dataBase = t[r]
				}
			}
			for _, r := range c.addr {
				if ready[r] && t[r] > addrBase {
					addrBase = t[r]
				}
			}
			switch {
			case c.hasCompute && c.hasLoad:
				loadDone := addrBase + c.loadLat
				if dataBase > loadDone {
					loadDone = dataBase
				}
				fin = loadDone + c.computeSum
			case c.hasCompute:
				fin = dataBase + c.computeSum
			default: // pure load
				fin = addrBase + c.loadLat
			}
		}
		for _, w := range c.writes {
			t[w], ready[w] = fin, true
		}
		if fin > crit {
			crit = fin
		}
	}
	return crit
}

// chain computes the dependence-chain statistics of a block under the
// simulator-congruent model: the single-iteration critical path (cycles
// from clean state) and the steady-state loop-carried dependence height
// (cycles per iteration, the maximum dependence-cycle ratio). It is the
// shared computation behind blocklint's dependence facts and the
// dependence term of the static lower bound.
func chain(pis []*memo.PreparedInst) (crit int, height float64) {
	chains := buildChains(pis)
	edges := carriedEdges(chains)
	return int(critPath(chains)), maxCycleRatio(len(chains), edges)
}
