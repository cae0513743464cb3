package bound

import (
	"fmt"
	"sync"

	"bhive/internal/memo"
	"bhive/internal/uarch"
)

// scratch is the working memory of one bound analysis. Every slice is
// reused across calls through scratchPool, so a warm analysis allocates
// only its result.
type scratch struct {
	pis    []*memo.PreparedInst
	chains []instChain
	edges  []depEdge
	dist   []int64 // Bellman–Ford longest-path distances, one per node
	pred   []int32 // per node: index of the edge that last relaxed it
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch takes a scratch from the pool; the caller defers release.
func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// release returns s to the pool without keeping any block's memo entries
// alive through it.
func (s *scratch) release() {
	clear(s.pis)
	clear(s.chains)
	scratchPool.Put(s)
}

// grow returns s[:n], reallocating when the capacity is short. The
// returned contents are unspecified; callers overwrite them.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

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

// buildChains derives the dependence-model summaries for a block into
// chains, reusing its capacity.
func buildChains(chains []instChain, pis []*memo.PreparedInst) []instChain {
	chains = grow(chains, len(pis))
	for i, pi := range pis {
		c := &chains[i]
		*c = instChain{addr: pi.Addr, data: pi.Data, writes: pi.Writes}
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
// iteration lag, appended to edges[:0].
func carriedEdges(edges []depEdge, chains []instChain) []depEdge {
	n := len(chains)
	var writer [numRegs]int32 // global node id (copy*n + inst), -1 = no producer
	for i := range writer {
		writer[i] = -1
	}
	edges = edges[:0]
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

// maxCycleRatio computes the maximum cycles-per-iteration over all
// dependence cycles, max over cycles of Σdelta / Σlag, exactly: the result
// is the reduced fraction p/q (0/1 when no cycle carries latency).
// Intra-iteration edges run strictly forward, so every cycle carries
// lag ≥ 1 and the ratio is well defined.
//
// The search is a sequence of improving cycles. With the current ratio
// p/q, one longest-path Bellman–Ford over the integer weights
// q·delta − p·lag either converges, which certifies that no cycle beats
// p/q, or still relaxes in pass n, which exposes a positive cycle in the
// predecessor graph. That cycle's Σdelta/Σlag strictly exceeds p/q and
// becomes the next ratio. There are finitely many simple cycles, so the
// search ends, usually after two or three rounds.
func (s *scratch) maxCycleRatio(n int, edges []depEdge) (p, q int64) {
	p, q = 0, 1
	if len(edges) == 0 {
		return p, q // acyclic: no loop-carried dependence
	}
	s.dist, s.pred = grow(s.dist, n), grow(s.pred, n)
	for {
		v := s.positiveCycle(edges, p, q)
		if v < 0 {
			return p, q
		}
		var sumDelta, sumLag int64
		for x := v; ; {
			e := &edges[s.pred[x]]
			sumDelta += e.delta
			sumLag += int64(e.lag)
			if x = e.from; x == v {
				break
			}
		}
		g := gcd(sumDelta, sumLag)
		np, nq := sumDelta/g, sumLag/g
		if np*q <= p*nq {
			panic(fmt.Sprintf("bound: cycle ratio %d/%d does not improve on %d/%d", np, nq, p, q))
		}
		p, q = np, nq
	}
}

// positiveCycle runs Bellman–Ford for the longest paths from a virtual
// source joined to every node, over the weights q·delta − p·lag, and
// returns a node on a positive-weight cycle of the predecessor graph, or
// -1 when the distances converge (no cycle has positive weight). Over n
// real nodes convergence takes at most n passes, so a relaxation in pass
// n (counting from 0) proves a positive cycle. A node relaxed in pass k
// has a predecessor last relaxed in pass k-1 or later, so walking n steps
// back from a node relaxed in pass n visits n+1 nodes that all have
// predecessors: some node repeats, and the walk ends on the cycle.
// Predecessor-graph cycles always have positive weight under the
// weights that formed them.
func (s *scratch) positiveCycle(edges []depEdge, p, q int64) int {
	dist, pred := s.dist, s.pred
	n := len(dist)
	clear(dist)
	for pass := 0; ; pass++ {
		last := -1
		for i := range edges {
			e := &edges[i]
			if d := dist[e.from] + q*e.delta - p*int64(e.lag); d > dist[e.to] {
				dist[e.to], pred[e.to] = d, int32(i)
				last = e.to
			}
		}
		if last < 0 {
			return -1
		}
		if pass == n {
			for k := 0; k < n; k++ {
				last = edges[pred[last]].from
			}
			return last
		}
	}
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
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
// (cycles per iteration, the maximum dependence-cycle ratio p/q). It is
// the shared computation behind blocklint's dependence facts and the
// dependence term of the static lower bound.
func (s *scratch) chain(pis []*memo.PreparedInst) (crit int, p, q int64) {
	s.chains = buildChains(s.chains, pis)
	s.edges = carriedEdges(s.edges, s.chains)
	p, q = s.maxCycleRatio(len(s.chains), s.edges)
	return int(critPath(s.chains)), p, q
}
