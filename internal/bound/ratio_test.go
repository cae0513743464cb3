package bound

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bhive/internal/corpus"
	"bhive/internal/memo"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// refPositiveCycle is the float feasibility probe the exact solver
// replaced: whether some cycle has positive weight under
// delta − lambda·lag, by Bellman–Ford with a 1e-9 slack.
func refPositiveCycle(dist []float64, edges []depEdge, lambda float64) bool {
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

// refMaxCycleRatio is the bisection the exact solver replaced, kept as the
// reference: it returns from the feasible side, just below a positive
// true ratio.
func refMaxCycleRatio(n int, edges []depEdge) float64 {
	if len(edges) == 0 {
		return 0
	}
	dist := make([]float64, n)
	if !refPositiveCycle(dist, edges, 0) {
		return 0
	}
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
		if refPositiveCycle(dist, edges, mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// refVerdict is the verdict rule that went with the bisection: plain >
// tests in DepChain, Port, FrontEnd order.
func refVerdict(dep, port, fe float64) Verdict {
	lower, v := dep, VerdictDepChain
	if port > lower {
		lower, v = port, VerdictPort
	}
	if fe > lower {
		v = VerdictFrontEnd
	}
	return v
}

// TestExactRatioMatchesBisection is the differential oracle over a
// generated corpus on every µarch: the exact ratio sits at or above the
// bisection within its tolerance, and the verdicts (both front-end
// models) and blocklint's rounded dependence height are unchanged.
func TestExactRatioMatchesBisection(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-wide differential runs in the full suite")
	}
	var maxRelGap float64
	checked, halves := 0, 0
	var s scratch
	for _, cpu := range uarch.Extended() {
		for _, r := range corpus.GenerateAll(0.01, 7) {
			pis, ok := prepared(cpu, r.Block)
			if !ok {
				continue
			}
			chains := buildChains(nil, pis)
			ref := refMaxCycleRatio(len(chains), carriedEdges(nil, chains))
			for _, modeled := range []bool{false, true} {
				bs := s.fromPrepared(cpu, pis)
				if modeled {
					modeledFrontEnd(cpu, bs, pis)
				}
				hexStr, _ := r.Block.Hex()
				exact := bs.DepChain
				if exact < ref || exact-ref > 2e-9*(1+exact) {
					t.Fatalf("%s/%s: exact %v vs bisection %v", cpu.Name, hexStr, exact, ref)
				}
				maxRelGap = math.Max(maxRelGap, (exact-ref)/(1+exact))
				if want := refVerdict(ref, bs.PortPressure, bs.FrontEnd); bs.Verdict != want {
					t.Fatalf("%s/%s modeled=%v: verdict %s, bisection gave %s (dep %v port %v fe %v)",
						cpu.Name, hexStr, modeled, bs.Verdict, want, exact, bs.PortPressure, bs.FrontEnd)
				}
				if got, want := bs.DepHeight(), int(ref+0.5); got != want {
					t.Fatalf("%s/%s: dep height %d, bisection gave %d", cpu.Name, hexStr, got, want)
				}
				if !modeled && bs.depDen == 2 {
					halves++
				}
			}
			checked++
		}
	}
	if checked < 10000 {
		t.Fatalf("only %d (block, µarch) pairs checked", checked)
	}
	t.Logf("%d pairs, %d with ratio k+1/2, max (exact-bisection)/(1+exact) %.3g", checked, halves, maxRelGap)
}

// prepared resolves a block's memo entries, reporting false when some
// instruction cannot be described on cpu.
func prepared(cpu *uarch.CPU, b *x86.Block) ([]*memo.PreparedInst, bool) {
	pis := make([]*memo.PreparedInst, len(b.Insts))
	for i := range b.Insts {
		pis[i] = memo.Prepared(cpu, &b.Insts[i])
		if pis[i].DescErr != nil {
			return nil, false
		}
	}
	return pis, true
}

// TestMaxCycleRatioExact pins hand-checkable graphs, including a cycle
// whose ratio is not an integer and a dominated cycle.
func TestMaxCycleRatioExact(t *testing.T) {
	cases := []struct {
		n     int
		edges []depEdge
		p, q  int64
	}{
		{1, nil, 0, 1},
		{2, []depEdge{{0, 1, 5, 0}}, 0, 1}, // acyclic
		{1, []depEdge{{0, 0, 3, 1}}, 3, 1}, // self loop
		{2, []depEdge{{0, 1, 3, 0}, {1, 0, 4, 2}}, 7, 2},
		{3, []depEdge{{0, 1, 1, 0}, {1, 0, 1, 1}, {1, 2, 9, 0}, {2, 1, 0, 3}}, 3, 1},
		{2, []depEdge{{0, 0, 0, 1}, {1, 1, 0, 2}}, 0, 1}, // zero-latency cycles
	}
	var s scratch
	for _, c := range cases {
		if p, q := s.maxCycleRatio(c.n, c.edges); p != c.p || q != c.q {
			t.Errorf("%v: got %d/%d, want %d/%d", c.edges, p, q, c.p, c.q)
		}
	}
}

// TestDepHeightRounding pins the round-half-down rule of DepHeight.
func TestDepHeightRounding(t *testing.T) {
	for _, c := range []struct {
		p, q int64
		want int
	}{{0, 1, 0}, {1, 2, 0}, {1, 3, 0}, {2, 3, 1}, {1, 1, 1}, {3, 2, 1}, {5, 3, 2}, {5, 2, 2}, {7, 2, 3}, {11, 4, 3}} {
		b := &Bounds{depNum: c.p, depDen: c.q}
		if got := b.DepHeight(); got != c.want {
			t.Errorf("%d/%d: got %d, want %d", c.p, c.q, got, c.want)
		}
	}
}

// bruteMaxRatio enumerates every simple cycle of the quotient graph (each
// cycle once, from its smallest node, with every choice among parallel
// edges) and returns the largest Σdelta/Σlag as a fraction, comparing in
// integers.
func bruteMaxRatio(n int, edges []depEdge) (bp, bq int64) {
	bp, bq = 0, 1
	onPath := make([]bool, n)
	var walk func(start, v int, sd, sl int64)
	walk = func(start, v int, sd, sl int64) {
		for _, e := range edges {
			if e.from != v || e.to < start {
				continue
			}
			d, l := sd+e.delta, sl+int64(e.lag)
			if e.to == start {
				if d*bq > bp*l {
					bp, bq = d, l
				}
				continue
			}
			if onPath[e.to] {
				continue
			}
			onPath[e.to] = true
			walk(start, e.to, d, l)
			onPath[e.to] = false
		}
	}
	for s := 0; s < n; s++ {
		onPath[s] = true
		walk(s, s, 0, 0)
		onPath[s] = false
	}
	return bp, bq
}

// quotientGraph decodes fuzz input into a quotient graph of up to 8 nodes:
// each 3-byte record is one edge with lag 0–3 and delta 0–40, and lag-0
// edges are turned to run forward, as every intra-iteration edge does.
func quotientGraph(data []byte) (int, []depEdge) {
	if len(data) == 0 {
		return 0, nil
	}
	n := 1 + int(data[0]%8)
	var edges []depEdge
	for rec := data[1:]; len(rec) >= 3 && len(edges) < 24; rec = rec[3:] {
		from, to := int(rec[0]%uint8(n)), int(rec[1]%uint8(n))
		lag := int(rec[2] & 3)
		delta := int64(rec[2]>>2) % 41
		if lag == 0 {
			if from == to {
				continue
			}
			if from > to {
				from, to = to, from
			}
		}
		edges = append(edges, depEdge{from: from, to: to, delta: delta, lag: lag})
	}
	return n, edges
}

// FuzzMaxCycleRatio checks the exact solver against brute-force cycle
// enumeration on random quotient graphs.
func FuzzMaxCycleRatio(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0x0c, 1, 0, 0x12})
	f.Add([]byte{7, 0, 1, 0xfc, 1, 2, 0x41, 2, 0, 0x13, 3, 3, 0x22, 1, 3, 0x50, 3, 1, 0x0b})
	seed := make([]byte, 1+3*24)
	for i := range seed {
		seed[i] = byte(i*37 + 11)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		n, edges := quotientGraph(data)
		if n == 0 {
			return
		}
		var s scratch
		p, q := s.maxCycleRatio(n, edges)
		bp, bq := bruteMaxRatio(n, edges)
		if p*bq != bp*q || q < 1 || gcd(p, q) != 1 {
			t.Fatalf("n=%d %v: got %d/%d, brute force %d/%d", n, edges, p, q, bp, bq)
		}
	})
}

// TestMaxCycleRatioRandom runs the brute-force comparison over a fixed
// stream of random graphs, so the plain test suite covers it too.
func TestMaxCycleRatioRandom(t *testing.T) {
	var s scratch
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 1+3*24)
	for iter := 0; iter < 3000; iter++ {
		rng.Read(data)
		n, edges := quotientGraph(data[:1+3*(iter%25)])
		p, q := s.maxCycleRatio(n, edges)
		if bp, bq := bruteMaxRatio(n, edges); p*bq != bp*q {
			t.Fatalf("n=%d %v: got %d/%d, brute force %d/%d", n, edges, p, q, bp, bq)
		}
	}
}

// crcBlockText is the gzip CRC case-study block (harness.CRCBlockText).
const crcBlockText = `add $1, %rdi
mov %edx, %eax
shr $8, %rdx
xorb -1(%rdi), %al
movzbl %al, %eax
xor 0x4110a(, %rax, 8), %rdx
cmp %rcx, %rdi`

// TestAnalyzeAllocs pins the pooled scratch: a warm analysis allocates
// only its result and the scratch it may have to grow.
func TestAnalyzeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	b, err := x86.ParseBlock(crcBlockText, x86.SyntaxATT)
	if err != nil {
		t.Fatal(err)
	}
	cpu := uarch.Haswell()
	if _, err := Analyze(cpu, b); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := Analyze(cpu, b); err != nil {
			panic(fmt.Sprint(err))
		}
	})
	if allocs > 2 {
		t.Fatalf("Analyze allocates %.1f times per call, want <= 2", allocs)
	}
}
