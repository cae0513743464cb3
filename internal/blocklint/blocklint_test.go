package blocklint

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"bhive/internal/corpus"
	"bhive/internal/profiler"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

func defaultAnalyzer(t *testing.T) *Analyzer {
	t.Helper()
	cpu, err := uarch.ByName("haswell")
	if err != nil {
		t.Fatal(err)
	}
	return New(cpu, profiler.DefaultOptions())
}

func hasCode(rep *Report, c Code) bool {
	for _, d := range rep.Diags {
		if d.Code == c {
			return true
		}
	}
	return false
}

func TestAnalyzeHexRejectsNonHex(t *testing.T) {
	rep := defaultAnalyzer(t).AnalyzeHex("zz")
	if rep.Predicted != profiler.StatusCrashed {
		t.Fatalf("got %v, want crashed", rep.Predicted)
	}
	if !hasCode(rep, CodeNoDecode) {
		t.Fatalf("want BL001, got %v", rep.Diags)
	}
}

func TestAnalyzeHexUndecodable(t *testing.T) {
	// mov rax,rcx followed by garbage: the decode error must carry the
	// index and offset of the failing instruction.
	rep := defaultAnalyzer(t).AnalyzeHex("4889c8ff")
	if !hasCode(rep, CodeNoDecode) {
		t.Fatalf("want BL001, got %v", rep.Diags)
	}
	d := rep.Diags[0]
	if d.Inst != 1 || d.Offset < 3 {
		t.Fatalf("diag location inst=%d offset=%d, want inst 1 at offset >= 3", d.Inst, d.Offset)
	}
}

// TestPredictions pins the verdicts for handcrafted pathological blocks.
func TestPredictions(t *testing.T) {
	a := defaultAnalyzer(t)
	tests := []struct {
		name string
		hex  string
		want profiler.Status
		code Code // 0 = no particular diagnostic required
	}{
		{"empty", "", profiler.StatusCrashed, CodeEmpty},
		{"reg-mov", "4889c8", profiler.StatusOK, 0},
		{"push", "50", profiler.StatusOK, 0},
		{"guaranteed-de", "31c9f7f1", profiler.StatusCrashed, CodeDivideError},
		{"line-split", "488b413f", profiler.StatusMisaligned, CodeLineSplit},
		{"noncanonical", "488b81000000ed", profiler.StatusCrashed, CodeBadAddress},
		{"page-budget", "4881c300100000488b03", profiler.StatusCrashed, CodePageBudget},
		// movaps xmm0,[rcx+8]: rcx holds the 16-byte-aligned init
		// pattern, so the aligned vector load raises #GP.
		{"movaps-misaligned", "0f284108", profiler.StatusCrashed, CodeBadAddress},
		// movq rax,xmm0; shl rax,40; mov rbx,[rax]: the vector register's
		// init pattern, shifted, is a non-canonical pointer.
		{"vector-pointer", "66480f7ec048c1e028488b18", profiler.StatusCrashed, CodeBadAddress},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rep := a.AnalyzeHex(tc.hex)
			if rep.Predicted != tc.want {
				t.Fatalf("predicted %v, want %v (diags %v)", rep.Predicted, tc.want, rep.Diags)
			}
			if tc.code != 0 && !hasCode(rep, tc.code) {
				t.Fatalf("want %v among %v", tc.code, rep.Diags)
			}
		})
	}
}

// TestBaselineNoMapping checks the Agner-script baseline: with page
// mapping disabled, any memory access is a guaranteed crash (BL011).
func TestBaselineNoMapping(t *testing.T) {
	cpu, _ := uarch.ByName("haswell")
	a := New(cpu, profiler.BaselineOptions())
	rep := a.AnalyzeHex("488b03") // mov rax,[rbx]
	if rep.Predicted != profiler.StatusCrashed || !hasCode(rep, CodeNoMapping) {
		t.Fatalf("got %v %v, want crashed with BL011", rep.Predicted, rep.Diags)
	}
}

// TestUnsupported checks BL006: AVX2 on Ivy Bridge is statically
// unsupported but fine on Haswell.
func TestUnsupported(t *testing.T) {
	const avx2 = "c5fdfec0" // vpaddd ymm0,ymm0,ymm0
	ivb, _ := uarch.ByName("ivybridge")
	if rep := New(ivb, profiler.DefaultOptions()).AnalyzeHex(avx2); rep.Predicted != profiler.StatusUnsupported || !hasCode(rep, CodeUnsupported) {
		t.Fatalf("ivybridge: got %v %v, want unsupported BL006", rep.Predicted, rep.Diags)
	}
	if rep := defaultAnalyzer(t).AnalyzeHex(avx2); rep.Predicted != profiler.StatusOK {
		t.Fatalf("haswell: got %v %v, want ok", rep.Predicted, rep.Diags)
	}
}

// TestVectorExact checks that vector instructions get the concrete
// interpreter's exact semantics: an aligned load from the aligned init
// pattern runs clean and yields no diagnostic at all.
func TestVectorExact(t *testing.T) {
	rep := defaultAnalyzer(t).AnalyzeHex("0f280f01c8") // movaps xmm1,[rcx]; add rax,rcx
	if rep.Predicted != profiler.StatusOK || len(rep.Diags) != 0 {
		t.Fatalf("got %v %v, want ok with no diagnostics", rep.Predicted, rep.Diags)
	}
	if m := rep.Facts.Mem[0]; !m.Observed || m.Align != 512 || !m.StrideKnown || m.Stride != 0 {
		t.Fatalf("movaps mem fact %+v, want observed, 512-aligned (the init pattern), zero stride", m)
	}
}

func TestFacts(t *testing.T) {
	a := defaultAnalyzer(t)

	// add rax,rbx: rax is loop-carried with a 1-cycle chain.
	rep := a.AnalyzeHex("4801d8")
	if rep.Facts == nil {
		t.Fatal("no facts")
	}
	f := rep.Facts
	if f.DepHeight != 1 {
		t.Errorf("dep height %d, want 1", f.DepHeight)
	}
	found := false
	for _, r := range f.LoopCarried {
		if r == "rax" {
			found = true
		}
	}
	if !found {
		t.Errorf("rax not in loop-carried set %v", f.LoopCarried)
	}
	carried := false
	for _, e := range f.DefUse {
		if e.Resource == "rax" && e.Carried {
			carried = true
		}
	}
	if !carried {
		t.Errorf("no carried rax edge in %v", f.DefUse)
	}

	// imul rax,rax: carried chain at the multiplier's latency.
	rep = a.AnalyzeHex("480fafc0")
	if h := rep.Facts.DepHeight; h < 3 {
		t.Errorf("imul dep height %d, want multiplier latency", h)
	}

	// A generated block whose carried chains peak at exactly 7/2 cycles
	// per iteration: the height rounds halves down, as it did when the
	// ratio was bisected from below.
	rep = a.AnalyzeHex("c4413057c9f30f117b3c4528f94183e30ec57c108fe00000004d39c04d0f42ff4f8984e5080100004d0fafc14889543e40440f1093d0000000")
	if rep.Bounds == nil || rep.Bounds.DepChain != 3.5 {
		t.Fatalf("half-cycle block bounds %+v, want dep chain 3.5", rep.Bounds)
	}
	if h := rep.Facts.DepHeight; h != 3 {
		t.Errorf("half-cycle block dep height %d, want 3 (halves round down)", h)
	}

	// mov rcx,rcx-style independent work: no carried chain. Use xor
	// ecx,ecx (zero idiom, eliminated at rename).
	rep = a.AnalyzeHex("31c9")
	if h := rep.Facts.DepHeight; h != 0 {
		t.Errorf("zero idiom dep height %d, want 0", h)
	}

	// lea rax,[rax+8]: the simulator wires address deps only into load
	// µops, so the sim-congruent model reports no carried chain.
	rep = a.AnalyzeHex("488d4008")
	if h := rep.Facts.DepHeight; h != 0 {
		t.Errorf("lea dep height %d, want 0 under the sim-congruent model", h)
	}

	// mov rax,[rsp+8]: rsp-relative class, observed exact addresses.
	rep = a.AnalyzeHex("488b442408")
	if len(rep.Facts.Mem) != 1 {
		t.Fatalf("mem facts %v", rep.Facts.Mem)
	}
	m := rep.Facts.Mem[0]
	if m.Class != "rsp-relative" || !m.Loads || m.Stores {
		t.Errorf("bad mem fact %+v", m)
	}
	if !m.Observed || m.Pages != 1 || m.Splits {
		t.Errorf("bad observed fields %+v", m)
	}
	if !m.StrideKnown || m.Stride != 0 {
		t.Errorf("constant address should have zero stride: %+v", m)
	}

	// mov rax,[rcx+rdx*8]: indexed class.
	rep = a.AnalyzeHex("488b04d1")
	if rep.Facts.Mem[0].Class != "indexed" {
		t.Errorf("class %q, want indexed", rep.Facts.Mem[0].Class)
	}
}

func TestUnrollFactorsExported(t *testing.T) {
	o := profiler.DefaultOptions()
	lo, hi := o.UnrollFactors(1)
	if lo != 50 || hi != 100 {
		t.Fatalf("n=1: %d/%d", lo, hi)
	}
	lo, hi = o.UnrollFactors(30)
	if lo != 4 || hi != 8 {
		t.Fatalf("n=30: %d/%d", lo, hi)
	}
	o.DerivedThroughput = false
	if _, hi = o.UnrollFactors(5); hi != o.NaiveUnroll {
		t.Fatalf("naive hi %d", hi)
	}
}

// TestAgreementHandcrafted cross-checks the static prediction against the
// simulator-backed profiler for every handcrafted block.
func TestAgreementHandcrafted(t *testing.T) {
	cpu, _ := uarch.ByName("haswell")
	opts := profiler.DefaultOptions()
	a := New(cpu, opts)
	p := profiler.New(cpu, opts)
	blocks := []string{
		"4889c8",                   // mov rax,rcx
		"50",                       // push rax
		"505b",                     // push rax; pop rbx
		"31c9f7f1",                 // xor ecx,ecx; div ecx
		"488b413f",                 // line-splitting load
		"488b81000000ed",           // non-canonical address
		"4881c300100000488b03",     // page-budget blowout
		"488b442408",               // mov rax,[rsp+8]
		"488b04d1",                 // mov rax,[rcx+rdx*8]
		"0f280f01c8",               // movaps xmm1,[rcx]; add rax,rcx
		"4801d8",                   // add rax,rbx
		"480fafc0",                 // imul rax,rax
		"c5fdfec0",                 // vpaddd ymm0,ymm0,ymm0
		"f3480f2ac8",               // cvtsi2ss
		"0f284108",                 // movaps xmm0,[rcx+8]: alignment fault
		"66480f7ec048c1e028488b18", // movq rax,xmm0; shl rax,40; mov rbx,[rax]
	}
	for _, hexStr := range blocks {
		rep := a.AnalyzeHex(hexStr)
		raw, err := x86.DecodeBlock(mustHex(t, hexStr))
		if err != nil {
			t.Fatalf("%s: %v", hexStr, err)
		}
		res := p.Profile(&x86.Block{Insts: raw})
		if !rep.Agrees(res.Status) {
			t.Errorf("%s: static %v vs dynamic %v\n  diags: %v",
				hexStr, rep.Predicted, res.Status, rep.Diags)
		}
	}
}

// TestAgreementCorpus runs the analyzer against the profiler over a
// generated corpus slice and requires zero unexplained disagreements.
func TestAgreementCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep")
	}
	cpu, _ := uarch.ByName("haswell")
	opts := profiler.DefaultOptions()
	a := New(cpu, opts)
	p := profiler.New(cpu, opts)
	recs := corpus.GenerateAll(0.02, 1)
	if len(recs) == 0 {
		t.Fatal("empty corpus")
	}
	rejected := 0
	for _, rec := range recs {
		rep := a.Analyze(rec.Block)
		if rep.Rejected() {
			rejected++
		}
		res := p.Profile(rec.Block)
		if !rep.Agrees(res.Status) {
			hexStr, _ := rec.Block.Hex()
			t.Errorf("%s/%s: static %v vs dynamic %v\n  diags: %v",
				rec.App, hexStr, rep.Predicted, res.Status, rep.Diags)
		}
	}
	t.Logf("%d blocks, %d statically rejected", len(recs), rejected)
}

func TestDiagRendering(t *testing.T) {
	if got := CodeBadAddress.String(); got != "BL007" {
		t.Fatalf("code string %q", got)
	}
	d := Diag{Code: CodeDivideError, Inst: 1, Offset: 2, Msg: "boom"}
	if s := d.String(); !strings.Contains(s, "BL008") || !strings.Contains(s, "inst 1") {
		t.Fatalf("diag string %q", s)
	}
	if CodeLineSplit.Severity() != SevReject || CodeVacuousBounds.Severity() != SevInfo {
		t.Fatal("severity map wrong")
	}
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	var out []byte
	for i := 0; i+1 < len(s); i += 2 {
		hi := hexNib(s[i])
		lo := hexNib(s[i+1])
		if hi < 0 || lo < 0 {
			t.Fatalf("bad hex %q", s)
		}
		out = append(out, byte(hi<<4|lo))
	}
	return out
}

func hexNib(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	}
	return -1
}

// TestBoundsAttached checks that every analyzable report carries the
// static cycle-bound analysis and that BL015 renders/classifies correctly.
func TestBoundsAttached(t *testing.T) {
	rep := defaultAnalyzer(t).AnalyzeHex("480fafc0") // imul rax,rax
	if rep.Bounds == nil {
		t.Fatal("no bounds on an analyzable block")
	}
	if rep.Bounds.Lower <= 0 || rep.Bounds.Lower > rep.Bounds.Upper {
		t.Fatalf("bad bounds %+v", rep.Bounds)
	}
	if rep.Bounds.Vacuous || hasCode(rep, CodeVacuousBounds) {
		t.Fatalf("table-backed block marked vacuous: %v", rep.Diags)
	}

	// Undecodable input carries no bounds.
	if rep := defaultAnalyzer(t).AnalyzeHex("zz"); rep.Bounds != nil {
		t.Fatal("bounds on undecodable input")
	}

	if CodeVacuousBounds.String() != "BL015" {
		t.Fatalf("BL015 renders as %s", CodeVacuousBounds)
	}
	if CodeVacuousBounds.Severity() != SevInfo {
		t.Fatalf("BL015 severity %v, want info", CodeVacuousBounds.Severity())
	}
}

// TestAnalyzerConcurrent shares one analyzer (and so one profiler's
// machine pool) across goroutines, as the harness's workers do, and
// requires every report to match the sequential one.
func TestAnalyzerConcurrent(t *testing.T) {
	a := defaultAnalyzer(t)
	blocks := []string{"4889c8", "31c9f7f1", "488b413f", "0f284108", "4881c300100000488b03", "488b442408"}
	want := make([]string, len(blocks))
	for i, h := range blocks {
		want[i] = reportJSON(t, a.AnalyzeHex(h))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range blocks {
				i := (k + g) % len(blocks)
				if got := reportJSON(t, a.AnalyzeHex(blocks[i])); got != want[i] {
					t.Errorf("%s: concurrent report %s, sequential %s", blocks[i], got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

func reportJSON(t *testing.T, rep *Report) string {
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Error(err)
	}
	return string(raw)
}
