package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"bhive/internal/harness"
	"bhive/internal/server"
)

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 9, ok: false},
		{n: 20, want: 50, ok: true},
		{n: 99, want: 50, ok: true},   // p90 has rank 90: only 9 beyond
		{n: 100, want: 90, ok: true},  // rank 90: exactly 10 beyond
		{n: 999, want: 90, ok: true},  // p99 has rank 990: only 9 beyond
		{n: 1000, want: 99, ok: true}, // rank 990: exactly 10 beyond
	} {
		got, ok := highestPercentile(tc.n, 50, 90, 99)
		if ok != tc.ok || got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 .. 1, unsorted on purpose
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimesNested(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},     // overlaps a: 10..60 covered once
		{Name: "leaf", Start: 15, End: 20, Parent: 1},  // under a
		{Name: "late", Start: 90, End: 120, Parent: 0}, // clipped to the root's end
		{Name: "other", Start: 0, End: 7, Parent: -1, Run: 2},
	}
	want := map[string]time.Duration{"root": 40, "a": 25, "b": 30, "leaf": 5, "late": 30, "other": 7}
	got := SelfTimes(spans)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *Tracer
	if id := tr.Begin("x", -1, 0); id != -1 {
		t.Fatalf("nil tracer Begin = %d, want -1", id)
	}
	tr.End(-1)
	on := newTracer()
	root := on.Begin("root", -1, 3)
	child := on.Begin("child", root, 3)
	on.End(child)
	on.End(root)
	s := on.Spans()
	if len(s) != 2 || s[1].Parent != root || s[0].Run != 3 || s[0].End < s[1].End {
		t.Fatalf("spans = %+v", s)
	}
}

// TestTracerAdd checks that spans from a trace process land on the
// parent's timeline with their parents renumbered, so self times over the
// merged spans equal those of each process's own.
func TestTracerAdd(t *testing.T) {
	parent := newTracer()
	parent.Begin("before", -1, 0)
	child := []Span{
		{Name: "evaluate", Start: 0, End: 100, Parent: -1, Run: 4},
		{Name: "profiler", Start: 10, End: 70, Parent: 0, Run: 4},
	}
	parent.Add(child, parent.epoch.UnixNano()+1000)
	s := parent.Spans()
	if len(s) != 3 || s[1].Parent != -1 || s[2].Parent != 1 || s[2].Start != 1010 || s[2].End != 1070 || s[2].Run != 4 {
		t.Fatalf("spans = %+v", s)
	}
	self := SelfTimes(s)
	if self["evaluate"] != 40 || self["profiler"] != 60 {
		t.Fatalf("self = %v, want evaluate 40, profiler 60", self)
	}
}

func TestStealPerCPU(t *testing.T) {
	stat := "cpu  100 0 50 900 3 0 2 40 0 0\n" +
		"cpu0 50 0 25 450 1 0 1 10 0 0\n" +
		"cpu1 50 0 25 450 2 0 1 30 0 0\n" +
		"intr 12345\nctxt 678\n"
	if got, want := stealPerCPU(stat), int64(40*10_000_000/2); got != want {
		t.Fatalf("stealPerCPU = %d, want %d (40 ticks over 2 CPUs)", got, want)
	}
	if got := stealPerCPU("intr 1\n"); got != 0 {
		t.Fatalf("stealPerCPU without cpu lines = %d, want 0", got)
	}
}

// TestFailedFracCountsNon2xxAndMismatch pins what counts as a failed
// serve-cached job: a non-2xx response seen by the client, and a result
// whose table disagrees with the benchmark's own evaluation.
func TestFailedFracCountsNon2xxAndMismatch(t *testing.T) {
	want := [][]string{{"haswell", "IACA", "0.1000"}}
	result := func(rows [][]string) json.RawMessage {
		raw, err := json.Marshal(server.Result{Experiments: []*harness.RunResult{{ID: "table5",
			Tables: []*harness.Table{{ID: "table5", Rows: rows}}}}})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	// A non-2xx response, counted by the client as it happens.
	ts := httptest.NewServer(http.NotFoundHandler())
	defer ts.Close()
	c := &client{base: ts.URL, http: ts.Client()}
	var refused serveJob
	if code, _, err := c.do(&refused, http.MethodGet, "/v1/jobs/x/result", nil, -1, 0); err != nil || code != http.StatusNotFound {
		t.Fatalf("do = %d, %v", code, err)
	}
	if refused.Non2xx != 1 {
		t.Fatalf("Non2xx = %d after a 404, want 1", refused.Non2xx)
	}
	refused.Result = result(want) // even with a matching table

	jobs := []serveJob{
		{Result: result(want)},
		refused,
		{Result: result([][]string{{"haswell", "IACA", "0.1001"}})},
	}
	var tl tally
	for _, j := range jobs {
		tl.add(serveJobOK(j, want))
	}
	if tl.attempted != 3 || tl.failed != 2 || tl.frac() != 2.0/3 {
		t.Fatalf("tally = %+v (frac %v), want 2 of 3 failed", tl, tl.frac())
	}
}

func TestHandlerWrapperCountsNon2xx(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/evaluate", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}")) // implicit 200
	})
	hs := &handlerStats{}
	ts := httptest.NewServer(hs.wrap(mux))
	defer ts.Close()
	c := &client{base: ts.URL, http: ts.Client()}
	var j serveJob
	c.do(&j, http.MethodPost, "/v1/evaluate", []byte("{}"), -1, 0)
	c.do(&j, http.MethodGet, "/v1/jobs/a/result", nil, -1, 0)
	evaluate, result, non2xx := hs.snapshot()
	if len(evaluate) != 1 || len(result) != 1 || non2xx != 1 || j.Non2xx != 1 {
		t.Fatalf("evaluate=%d result=%d non2xx=%d client=%d", len(evaluate), len(result), non2xx, j.Non2xx)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric lists the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit, Why string }
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []named, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, b.Workloads[i].Name, w.name)
		}
	}
}
