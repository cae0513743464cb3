package profiler

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bhive/internal/profcache"
	"bhive/internal/uarch"
)

func TestMetricsCountsAndHistogram(t *testing.T) {
	pc, err := profcache.Open(filepath.Join(t.TempDir(), "c.json"))
	if err != nil {
		t.Fatal(err)
	}
	p := New(uarch.Haswell(), DefaultOptions())
	p.Cache = pc
	p.Metrics = new(Metrics)

	ok := block(t, "add rax, rbx")
	crash := block(t, "mov rax, qword ptr [0]")
	p.Profile(ok)
	p.Profile(crash)
	p.Profile(ok) // served from cache

	s := p.Metrics.Snapshot()
	if s.Profiled != 2 || s.CacheHits != 1 {
		t.Fatalf("profiled=%d hits=%d, want 2/1", s.Profiled, s.CacheHits)
	}
	if s.Total() != 3 {
		t.Fatalf("total %d", s.Total())
	}
	if got := s.HitRate(); got < 0.3 || got > 0.4 {
		t.Fatalf("hit rate %v", got)
	}
	if s.ByStatus[StatusOK] != 2 || s.ByStatus[StatusCrashed] != 1 {
		t.Fatalf("status histogram %v", s.ByStatus)
	}
	if h := s.RejectHistogram(); !strings.Contains(h, "crashed=1") {
		t.Fatalf("reject histogram %q", h)
	}

	// Deltas since a snapshot isolate one shard's worth of work.
	p.Profile(crash) // cache hit, still a rejection
	d := p.Metrics.Snapshot().Sub(s)
	if d.Total() != 1 || d.CacheHits != 1 || d.ByStatus[StatusCrashed] != 1 {
		t.Fatalf("delta %+v", d)
	}
}

func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics
	m.record(StatusOK, false) // must not panic
	m.RecordCrosscheckMismatch()
	s := m.Snapshot()
	if s.Total() != 0 || s.HitRate() != 0 {
		t.Fatalf("nil metrics snapshot %+v", s)
	}
	if s.RejectHistogram() != "none" {
		t.Fatalf("clean histogram %q", s.RejectHistogram())
	}
}

func TestMetricsCrosscheck(t *testing.T) {
	m := new(Metrics)
	m.record(StatusOK, false)
	m.record(StatusMisaligned, false)
	m.RecordCrosscheckMismatch()

	s := m.Snapshot()
	if s.CrosscheckMismatch != 1 {
		t.Fatalf("mismatch=%d, want 1", s.CrosscheckMismatch)
	}
	// A mismatch annotates a block already counted; it adds no outcome.
	if s.Total() != 2 {
		t.Fatalf("total %d, want 2", s.Total())
	}
	h := s.RejectHistogram()
	for _, want := range []string{"misaligned=1", "cross-mismatch=1"} {
		if !strings.Contains(h, want) {
			t.Fatalf("reject histogram %q missing %q", h, want)
		}
	}

	// Deltas preserve the counter.
	m.RecordCrosscheckMismatch()
	d := m.Snapshot().Sub(s)
	if d.CrosscheckMismatch != 1 || d.Total() != 0 {
		t.Fatalf("delta %+v", d)
	}

	// A snapshot with only mismatches still renders them.
	var only Metrics
	only.RecordCrosscheckMismatch()
	if h := only.Snapshot().RejectHistogram(); h != "cross-mismatch=1" {
		t.Fatalf("mismatch-only histogram %q", h)
	}
}

func TestMetricsThroughput(t *testing.T) {
	var nilM *Metrics
	nilM.AddPlanned(10) // must not panic
	if _, ok := nilM.Throughput(); ok {
		t.Fatal("nil metrics reported a throughput")
	}

	m := new(Metrics)
	if _, ok := m.Throughput(); ok {
		t.Fatal("throughput available before any outcome")
	}
	m.AddPlanned(100)
	if _, ok := m.Throughput(); ok {
		t.Fatal("planned work alone must not start the clock")
	}
	for i := 0; i < 4; i++ {
		m.record(StatusOK, i%2 == 0)
	}
	r, ok := m.Throughput()
	if !ok || r.BlocksPerSec <= 0 {
		t.Fatalf("throughput after 4 outcomes: %+v ok=%v", r, ok)
	}
	if r.Eta <= 0 {
		t.Fatalf("96 planned blocks remain but eta=%v", r.Eta)
	}

	// With the plan exhausted (or never registered) the ETA drops to zero
	// while the rate survives.
	done := new(Metrics)
	done.record(StatusOK, false)
	r, ok = done.Throughput()
	if !ok || r.BlocksPerSec <= 0 || r.Eta != 0 {
		t.Fatalf("unplanned run: %+v ok=%v", r, ok)
	}
}

// TestMetricsWarmResumeETA is the regression test for the optimistic-ETA
// bug: a warm-cache resume replays thousands of cache hits in
// milliseconds, and an ETA derived from the overall rate then promises
// the remaining *measured* work at cache speed. The ETA must instead
// track the measured-only rate once any block has actually been measured.
func TestMetricsWarmResumeETA(t *testing.T) {
	base := time.Unix(1000, 0)
	now := base
	timeNow = func() time.Time { return now }
	defer func() { timeNow = time.Now }()

	m := new(Metrics)
	m.AddPlanned(1000)

	// 500 cache hits land in 100ms — a warm resume replaying old work.
	for i := 0; i < 500; i++ {
		m.record(StatusOK, true)
	}
	now = base.Add(100 * time.Millisecond)

	// One cold block takes a full second to measure.
	m.record(StatusOK, false)
	now = base.Add(1100 * time.Millisecond)

	r, ok := m.Throughput()
	if !ok {
		t.Fatal("no throughput after 501 outcomes")
	}
	// Overall rate is hit-dominated (~455 blocks/s) — fine for display.
	if r.BlocksPerSec < 100 {
		t.Fatalf("overall rate %v, want hit-dominated (>100/s)", r.BlocksPerSec)
	}
	// Measured rate is 1 block/s: that is what the remaining 499 blocks
	// will cost if they miss. The old ETA (remaining/overall) would have
	// been ~1.1s; the fixed ETA must be ~499s.
	if r.MeasuredPerSec <= 0.5 || r.MeasuredPerSec > 1.5 {
		t.Fatalf("measured rate %v, want ~1/s", r.MeasuredPerSec)
	}
	if r.Eta < 300*time.Second {
		t.Fatalf("eta %v still optimistic: want ~499s from the measured rate", r.Eta)
	}

	// A fully warm run (no measurements at all) falls back to the overall
	// rate — there the hits are the workload.
	warm := new(Metrics)
	warm.AddPlanned(100)
	now = base
	for i := 0; i < 50; i++ {
		warm.record(StatusOK, true)
	}
	now = base.Add(time.Second)
	r, ok = warm.Throughput()
	if !ok || r.MeasuredPerSec != 0 {
		t.Fatalf("warm run: %+v ok=%v, want measured rate 0", r, ok)
	}
	if r.Eta <= 0 || r.Eta > 10*time.Second {
		t.Fatalf("warm run eta %v, want ~1s from the overall rate", r.Eta)
	}
}
