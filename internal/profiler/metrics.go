package profiler

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// NumStatus is the number of distinct profiling statuses; ByStatus arrays
// are indexed by Status.
const NumStatus = len(statusNames)

// Metrics aggregates Profile outcomes across the goroutines sharing it:
// how many blocks were served from the persistent cache vs. actually
// measured, and the per-status outcome histogram. It is the first
// observability layer of the sharded evaluation pipeline — per-shard
// progress lines are derived from Snapshot deltas. All counters are
// atomic; a nil *Metrics is a valid no-op sink.
type Metrics struct {
	cacheHits atomic.Uint64
	profiled  atomic.Uint64
	crossMism atomic.Uint64
	status    [NumStatus]atomic.Uint64

	// planned is the number of block outcomes registered as upcoming work
	// (AddPlanned); startNanos is the wall time of the first recorded
	// outcome (0 = none yet). Together they drive Throughput's ETA.
	// measStartNanos is the wall time of the first *measured* outcome —
	// cache hits are near-instant, so the ETA for work that
	// still has to be measured must come from the measured rate alone, not
	// the hit-inflated overall rate.
	planned        atomic.Uint64
	startNanos     atomic.Int64
	measStartNanos atomic.Int64
}

// timeNow is swapped by tests to drive the rate clocks deterministically.
var timeNow = time.Now

// markStart stamps the first recorded outcome's wall time exactly once.
func (m *Metrics) markStart() {
	if m.startNanos.Load() == 0 {
		m.startNanos.CompareAndSwap(0, timeNow().UnixNano())
	}
}

// markMeasStart stamps the first measured outcome's wall time exactly once.
func (m *Metrics) markMeasStart() {
	if m.measStartNanos.Load() == 0 {
		m.measStartNanos.CompareAndSwap(0, timeNow().UnixNano())
	}
}

// AddPlanned registers n upcoming block outcomes, letting Throughput
// estimate time remaining. Callers register each pass's non-resumed work
// just before computing it, so the ETA covers the work known so far (later
// passes extend it as they start). Safe on a nil receiver.
func (m *Metrics) AddPlanned(n int) {
	if m == nil || n <= 0 {
		return
	}
	m.planned.Add(uint64(n))
}

// Rate is a Throughput report: the overall processing rate (every
// outcome, cache hits included), the measured-only rate
// (zero until a block is actually measured), and the ETA for the planned
// work remaining.
type Rate struct {
	// BlocksPerSec is the overall rate since the first recorded outcome.
	BlocksPerSec float64
	// MeasuredPerSec is the rate of measured (cache-miss) outcomes since
	// the first one; 0 while everything has come from the cache.
	MeasuredPerSec float64
	// Eta estimates the time to finish the registered remaining work
	// (0 when none remains).
	Eta time.Duration
}

// Throughput reports the processing rates since the first recorded
// outcome and, from the planned-work registrations, the estimated time to
// finish the remainder. ok is false until an outcome has landed (and on a
// nil receiver).
//
// The ETA is derived from the measured-only rate once any block has been
// measured: cache hits complete in microseconds, so a
// warm-cache resume that replays thousands of hits would otherwise report
// a wildly optimistic ETA for the cold blocks still waiting on the
// measurement protocol. Only when the run has measured nothing (fully
// warm so far) does the overall rate drive the ETA — then the hits *are*
// the workload.
func (m *Metrics) Throughput() (r Rate, ok bool) {
	if m == nil {
		return Rate{}, false
	}
	start := m.startNanos.Load()
	if start == 0 {
		return Rate{}, false
	}
	snap := m.Snapshot()
	done := snap.Total()
	elapsed := timeNow().Sub(time.Unix(0, start))
	if done == 0 || elapsed <= 0 {
		return Rate{}, false
	}
	r.BlocksPerSec = float64(done) / elapsed.Seconds()
	if ms := m.measStartNanos.Load(); ms != 0 && snap.Profiled > 0 {
		if me := timeNow().Sub(time.Unix(0, ms)); me > 0 {
			r.MeasuredPerSec = float64(snap.Profiled) / me.Seconds()
		}
	}
	if planned := m.planned.Load(); planned > done {
		etaRate := r.BlocksPerSec
		if r.MeasuredPerSec > 0 {
			etaRate = r.MeasuredPerSec
		}
		r.Eta = time.Duration(float64(planned-done) / etaRate * float64(time.Second))
	}
	return r, true
}

// record accounts one Profile call. hit reports whether the result came
// from the persistent cache (a miss means the block was measured).
func (m *Metrics) record(s Status, hit bool) {
	if m == nil {
		return
	}
	m.markStart()
	if hit {
		m.cacheHits.Add(1)
	} else {
		m.markMeasStart()
		m.profiled.Add(1)
	}
	if int(s) < NumStatus {
		m.status[s].Add(1)
	}
}

// RecordCrosscheckMismatch accounts one block whose dynamic status
// disagreed with the static prediction outside the whitelisted cases.
func (m *Metrics) RecordCrosscheckMismatch() {
	if m == nil {
		return
	}
	m.crossMism.Add(1)
}

// Snapshot is a point-in-time copy of the counters, suitable for delta
// arithmetic between shards.
type Snapshot struct {
	// CacheHits counts blocks served from the persistent profile cache.
	CacheHits uint64
	// Profiled counts blocks that went through the measurement protocol.
	Profiled uint64
	// CrosscheckMismatch counts blocks whose dynamic status disagreed
	// with the static prediction outside the whitelisted cases.
	CrosscheckMismatch uint64
	// ByStatus histograms the outcome of every Profile call, indexed by
	// Status (cache hits included — a cached rejection is still a
	// rejection).
	ByStatus [NumStatus]uint64
}

// Snapshot copies the current counters. Safe on a nil receiver.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	if m == nil {
		return s
	}
	s.CacheHits = m.cacheHits.Load()
	s.Profiled = m.profiled.Load()
	s.CrosscheckMismatch = m.crossMism.Load()
	for i := range s.ByStatus {
		s.ByStatus[i] = m.status[i].Load()
	}
	return s
}

// Sub returns the counter deltas since prev (for per-shard reporting).
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	d := Snapshot{
		CacheHits:          s.CacheHits - prev.CacheHits,
		Profiled:           s.Profiled - prev.Profiled,
		CrosscheckMismatch: s.CrosscheckMismatch - prev.CrosscheckMismatch,
	}
	for i := range s.ByStatus {
		d.ByStatus[i] = s.ByStatus[i] - prev.ByStatus[i]
	}
	return d
}

// Total is the number of blocks covered by the snapshot.
func (s Snapshot) Total() uint64 { return s.CacheHits + s.Profiled }

// HitRate is the persistent-cache hit fraction (0 with no calls).
func (s Snapshot) HitRate() float64 {
	if t := s.Total(); t > 0 {
		return float64(s.CacheHits) / float64(t)
	}
	return 0
}

// RejectHistogram renders the non-OK statuses as "crashed=3 unstable=1"
// ("none" if every call succeeded), with cross-check mismatches appended
// when present ("... cross-mismatch=1").
func (s Snapshot) RejectHistogram() string {
	var sb strings.Builder
	for i, n := range s.ByStatus {
		if Status(i) == StatusOK || n == 0 {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%d", Status(i), n)
	}
	if s.CrosscheckMismatch > 0 {
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "cross-mismatch=%d", s.CrosscheckMismatch)
	}
	if sb.Len() == 0 {
		return "none"
	}
	return sb.String()
}
