package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bhive/internal/harness"
)

// batchShape sizes a batch workload: chunks distinct corpora of
// chunkBlocks blocks each, evaluated round-robin by job processes.
type batchShape struct {
	exp         string
	chunkBlocks int
	chunks      int
}

// warmupJobs run before the measured window opens and are not reported:
// the first jobs after start-up also pay for loading the binary.
const warmupJobs = 4

// windowJobs is how many consecutive jobs make one throughput sample.
// The corpora are dealt to near-equal composition, so a few consecutive
// jobs stand for the whole input, and the median over samples resists
// the host's bursts of contention.
const windowJobs = 12

// batchJob is one job process as the benchmark saw it.
type batchJob struct {
	chunk   int
	setup   time.Duration // spawn to the end of the process's set-up
	latency time.Duration // spawn to report received
	rep     *jobReport
	err     error
}

// runBatch drives a batch workload: seeded corpora written as CSV before
// any job starts, a closed loop of fresh job processes for the measured
// window, then the benchmark's own evaluation of every corpus as the check.
func runBatch(o *runOpts, shape batchShape) (*outcome, error) {
	pool, err := stratifiedPool(o.seed, shape.chunks*shape.chunkBlocks, shape.chunks)
	if err != nil {
		return nil, err
	}
	var paths []string
	for c, recs := range chunks(pool, shape.chunkBlocks) {
		text, err := csvOf(recs)
		if err != nil {
			return nil, err
		}
		p := filepath.Join(o.workDir, fmt.Sprintf("chunk-%02d.csv", c))
		if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	spawn := func(c int) batchJob {
		j := batchJob{chunk: c, rep: new(jobReport)}
		t := hostNow()
		j.err = runChild(o.exe, j.rep, "job", shape.exp, paths[c])
		j.latency = time.Duration(hostNow() - t)
		j.setup = time.Duration(j.rep.SetupDone - t)
		return j
	}

	var jobs []batchJob
	for i := 0; i < warmupJobs; i++ {
		jobs = append(jobs, spawn(i%shape.chunks))
	}
	start, hostStart := time.Now(), hostNow()
	for i := 0; !o.windowDone(start, len(jobs)-warmupJobs); i++ {
		jobs = append(jobs, spawn((warmupJobs+i)%shape.chunks))
	}
	loopWall := time.Duration(hostNow() - hostStart)
	if err := o.checkWindow(len(jobs) - warmupJobs); err != nil {
		return nil, err
	}

	out := newOutcome()
	runOf := func(i int) int32 { return int32(i / shape.chunkBlocks) }
	rp := runReplay(shape.exp, pool, runOf, nil)
	want := make([][][]string, shape.chunks)
	bad := make([]string, shape.chunks) // a property the chunk's output breaks
	for c := range want {
		lo, hi := c*shape.chunkBlocks, (c+1)*shape.chunkBlocks
		if shape.exp == harness.BoundCheckID {
			rows, viol, err := rp.boundRows(lo, hi)
			if err != nil {
				return nil, err
			}
			if viol > 0 {
				bad[c] = fmt.Sprintf("%d bound violations", viol)
			}
			want[c] = rows
		} else {
			want[c] = rp.table5Rows(lo, hi)
		}
	}
	out.digest = rp.digest(0, len(pool))

	for i, j := range jobs {
		ok := j.err == nil && len(j.rep.Tables) == 1 && rowsEqual(j.rep.Tables[0].Rows, want[j.chunk]) && bad[j.chunk] == ""
		out.tally.add(ok)
		if !ok {
			out.failf("job %d (chunk %d): %s", i, j.chunk, jobProblem(j, bad[j.chunk]))
		}
	}
	if !out.correct() {
		return out, nil
	}

	measured := jobs[warmupJobs:]
	var rss, setup, lat, gcFrac, gcCycles, readS []float64
	for _, j := range measured {
		rss = append(rss, j.rep.Run.PeakRSSMB)
		setup = append(setup, j.setup.Seconds())
		lat = append(lat, j.latency.Seconds())
		gcFrac = append(gcFrac, j.rep.Run.GCCPUFrac)
		gcCycles = append(gcCycles, j.rep.Run.GCCycles)
		readS = append(readS, j.rep.ReadS)
	}
	var bps, cpu, alloc []float64
	for lo := 0; lo+windowJobs <= len(measured); lo += windowJobs {
		var results, wall, cpuS, allocMB float64
		for _, j := range measured[lo : lo+windowJobs] {
			results += float64(j.rep.Results)
			wall += j.rep.Run.WallS
			cpuS += j.rep.Run.CPUS
			allocMB += j.rep.Run.AllocMB
		}
		bps = append(bps, results/wall)
		cpu = append(cpu, cpuS/windowJobs)
		alloc = append(alloc, allocMB/windowJobs)
	}
	out.e2e = map[string]float64{
		"blocks_per_s":      median(bps),
		"cpu_s":             median(cpu),
		"peak_rss_mb":       median(rss),
		"alloc_mb":          median(alloc),
		"setup_s":           median(setup),
		"job_latency_p50_s": median(lat),
		"job_latency_p90_s": percentile(lat, 90),
		"jobs_per_s":        float64(len(measured)) / loopWall.Seconds(),
	}
	if !o.trace {
		return out, nil
	}

	out.layers["runtime.gc_cpu_frac"] = median(gcFrac)
	out.layers["runtime.gc_cycles"] = median(gcCycles)
	out.layers["corpus.read_s"] = median(readS)
	var parts []tracePart
	for c, p := range paths {
		parts = append(parts, tracePart{path: p, lo: c * shape.chunkBlocks, hi: (c + 1) * shape.chunkBlocks, firstRun: int32(c), perRun: shape.chunkBlocks})
	}
	if err := traceReplay(o, out, newTracer(), shape.exp, parts, pool, runOf, rp); err != nil {
		return nil, err
	}
	return out, nil
}

// jobProblem explains why a job did not pass its check.
func jobProblem(j batchJob, bad string) string {
	switch {
	case j.err != nil:
		return j.err.Error()
	case len(j.rep.Tables) != 1:
		return fmt.Sprintf("%d tables in the output, want 1", len(j.rep.Tables))
	case bad != "":
		return bad
	}
	return "table rows differ from the benchmark's own evaluation"
}
