package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bhive/internal/corpus"
	"bhive/internal/harness"
	"bhive/internal/server"
)

// serveHalf is half a serve-cached job's corpus: each job's first half is
// the previous job's second half, so half its blocks hit the profile cache.
const serveHalf = 16

// serveJobs is the number of request bodies, submitted in order in every
// round; it is the minimum job count, so one round fills the p90.
const serveJobs = minJobs

// runServe drives the serve-cached workload: request bodies generated
// before the server process starts, the process's closed-loop rounds, then
// the benchmark's own evaluation of every block the jobs use as the check.
func runServe(o *runOpts) (*outcome, error) {
	pool, err := stratifiedPool(o.seed, (serveJobs+1)*serveHalf, serveJobs+1)
	if err != nil {
		return nil, err
	}
	var csvs []string
	var buf bytes.Buffer
	for j := 0; j < serveJobs; j++ {
		text, err := csvOf(pool[j*serveHalf : (j+2)*serveHalf])
		if err != nil {
			return nil, err
		}
		csvs = append(csvs, text)
		raw, err := json.Marshal(server.Request{Experiments: []string{"table5"}, CorpusCSV: text})
		if err != nil {
			return nil, err
		}
		buf.Write(raw)
		buf.WriteByte('\n')
	}
	inputs := filepath.Join(o.workDir, "bodies.jsonl")
	if err := os.WriteFile(inputs, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}

	setup, err := serveSetup(o)
	if err != nil {
		return nil, err
	}
	rep, err := spawnServe(o, inputs)
	if err != nil {
		return nil, err
	}
	jobs := rep.Jobs
	out := newOutcome()
	runOf := func(i int) int32 { return int32(i / serveHalf) }
	rp := runReplay("table5", pool, runOf, nil)
	out.digest = rp.digest(0, len(pool))
	want := make([][][]string, serveJobs)
	for j := range want {
		want[j] = rp.table5Rows(j*serveHalf, (j+2)*serveHalf)
	}

	var lat []float64
	hits, profiled := 0.0, 0.0
	var queue []float64
	for k, job := range jobs {
		lat = append(lat, job.LatencyS)
		ok := serveJobOK(job, want[k%serveJobs])
		out.tally.add(ok)
		if !ok {
			out.failf("job %d: %s", k, serveProblem(job))
		}
		hits += float64(job.CacheHits)
		profiled += float64(job.Profiled)
		queue = append(queue, job.QueueWaitMs)
	}
	for _, j := range []int{0, serveJobs / 2, serveJobs - 1} {
		if err := harnessAgrees(csvs[j], jobs[j].Result); err != nil {
			out.failf("job %d: %v", j, err)
		}
	}

	perJob := float64(len(jobs))
	wall := rep.Run.WallS
	out.e2e = map[string]float64{
		"blocks_per_s":      perJob * 2 * serveHalf * float64(len(rp.cpus)) / wall,
		"cpu_s":             rep.Run.CPUS / perJob,
		"peak_rss_mb":       rep.Run.PeakRSSMB,
		"alloc_mb":          rep.Run.AllocMB / perJob,
		"setup_s":           setup,
		"job_latency_p50_s": median(lat),
		"job_latency_p90_s": percentile(lat, 90),
		"jobs_per_s":        perJob / wall,
	}
	if !o.trace {
		return out, nil
	}

	l := out.layers
	l["runtime.gc_cpu_frac"] = rep.Run.GCCPUFrac
	l["runtime.gc_cycles"] = rep.Run.GCCycles / perJob
	l["profcache.hit_frac"] = ratio(hits, hits+profiled)
	l["profcache.save_ms"] = rep.SaveMs
	l["profcache.save_bytes"] = float64(rep.CacheBytes)
	l["profcache.entries"] = float64(rep.CacheEntries)
	l["server.evaluate_ms"] = median(rep.EvaluateMs)
	l["server.result_ms"] = median(rep.ResultMs)
	l["server.queue_wait_ms"] = median(queue)
	l["server.non2xx"] = float64(rep.Non2xx)
	l["harness.checkpoint.bytes_per_shard"] = rep.CkptBytesShard
	var ranges [][2]int
	for j := 0; j < 16; j++ {
		ranges = append(ranges, [2]int{j * serveHalf, (j + 2) * serveHalf})
	}
	tr := newTracer()
	if l["harness.checkpoint.append_us"], err = checkpointAppends(rp, o.workDir, ranges, tr); err != nil {
		return nil, err
	}
	var reads []float64
	for _, text := range csvs {
		t := time.Now()
		if _, err := corpus.ReadCSV(strings.NewReader(text)); err != nil {
			return nil, err
		}
		reads = append(reads, time.Since(t).Seconds())
	}
	l["corpus.read_s"] = median(reads)
	// The server evaluates every job in one process, so one trace process
	// replays the whole pool.
	text, err := csvOf(pool)
	if err != nil {
		return nil, err
	}
	poolPath := filepath.Join(o.workDir, "pool.csv")
	if err := os.WriteFile(poolPath, []byte(text), 0o644); err != nil {
		return nil, err
	}
	parts := []tracePart{{path: poolPath, lo: 0, hi: len(pool), firstRun: 0, perRun: serveHalf}}
	if err := traceReplay(o, out, tr, "table5", parts, pool, runOf, rp); err != nil {
		return nil, err
	}
	return out, nil
}

// spawnServe runs the server process and decodes its report.
func spawnServe(o *runOpts, inputs string) (*serveReport, error) {
	args := []string{"serve", "-inputs", inputs, "-dir", filepath.Join(o.workDir, "serve"),
		"-seconds", fmt.Sprint(o.window.Seconds())}
	if o.trace {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return nil, err
		}
		args = append(args, "-trace", "-spans", filepath.Join(o.outDir, fmt.Sprintf("%s-s%d-server.jsonl", o.name, o.seed)))
	}
	var rep serveReport
	if err := runChild(o.exe, &rep, args...); err != nil {
		return nil, err
	}
	return &rep, nil
}

// serveSetups is how many times a run starts the server process only to
// set up, for a median set-up time.
const serveSetups = 40

// serveSetup times the server process from spawn to ready (profile cache
// open, server construction, listener bound), as the median of
// serveSetups fresh processes.
func serveSetup(o *runOpts) (float64, error) {
	var times []float64
	for k := 0; k < serveSetups; k++ {
		var r struct {
			Ready int64 `json:"ready_host_ns"`
		}
		t := hostNow()
		if err := runChild(o.exe, &r, "serve", "-setup-only", "-dir", filepath.Join(o.workDir, fmt.Sprintf("setup-%d", k))); err != nil {
			return 0, err
		}
		times = append(times, float64(r.Ready-t)/1e9)
	}
	return median(times), nil
}

// serveJobOK reports whether a job succeeded: no error, no non-2xx
// response, and a result whose Table V rows equal want.
func serveJobOK(job serveJob, want [][]string) bool {
	if job.Err != "" || job.Non2xx > 0 {
		return false
	}
	rows, err := resultRows(job.Result)
	return err == nil && rowsEqual(rows, want)
}

// resultRows extracts the Table V rows from a /result body.
func resultRows(raw []byte) ([][]string, error) {
	var res server.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, err
	}
	if len(res.Experiments) != 1 || len(res.Experiments[0].Tables) != 1 {
		return nil, fmt.Errorf("result holds %d experiments, want one table5", len(res.Experiments))
	}
	return res.Experiments[0].Tables[0].Rows, nil
}

func serveProblem(j serveJob) string {
	switch {
	case j.Err != "":
		return j.Err
	case j.Non2xx > 0:
		return fmt.Sprintf("%d non-2xx responses", j.Non2xx)
	}
	return "table rows differ from the benchmark's own evaluation"
}

// harnessAgrees runs the harness in-process on a job's corpus and
// compares its Table V text with the job's result.
func harnessAgrees(csv string, result []byte) error {
	recs, err := corpus.ReadCSV(strings.NewReader(csv))
	if err != nil {
		return err
	}
	cfg := harness.DefaultConfig()
	cfg.Records = recs
	s := harness.New(cfg)
	defer s.Close()
	rr, err := s.RunStructured("table5", "")
	if err != nil {
		return err
	}
	var res server.Result
	if err := json.Unmarshal(result, &res); err != nil {
		return err
	}
	if len(res.Experiments) != 1 || res.Experiments[0].Text != rr.Text {
		return fmt.Errorf("server result differs from an in-process harness run")
	}
	return nil
}
