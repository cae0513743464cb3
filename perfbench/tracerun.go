package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"bhive/internal/corpus"
	"bhive/internal/profiler"
)

// tracePart is one trace process's share of a traced run: the CSV corpus
// at path holds records [lo, hi) of the workload's input, and every
// perRun consecutive records of it form one run, numbered from firstRun.
type tracePart struct {
	path     string
	lo, hi   int
	firstRun int32
	perRun   int
}

// traceReport is what one trace process reports about its replay.
type traceReport struct {
	Epoch   int64          `json:"epoch_unix_ns"` // the spans' time origin
	WallS   float64        `json:"wall_s"`
	Digest  string         `json:"digest"`
	Spans   []Span         `json:"spans"`
	OK      int            `json:"ok"`       // accepted Profile results
	OKNs    float64        `json:"ok_ns"`    // host time of those Profile calls
	Uops    float64        `json:"uops"`     // simulated µops of those runs
	PredNaN map[string]int `json:"pred_nan"` // failed Predict calls per model
}

// traceJob is the trace process: the benchmark's replay of one corpus in
// a fresh process, so the process-wide memo tables start empty as they do
// in the workload's jobs. Arguments: experiment, corpus CSV, first run id,
// records per run, and 1 for a span around every layer call.
func traceJob(args []string, stdout io.Writer) error {
	if len(args) != 5 {
		return errors.New("usage: perfbench trace <experiment> <corpus.csv> <first run> <records per run> <0|1>")
	}
	exp, traced := args[0], args[4] == "1"
	first, err := strconv.Atoi(args[2])
	if err != nil {
		return err
	}
	per, err := strconv.Atoi(args[3])
	if err != nil || per < 1 {
		return fmt.Errorf("records per run %q: want a positive number", args[3])
	}
	f, err := os.Open(args[1])
	if err != nil {
		return err
	}
	recs, err := corpus.ReadCSV(f)
	f.Close()
	if err != nil {
		return err
	}

	var tr *Tracer
	rep := traceReport{PredNaN: make(map[string]int)}
	if traced {
		tr = newTracer()
		rep.Epoch = tr.epoch.UnixNano()
	}
	t := time.Now()
	rp := runReplay(exp, recs, func(i int) int32 { return int32(first + i/per) }, tr)
	rep.WallS = time.Since(t).Seconds()
	rep.Digest = rp.digest(0, len(recs))
	rep.Spans = tr.Spans()
	for c := range rp.out {
		for i := range rp.out[c] {
			o := &rp.out[c][i]
			for mi, name := range rp.names {
				if math.IsNaN(o.preds[mi]) {
					rep.PredNaN[name]++
				}
			}
			if o.res.Status != profiler.StatusOK || !traced {
				continue
			}
			s := rep.Spans[o.profSpan]
			rep.OK++
			rep.OKNs += float64(s.End - s.Start)
			rep.Uops += float64(o.res.Counters.Uops)
		}
	}
	return json.NewEncoder(stdout).Encode(rep)
}

// traceReplay is the traced half of a traced run. Each part is replayed
// in a fresh trace process, as the workload's jobs evaluate their input:
// once with a span around every layer call, and once untraced for the
// overhead. Every replay must reproduce the checked replay's digest of
// its records. The sampled layer timings then run in this process, and
// all spans recorded in tr are written out at the end.
func traceReplay(o *runOpts, out *outcome, tr *Tracer, exp string, parts []tracePart, recs []corpus.Record, runOf func(int) int32, checked *replay) error {
	sum := traceReport{PredNaN: make(map[string]int)}
	var traced, untraced float64
	for _, p := range parts {
		for _, on := range []string{"1", "0"} {
			var rep traceReport
			if err := runChild(o.exe, &rep, "trace", exp, p.path, fmt.Sprint(p.firstRun), fmt.Sprint(p.perRun), on); err != nil {
				return err
			}
			if want := checked.digest(p.lo, p.hi); rep.Digest != want {
				out.failf("trace process on records [%d, %d): digest %s differs from the checked replay's %s", p.lo, p.hi, rep.Digest, want)
			}
			if on == "0" {
				untraced += rep.WallS
				continue
			}
			traced += rep.WallS
			tr.Add(rep.Spans, rep.Epoch)
			sum.OK += rep.OK
			sum.OKNs += rep.OKNs
			sum.Uops += rep.Uops
			for name, n := range rep.PredNaN {
				sum.PredNaN[name] += n
			}
		}
	}
	out.layers["trace.overhead_s"] = traced - untraced
	replayLayers(checked.names, tr.Spans(), &sum, out.layers, o.info)

	sample := checked.sample(recs)
	if err := machineStages(checked, sample, tr, out.layers); err != nil {
		return err
	}
	allocsPerCall(checked, sample, out.layers)
	ns, err := decodeNsPerBlock(recs, tr, runOf)
	if err != nil {
		return err
	}
	out.layers["x86.decode_ns_per_block"] = ns

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("%s-s%d.jsonl", o.name, o.seed))
	if err := tr.WriteJSONL(path); err != nil {
		return err
	}
	fmt.Fprintf(o.info, "spans: %d written to %s\n", len(tr.Spans()), path)
	return nil
}
