package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"bhive/internal/corpus"
	"bhive/internal/exec"
	"bhive/internal/harness"
	"bhive/internal/machine"
	"bhive/internal/models"
	"bhive/internal/pipeline"
	"bhive/internal/profiler"
	"bhive/internal/vm"
	"bhive/internal/x86"
)

// sampleBlocks is the fixed sample of each workload's blocks on which the
// machine stages and allocation counts are measured.
const sampleBlocks = 16

// spanLayers are the span names that count as layers in the self-time
// shares; "evaluate" is the benchmark's own loop around them.
var spanLayers = []string{"profiler", "models.IACA", "models.llvm-mca", "models.OSACA", "models.Facile", "bound"}

// replayLayers derives the per-layer figures of the traced replays from
// their spans and the totals their trace processes reported.
func replayLayers(names []string, spans []Span, sum *traceReport, vals map[string]float64, info io.Writer) {
	self := SelfTimes(spans)
	durs := Durations(spans)
	for _, name := range names {
		p := "models." + name
		calls := float64(len(durs[p]))
		vals[p+".calls"] = calls
		vals[p+".self_s"] = self[p].Seconds()
		vals[p+".p50_us"] = nanZero(median(durs[p])) / 1e3
		vals[p+".failed_frac"] = ratio(float64(sum.PredNaN[name]), calls)
	}
	vals["bound.calls"] = float64(len(durs["bound"]))
	vals["bound.self_s"] = self["bound"].Seconds()
	vals["bound.p50_us"] = nanZero(median(durs["bound"])) / 1e3

	pd := durs["profiler"]
	vals["profiler.calls"] = float64(len(pd))
	vals["profiler.self_s"] = self["profiler"].Seconds()
	vals["profiler.p50_us"] = nanZero(median(pd)) / 1e3
	if _, ok := highestPercentile(len(pd), 99); ok {
		vals["profiler.p99_us"] = percentile(pd, 99) / 1e3
	} else {
		fmt.Fprintf(info, "note: %d profiler calls leave fewer than %d beyond p99; profiler.p99_us reads 0\n", len(pd), minTail)
	}
	vals["profiler.ok_frac"] = ratio(float64(sum.OK), float64(len(pd)))
	vals["profiler.host_ns_per_sim_uop"] = ratio(sum.OKNs, sum.Uops)

	total := time.Duration(0)
	for _, l := range spanLayers {
		total += self[l]
	}
	fmt.Fprint(info, "self-time shares:")
	for _, l := range spanLayers {
		fmt.Fprintf(info, " %s=%.3f", l, ratio(self[l].Seconds(), total.Seconds()))
	}
	fmt.Fprintf(info, " (evaluate loop self %.3fs)\n", self["evaluate"].Seconds())
}

func nanZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// sample picks the first sampleBlocks records the profiler accepts on the
// replay's first µarch, so every stage below runs to completion.
func (rp *replay) sample(recs []corpus.Record) []corpus.Record {
	var out []corpus.Record
	for i := range recs {
		if rp.out[0][i].res.Status == profiler.StatusOK && len(out) < sampleBlocks {
			out = append(out, recs[i])
		}
	}
	return out
}

// machineStages times the machine layer's public stages on the sample,
// replaying the profiler's high-unroll measurement: PrepareUnrolled,
// ExecuteMonitored, WarmCaches, and PrepareGraph+TimeGraph, each call in
// a span under one span per block. The timed cycles must equal the
// profiler's own counters for the same run. The replay copies the
// profiler's private set-up, so a disagreement is an error of this copy,
// not a failed check of the program's outputs.
func machineStages(rp *replay, sample []corpus.Record, tr *Tracer, vals map[string]float64) error {
	opts := profiler.DefaultOptions()
	var prep, execT, warm, timeT []float64
	for _, cpu := range rp.cpus {
		profs := profiler.New(cpu, opts)
		for i, r := range sample {
			b := r.Block
			want := profs.Profile(b)
			if want.Status != profiler.StatusOK {
				continue
			}
			_, hi := opts.UnrollFactors(len(b.Insts))
			insts := make([]x86.Inst, 0, hi*len(b.Insts))
			for k := 0; k < hi; k++ {
				insts = append(insts, b.Insts...)
			}
			m := machine.New(cpu, 1)
			st := &exec.State{}
			st.InitRegisters(profiler.InitPattern)
			st.FTZ, st.DAZ = true, true
			page := m.AS.NewPhysPage()
			page.Fill(profiler.InitPattern)
			mapped := 0
			onFault := func(f *vm.Fault) bool {
				if !vm.ValidUserAddress(f.Addr) || mapped >= opts.MaxFaults {
					return false
				}
				m.AS.Map(f.Addr, page)
				mapped++
				return true
			}

			run := int32(i)
			root := tr.Begin("machine.sample", -1, run)
			var prog *machine.Program
			var steps []exec.Step
			var g *pipeline.Graph
			var ctr pipeline.Counters
			var err error
			dPrep := tr.Time("machine.prepare", root, run, func() { prog, err = m.PrepareUnrolled(insts, len(b.Insts)) })
			var dExec, dGraph, dWarm, dTime time.Duration
			if err == nil {
				dExec = tr.Time("machine.execute", root, run, func() { steps, err = m.ExecuteMonitored(prog, st, onFault) })
			}
			if err == nil {
				dGraph = tr.Time("machine.graph", root, run, func() { g = m.PrepareGraph(prog, steps) })
				dWarm = tr.Time("machine.warm", root, run, func() { m.WarmCaches(prog, steps) })
				dTime = tr.Time("machine.time", root, run, func() { ctr = m.TimeGraph(g, machine.Config{}) })
			}
			tr.End(root)
			if err != nil {
				return fmt.Errorf("machine sample out of date with profiler on %s: %w", cpu.Name, err)
			}
			if ctr.Cycles != want.Counters.Cycles {
				return fmt.Errorf("machine sample out of date with profiler on %s: timed %d cycles, profiler measured %d", cpu.Name, ctr.Cycles, want.Counters.Cycles)
			}
			prep = append(prep, us(dPrep))
			execT = append(execT, us(dExec))
			warm = append(warm, us(dWarm))
			timeT = append(timeT, us(dGraph+dTime))
		}
	}
	vals["machine.prepare_us"] = nanZero(median(prep))
	vals["machine.execute_us"] = nanZero(median(execT))
	vals["machine.warm_us"] = nanZero(median(warm))
	vals["machine.time_us"] = nanZero(median(timeT))
	return nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// allocsPerCall counts heap allocations per Profile and per Predict call
// on the sample, after one warm call each, with nothing else running.
func allocsPerCall(rp *replay, sample []corpus.Record, vals map[string]float64) {
	count := func(f func(b *x86.Block)) float64 {
		if len(sample) == 0 {
			return 0
		}
		f(sample[0].Block)
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for _, r := range sample {
			f(r.Block)
		}
		runtime.ReadMemStats(&b)
		return float64(b.Mallocs-a.Mallocs) / float64(len(sample))
	}
	cpu := rp.cpus[0]
	p := profiler.New(cpu, profiler.DefaultOptions())
	vals["profiler.allocs_per_call"] = count(func(b *x86.Block) { p.Profile(b) })
	if rp.exp == harness.BoundCheckID {
		return
	}
	for _, m := range models.All(cpu) {
		vals["models."+m.Name()+".allocs_per_call"] = count(func(b *x86.Block) { m.Predict(b) })
	}
}

// decodeNsPerBlock times x86 decoding of every input block from its hex,
// one span per block.
func decodeNsPerBlock(recs []corpus.Record, tr *Tracer, runOf func(int) int32) (float64, error) {
	hexes := make([]string, len(recs))
	for i := range recs {
		h, err := recs[i].Block.Hex()
		if err != nil {
			return 0, err
		}
		hexes[i] = h
	}
	var total time.Duration
	for i, h := range hexes {
		var err error
		total += tr.Time("x86.decode", -1, runOf(i), func() { _, err = x86.BlockFromHex(h) })
		if err != nil {
			return 0, err
		}
	}
	return ratio(float64(total), float64(len(hexes))), nil
}

// checkpointAppends times the journal's public append calls, PutMeas and
// PutPreds (each fsyncs, each in a span), on shards shaped like the given
// record ranges, filled from the replay's own results. It returns the
// median call time in µs.
func checkpointAppends(rp *replay, dir string, ranges [][2]int, tr *Tracer) (float64, error) {
	ck, err := harness.OpenCheckpoint(filepath.Join(dir, "append.ckpt"), "perfbench", harness.DefaultShardSize)
	if err != nil {
		return 0, err
	}
	var times []float64
	for si, r := range ranges {
		for c, cpu := range rp.cpus {
			lo, hi := r[0], r[1]
			tp := make([]float64, hi-lo)
			st := make([]int, hi-lo)
			preds := make(map[string][]float64)
			for mi, name := range rp.names {
				preds[name] = make([]float64, hi-lo)
				for i := lo; i < hi; i++ {
					preds[name][i-lo] = rp.out[c][i].preds[mi]
				}
			}
			for i := lo; i < hi; i++ {
				tp[i-lo] = rp.out[c][i].res.Throughput
				st[i-lo] = int(rp.out[c][i].res.Status)
			}
			var err error
			run := int32(si)
			dMeas := tr.Time("harness.checkpoint.append", -1, run, func() { err = ck.PutMeas(cpu.Name, si, tp, st) })
			var dPreds time.Duration
			if err == nil {
				dPreds = tr.Time("harness.checkpoint.append", -1, run, func() { err = ck.PutPreds(cpu.Name, si, preds) })
			}
			if err != nil {
				ck.Close()
				return 0, err
			}
			times = append(times, us(dMeas), us(dPreds))
		}
	}
	if err := ck.Close(); err != nil {
		return 0, err
	}
	return nanZero(median(times)), nil
}
