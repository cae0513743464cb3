package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sync"

	"bhive/internal/bound"
	"bhive/internal/corpus"
	"bhive/internal/harness"
	"bhive/internal/models"
	"bhive/internal/profiler"
	"bhive/internal/stats"
	"bhive/internal/uarch"
)

// workloadCPUs is the µarch set an experiment covers: the paper's three
// for Table V, every parameterized one for the bound check.
func workloadCPUs(exp string) []*uarch.CPU {
	if exp == harness.BoundCheckID {
		return uarch.Extended()
	}
	return uarch.All()
}

// blockOut is one (block, µarch) outcome, observed by calling the layers'
// public functions directly rather than through the harness.
type blockOut struct {
	res      profiler.Result
	preds    []float64 // per model, NaN where Predict failed (table5)
	bnd      *bound.Bounds
	bndErr   error
	profSpan int32 // the Profile call's span, -1 untraced
}

// replay is the benchmark's own evaluation of a record set: every block on
// every µarch of the experiment, Profile then each model's Predict (table5)
// or Profile then bound.Analyze (boundcheck).
type replay struct {
	exp   string
	cpus  []*uarch.CPU
	names []string     // model names, in models.All order
	out   [][]blockOut // [cpu][record]
}

// runReplay evaluates recs. runOf maps a record to the unit of work it
// belongs to, which becomes the run id of its spans.
func runReplay(exp string, recs []corpus.Record, runOf func(i int) int32, tr *Tracer) *replay {
	rp := &replay{exp: exp, cpus: workloadCPUs(exp)}
	profs := make([]*profiler.Profiler, len(rp.cpus))
	preds := make([][]models.Predictor, len(rp.cpus))
	for c, cpu := range rp.cpus {
		profs[c] = profiler.New(cpu, profiler.DefaultOptions())
		if exp != harness.BoundCheckID {
			preds[c] = models.All(cpu)
		}
		rp.out = append(rp.out, make([]blockOut, len(recs)))
	}
	var spanNames []string
	for _, m := range preds[0] {
		rp.names = append(rp.names, m.Name())
		spanNames = append(spanNames, "models."+m.Name())
	}

	n := len(recs)
	work := make(chan int, len(rp.cpus)*n)
	for k := 0; k < len(rp.cpus)*n; k++ {
		work <- k
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				c, i := k/n, k%n
				b, run := recs[i].Block, runOf(i)
				o := &rp.out[c][i]
				root := tr.Begin("evaluate", -1, run)
				o.profSpan = tr.Begin("profiler", root, run)
				o.res = profs[c].Profile(b)
				tr.End(o.profSpan)
				for mi, m := range preds[c] {
					s := tr.Begin(spanNames[mi], root, run)
					v, err := m.Predict(b)
					tr.End(s)
					if err != nil {
						v = math.NaN()
					}
					o.preds = append(o.preds, v)
				}
				if exp == harness.BoundCheckID && boundCheckable(&o.res) {
					s := tr.Begin("bound", root, run)
					o.bnd, o.bndErr = bound.Analyze(rp.cpus[c], b)
					tr.End(s)
				}
				tr.End(root)
			}
		}()
	}
	wg.Wait()
	return rp
}

// boundCheckable mirrors the bound check's filter: accepted measurements
// with counters and an unroll factor.
func boundCheckable(r *profiler.Result) bool {
	return r.Status == profiler.StatusOK && r.Throughput > 0 && r.Counters.Cycles > 0 && r.UnrollHi > 0
}

// boundEps matches the harness's tolerance for float rounding in lower·n.
const boundEps = 1e-6

// table5Rows recomputes the Table V rows for records [lo, hi): each
// model's mean relative error over the accepted measurements, folded in
// record order as the harness folds them.
func (rp *replay) table5Rows(lo, hi int) [][]string {
	var rows [][]string
	for c, cpu := range rp.cpus {
		for mi, name := range rp.names {
			var mean stats.Running
			for i := lo; i < hi; i++ {
				o := &rp.out[c][i]
				if o.res.Status != profiler.StatusOK || o.res.Throughput <= 0 || math.IsNaN(o.preds[mi]) {
					continue
				}
				mean.Add(stats.RelError(o.preds[mi], o.res.Throughput))
			}
			cell := "-"
			if mean.N() > 0 {
				cell = fmt.Sprintf("%.4f", mean.Mean())
			}
			rows = append(rows, []string{cpu.Name, name, cell})
		}
	}
	return rows
}

// boundRows recomputes the bound check's summary rows for records
// [lo, hi) and counts violations and analysis errors.
func (rp *replay) boundRows(lo, hi int) (rows [][]string, violations int, err error) {
	for c, cpu := range rp.cpus {
		checked, vacuous, viol := 0, 0, 0
		var verdicts [3]int
		for i := lo; i < hi; i++ {
			o := &rp.out[c][i]
			if !boundCheckable(&o.res) {
				continue
			}
			if o.bndErr != nil {
				return nil, 0, fmt.Errorf("%s: bound analysis: %w", cpu.Name, o.bndErr)
			}
			checked++
			if o.bnd.Vacuous {
				vacuous++
			}
			verdicts[o.bnd.Verdict]++
			n, cyc := float64(o.res.UnrollHi), float64(o.res.Counters.Cycles)
			if cyc < o.bnd.Lower*n-boundEps || cyc > o.bnd.Upper*n+boundEps {
				viol++
			}
		}
		violations += viol
		rows = append(rows, []string{cpu.Name,
			fmt.Sprint(hi - lo), fmt.Sprint(checked), fmt.Sprint(vacuous),
			fmt.Sprint(verdicts[bound.VerdictDepChain]), fmt.Sprint(verdicts[bound.VerdictPort]),
			fmt.Sprint(verdicts[bound.VerdictFrontEnd]), fmt.Sprint(viol)})
	}
	return rows, violations, nil
}

// digest hashes every per-block measurement and prediction of records
// [lo, hi), so two commits' simulated results can be shown identical by
// one line.
func (rp *replay) digest(lo, hi int) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for c := range rp.cpus {
		for i := lo; i < hi; i++ {
			o := &rp.out[c][i]
			put(uint64(o.res.Status))
			put(math.Float64bits(o.res.Throughput))
			put(o.res.Counters.Cycles)
			put(o.res.Counters.Uops)
			put(uint64(o.res.UnrollHi))
			for _, p := range o.preds {
				put(math.Float64bits(p))
			}
			if o.bnd != nil {
				put(math.Float64bits(o.bnd.Lower))
				put(math.Float64bits(o.bnd.Upper))
				put(uint64(o.bnd.Verdict))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// rowsEqual compares two tables' rows cell by cell.
func rowsEqual(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
