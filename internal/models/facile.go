package models

import (
	"bhive/internal/bound"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// Facile is the interpretable bound-based predictor: it predicts the
// static lower bound from internal/bound — the maximum of the
// loop-carried dependence height, execution-port pressure and front-end
// width — as the block's inverse throughput. Unlike the other models it
// carries no deliberately injected inaccuracies; its error against the
// simulator is exactly the cost of ignoring second-order resource
// interactions (window stalls, store queues, partial overlap), which is
// what makes it a Facile-class decomposition: every prediction comes with
// a bottleneck verdict explaining itself, and by construction it only
// ever under-predicts the simulator's steady-state throughput.
type Facile struct {
	cpu *uarch.CPU
}

// NewFacile builds the bound-based predictor for one microarchitecture.
func NewFacile(cpu *uarch.CPU) *Facile { return &Facile{cpu: cpu} }

// Name implements Predictor.
func (f *Facile) Name() string { return "Facile" }

// Predict implements Predictor: the static lower bound in cycles per
// iteration.
func (f *Facile) Predict(b *x86.Block) (float64, error) {
	bs, err := bound.Analyze(f.cpu, b)
	if err != nil {
		return 0, err
	}
	return bs.Lower, nil
}
