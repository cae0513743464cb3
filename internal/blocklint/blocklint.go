// Package blocklint is the static semantic analyzer over decoded x86-64
// basic blocks: it predicts, without timing anything, how the BHive
// measurement protocol will classify a block, and computes per-block facts
// (def-use chains, loop-carried dependence height, memory-operand address
// classification, encode/decode round-trip fidelity).
//
// The verdict comes from the profiler's own functional pass
// (profiler.Profiler.Functional): the block prepared at the high unroll
// factor and executed once under the page-fault monitor, exactly as
// Profile runs it. The interpreter is concrete (every register, flag and
// memory byte starts known), so the pass decides the Crashed and
// Unsupported outcomes exactly, and its trace decides Misaligned under the
// pipeline's line-split rule. The low unroll factor's run is a prefix of
// the high factor's, so it needs no pass of its own. A non-OK prediction
// is therefore a guarantee (up to the timing-only preemptions whitelisted
// by Report.Agrees); bhive-eval -crosscheck checks that agreement on every
// profiled block.
//
// Every finding carries a machine-readable diagnostic code (BL001…); the
// catalogue is in DESIGN.md § Static block analysis.
package blocklint

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"

	"bhive/internal/bound"
	"bhive/internal/exec"
	"bhive/internal/memo"
	"bhive/internal/profiler"
	"bhive/internal/uarch"
	"bhive/internal/vm"
	"bhive/internal/x86"
)

// Code is a machine-readable diagnostic code.
type Code int

const (
	// CodeNoDecode (BL001): the hex does not decode as a basic block.
	CodeNoDecode Code = 1 + iota
	// CodeEmpty (BL002): the block has no instructions.
	CodeEmpty
	// CodeNoEncode (BL003): an instruction has no encoding, so the
	// profiler's Prepare step fails.
	CodeNoEncode
	// CodeRoundTripMismatch (BL004): decode→encode→decode does not
	// reproduce the instruction sequence.
	CodeRoundTripMismatch
	// CodeRoundTripLossy (BL005): the block re-encodes to different bytes
	// that decode back to the same instructions (a known-lossy encoding).
	CodeRoundTripLossy
	// CodeUnsupported (BL006): the target microarchitecture cannot
	// execute an instruction (e.g. AVX2 on Ivy Bridge).
	CodeUnsupported
	// CodeBadAddress (BL007): a memory access faults in a way the monitor
	// cannot repair (not a mappable user address, or a misaligned operand
	// of an aligned vector move).
	CodeBadAddress
	// CodeDivideError (BL008): a division is guaranteed to raise #DE.
	CodeDivideError
	// CodePageBudget (BL009): the block touches more distinct pages than
	// the monitor's MaxFaults budget.
	CodePageBudget
	// CodeLineSplit (BL010): a timed-run access crosses a cache-line
	// boundary, so the misaligned filter rejects the block.
	CodeLineSplit
	// CodeNoMapping (BL011): the block accesses memory while page mapping
	// is disabled (the Agner-script baseline crashes on any access).
	CodeNoMapping
	// BL012 and BL013 are retired: they marked the conservative cases of
	// an abstract interpreter the analyzer no longer has. The slots stay
	// so later codes keep their numbers.
	_
	_
	// CodeNoExec (BL014): the functional executor cannot run the
	// instruction, so execution crashes.
	CodeNoExec
	// CodeVacuousBounds (BL015): an instruction's opcode is missing from
	// the µop table, so its descriptor is the generic single-cycle ALU
	// fallback and the block's static cycle bounds are vacuous — they
	// still hold against the simulator (which uses the same fallback) but
	// say nothing about real hardware. Each firing is a table-coverage
	// gap.
	CodeVacuousBounds

	numCodes
)

// String renders the code in its canonical "BL007" form.
func (c Code) String() string { return fmt.Sprintf("BL%03d", int(c)) }

// MarshalText makes diagnostic codes render as "BL007" in JSON output.
func (c Code) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// Severity classifies a diagnostic's weight.
type Severity int

const (
	// SevInfo diagnostics describe analysis limitations or benign facts.
	SevInfo Severity = iota
	// SevWarn diagnostics are suspicious but do not change the verdict.
	SevWarn
	// SevReject diagnostics determine a non-OK predicted status.
	SevReject
)

func (s Severity) String() string {
	switch s {
	case SevReject:
		return "reject"
	case SevWarn:
		return "warn"
	}
	return "info"
}

// Severity returns the diagnostic class of a code.
func (c Code) Severity() Severity {
	switch c {
	case CodeNoDecode, CodeEmpty, CodeNoEncode, CodeUnsupported,
		CodeBadAddress, CodeDivideError, CodePageBudget, CodeLineSplit,
		CodeNoMapping, CodeNoExec:
		return SevReject
	case CodeRoundTripMismatch:
		return SevWarn
	}
	return SevInfo
}

// Diag is one finding, anchored to an instruction when one is at fault.
type Diag struct {
	Code Code `json:"code"`
	// Inst is the index of the offending instruction within the block
	// (-1 for block-level findings).
	Inst int `json:"inst"`
	// Offset is the byte offset of that instruction within the encoded
	// block (-1 when unknown).
	Offset int    `json:"offset"`
	Msg    string `json:"msg"`
}

func (d Diag) String() string {
	where := ""
	if d.Inst >= 0 {
		where = fmt.Sprintf(" inst %d", d.Inst)
		if d.Offset >= 0 {
			where += fmt.Sprintf(" (offset %d)", d.Offset)
		}
	}
	return fmt.Sprintf("%s%s: %s", d.Code, where, d.Msg)
}

// Report is the typed result of analyzing one block.
type Report struct {
	// Hex is the block's canonical hex (empty if it does not encode).
	Hex string `json:"hex,omitempty"`
	// NumInsts is the decoded instruction count.
	NumInsts int `json:"num_insts"`
	// Predicted is the profiler.Status the analysis predicts for the
	// block under the analyzer's options.
	Predicted profiler.Status `json:"-"`
	// PredictedName is Predicted's string form, for JSON output.
	PredictedName string `json:"predicted"`
	// Diags lists every finding, reject-severity first.
	Diags []Diag `json:"diags,omitempty"`
	// Facts carries the per-block static facts (nil when the block does
	// not decode).
	Facts *Facts `json:"facts,omitempty"`
	// Bounds carries the static cycle-bound analysis (nil when the block
	// does not decode or describe).
	Bounds *bound.Bounds `json:"bounds,omitempty"`
}

// Rejected reports whether the block is statically rejected: the
// prediction is a non-OK status, which the analyzer only emits when it is
// guaranteed. bhive-lint counts exactly these blocks as rejected.
func (r *Report) Rejected() bool { return r.Predicted != profiler.StatusOK }

// Agrees reports whether a dynamic profiling status is consistent with
// the static prediction. Equal statuses always are; beyond them, a
// predicted OK or Misaligned may be preempted by the timing-only rejects
// (cache-miss, unstable), which the analyzer does not predict and which
// the profiler checks before the misaligned filter. Everything else is a
// genuine disagreement — one of the two sides is wrong about the machine.
func (r *Report) Agrees(dyn profiler.Status) bool {
	if r.Predicted == dyn {
		return true
	}
	switch r.Predicted {
	case profiler.StatusOK, profiler.StatusMisaligned:
		return dyn == profiler.StatusCacheMiss || dyn == profiler.StatusUnstable
	}
	return false
}

// Analyzer analyzes blocks for one microarchitecture under one set of
// measurement options. It is safe for concurrent use.
type Analyzer struct {
	CPU  *uarch.CPU
	Opts profiler.Options

	prof *profiler.Profiler // runs the functional pass
}

// New builds an analyzer mirroring a profiler.New(cpu, opts).
func New(cpu *uarch.CPU, opts profiler.Options) *Analyzer {
	return &Analyzer{CPU: cpu, Opts: opts, prof: profiler.New(cpu, opts)}
}

// AnalyzeHex analyzes a block given as corpus machine-code hex. Undecodable
// input yields a report with CodeNoDecode and a Crashed prediction (such a
// row cannot be profiled at all).
func (a *Analyzer) AnalyzeHex(hexStr string) *Report {
	raw, err := hex.DecodeString(hexStr)
	if err != nil {
		return &Report{
			Predicted:     profiler.StatusCrashed,
			PredictedName: profiler.StatusCrashed.String(),
			Diags:         []Diag{{Code: CodeNoDecode, Inst: -1, Offset: -1, Msg: fmt.Sprintf("not hex: %v", err)}},
		}
	}
	insts, err := x86.DecodeBlock(raw)
	if err != nil {
		d := Diag{Code: CodeNoDecode, Inst: -1, Offset: -1, Msg: err.Error()}
		if de, ok := err.(*x86.DecodeErr); ok {
			d.Inst, d.Offset = de.Index, de.Offset
		}
		return &Report{
			Hex:           hexStr,
			Predicted:     profiler.StatusCrashed,
			PredictedName: profiler.StatusCrashed.String(),
			Diags:         []Diag{d},
		}
	}
	return a.analyze(&x86.Block{Insts: insts}, raw)
}

// Analyze analyzes a decoded block.
func (a *Analyzer) Analyze(b *x86.Block) *Report { return a.analyze(b, nil) }

// analyze runs the full pipeline; orig, when non-nil, is the block's
// original encoding (for round-trip fidelity checking).
func (a *Analyzer) analyze(b *x86.Block, orig []byte) *Report {
	rep := &Report{NumInsts: len(b.Insts), Predicted: profiler.StatusOK}
	defer func() {
		rep.PredictedName = rep.Predicted.String()
		sortDiags(rep.Diags)
	}()

	// Mirror profiler.Profile: the empty block is Crashed outright.
	if len(b.Insts) == 0 {
		rep.Predicted = profiler.StatusCrashed
		rep.addDiag(Diag{Code: CodeEmpty, Inst: -1, Offset: -1, Msg: "empty block cannot be profiled"})
		return rep
	}

	n := len(b.Insts)
	lo, hi := a.Opts.UnrollFactors(n)

	// Encode and describe each instruction in order, as Prepare does: the
	// facts and bounds need both, and the first failure decides the status
	// with the offending instruction named.
	raws := make([][]byte, n)
	descs := make([]uarch.Desc, n)
	offsets := make([]int, n)
	off := 0
	for i := 0; i < n; i++ {
		offsets[i] = off
		raw, err := memo.Encode(&b.Insts[i])
		if err != nil {
			rep.Predicted = profiler.StatusCrashed
			rep.addDiag(Diag{Code: CodeNoEncode, Inst: i, Offset: off,
				Msg: fmt.Sprintf("%s: %v", b.Insts[i].String(), err)})
			return rep
		}
		d, err := memo.Describe(a.CPU, &b.Insts[i])
		if err != nil {
			if _, ok := err.(*uarch.UnsupportedError); ok {
				rep.Predicted = profiler.StatusUnsupported
				rep.addDiag(Diag{Code: CodeUnsupported, Inst: i, Offset: off, Msg: err.Error()})
			} else {
				rep.Predicted = profiler.StatusCrashed
				rep.addDiag(Diag{Code: CodeNoEncode, Inst: i, Offset: off, Msg: err.Error()})
			}
			return rep
		}
		raws[i] = raw
		descs[i] = d
		off += len(raw)
	}

	var code []byte
	for i := 0; i < n; i++ {
		code = append(code, raws[i]...)
	}
	rep.Hex = hex.EncodeToString(code)
	a.roundTrip(rep, b.Insts, code, orig)

	rep.Facts = computeFacts(b.Insts, offsets, lo, hi, len(code)*hi)

	// Static cycle bounds over the same descriptors; the dependence facts
	// come from the same simulator-congruent chain analysis (rename-aware,
	// address/data asymmetric, store µops excluded from chains).
	rep.Bounds = bound.FromDescs(a.CPU, b.Insts, descs)
	rep.Facts.CritLatency = rep.Bounds.CritPath
	rep.Facts.DepHeight = int(rep.Bounds.DepChain + 0.5)
	for i := range descs {
		if descs[i].Generic {
			rep.addDiag(Diag{Code: CodeVacuousBounds, Inst: i, Offset: offsets[i],
				Msg: fmt.Sprintf("%s: no µop table entry; bounds assume the generic 1-cycle ALU fallback", b.Insts[i].String())})
		}
	}

	a.prof.Functional(b, func(ps *profiler.Pass) {
		rep.Predicted = ps.Status
		if ps.Status != profiler.StatusOK {
			rep.addDiag(faultDiag(ps, b.Insts, offsets))
			return
		}
		if split := observeMem(rep.Facts, ps.Steps, n, uint64(a.CPU.LineSize)); split >= 0 && a.Opts.FilterMisaligned {
			rep.Predicted = profiler.StatusMisaligned
			rep.addDiag(Diag{Code: CodeLineSplit, Inst: split, Offset: offsets[split],
				Msg: fmt.Sprintf("%s: access crosses a cache-line boundary in the timed run", b.Insts[split].String())})
		}
	})
	return rep
}

// faultDiag names the failure that ended a functional pass. The faulting
// instruction is the one after the last traced step. (Prepare failures
// never reach here: analyze reports them first, naming the instruction.)
func faultDiag(ps *profiler.Pass, insts []x86.Inst, offsets []int) Diag {
	i := len(ps.Steps) % len(insts)
	d := Diag{Code: CodeNoExec, Inst: i, Offset: offsets[i], Msg: fmt.Sprintf("%s: %v", insts[i].String(), ps.Err)}
	var fault *vm.Fault
	var align *exec.AlignmentError
	switch {
	case errors.As(ps.Err, &fault):
		switch ps.Refused {
		case profiler.RefusedNoMapping:
			d.Code = CodeNoMapping
		case profiler.RefusedBudget:
			d.Code = CodePageBudget
			d.Msg += fmt.Sprintf(" after %d pages mapped (MaxFaults)", ps.PagesMapped)
		default:
			d.Code = CodeBadAddress
		}
	case errors.As(ps.Err, &align):
		d.Code = CodeBadAddress
	case errors.Is(ps.Err, exec.DivideError{}):
		d.Code = CodeDivideError
	}
	return d
}

// roundTrip checks decode→encode→decode fidelity: code is the block's
// canonical re-encoding, orig its original bytes (nil if unknown).
func (a *Analyzer) roundTrip(rep *Report, insts []x86.Inst, code, orig []byte) {
	again, err := x86.DecodeBlock(code)
	if err != nil {
		d := Diag{Code: CodeRoundTripMismatch, Inst: -1, Offset: -1,
			Msg: fmt.Sprintf("re-encoded block does not decode: %v", err)}
		if de, ok := err.(*x86.DecodeErr); ok {
			d.Inst, d.Offset = de.Index, de.Offset
		}
		rep.addDiag(d)
		return
	}
	if len(again) != len(insts) {
		rep.addDiag(Diag{Code: CodeRoundTripMismatch, Inst: -1, Offset: -1,
			Msg: fmt.Sprintf("round trip yields %d instructions, want %d", len(again), len(insts))})
		return
	}
	for i := range insts {
		if !reflect.DeepEqual(insts[i], again[i]) {
			rep.addDiag(Diag{Code: CodeRoundTripMismatch, Inst: i, Offset: -1,
				Msg: fmt.Sprintf("round trip changes %s to %s", insts[i].String(), again[i].String())})
			return
		}
	}
	if orig != nil && !bytes.Equal(orig, code) {
		rep.addDiag(Diag{Code: CodeRoundTripLossy, Inst: -1, Offset: -1,
			Msg: fmt.Sprintf("re-encodes to %d bytes differing from the %d original (same instructions)", len(code), len(orig))})
	}
}

func (r *Report) addDiag(d Diag) { r.Diags = append(r.Diags, d) }

// sortDiags orders reject diagnostics first, then warns, then infos,
// preserving discovery order within a severity.
func sortDiags(ds []Diag) {
	if len(ds) < 2 {
		return
	}
	ordered := make([]Diag, 0, len(ds))
	for sev := SevReject; sev >= SevInfo; sev-- {
		for _, d := range ds {
			if d.Code.Severity() == sev {
				ordered = append(ordered, d)
			}
		}
	}
	copy(ds, ordered)
}
