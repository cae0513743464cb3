// Package memo is the process-wide memoization layer for per-instruction
// derivations that the profiler, the analytical models and the classifier
// otherwise re-compute for every dynamic instruction: machine-code
// encoding, the microarchitecture-specific µop decomposition / port-table
// lookup, and the pipeline register-use sets.
//
// All tables are keyed by instruction value (opcode + operands) — and, for
// the µop descriptions, by microarchitecture name — so results are shared
// across goroutines, profilers, models and unroll factors. Entries are
// immutable once published: callers must treat returned slices as
// read-only, which every consumer in this repository does (the pipeline
// copies µop specs before mutating latencies).
package memo

import (
	"sync"

	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// maxArgs is the operand-count ceiling for memoizable instructions; x86
// instructions in this subset carry at most three operands, so the
// fallback (direct computation, no caching) is effectively never taken.
const maxArgs = 4

// instKey is a comparable identity for an instruction value.
type instKey struct {
	op   x86.Op
	n    uint8
	args [maxArgs]x86.Operand
}

// keyOf builds the memo key; ok is false for instructions with too many
// operands to be representable (these fall back to direct computation).
func keyOf(in *x86.Inst) (instKey, bool) {
	if len(in.Args) > maxArgs {
		return instKey{}, false
	}
	k := instKey{op: in.Op, n: uint8(len(in.Args))}
	copy(k.args[:], in.Args)
	return k, true
}

// descKey extends instKey with the microarchitecture and the raw/renamed
// view (Describe vs DescribeRaw).
type descKey struct {
	cpu string
	raw bool
	ik  instKey
}

type descEntry struct {
	d   uarch.Desc
	err error
}

type encEntry struct {
	raw []byte
	err error
}

type regEntry struct {
	addr, data, writes []uint8
}

var (
	descs sync.Map // descKey -> descEntry
	encs  sync.Map // instKey -> encEntry
	regs  sync.Map // instKey -> regEntry
	preps sync.Map // descKey -> *PreparedInst
)

// PreparedInst bundles every per-instruction derivation program
// preparation needs — encoding, µop description and register-use sets —
// resolved together so the hot path pays one memo lookup (one key hash)
// per instruction instead of three. Entries are immutable and shared:
// callers must not mutate any field.
type PreparedInst struct {
	Raw                []byte
	Desc               uarch.Desc
	Addr, Data, Writes []uint8
	// LCP marks encodings with a length-changing prefix (0x66 shrinking an
	// immediate), which stall the modeled predecoder.
	LCP bool
	// Err is the first error of encoding then description; the successful
	// derivations are still populated.
	Err error
}

// Prepared returns the combined memo entry for (instruction, µarch).
func Prepared(cpu *uarch.CPU, in *x86.Inst) *PreparedInst {
	ik, ok := keyOf(in)
	if !ok {
		return preparedDirect(cpu, in)
	}
	k := descKey{cpu: cpu.Name, ik: ik}
	if v, hit := preps.Load(k); hit {
		return v.(*PreparedInst)
	}
	p := preparedDirect(cpu, in)
	preps.Store(k, p)
	return p
}

func preparedDirect(cpu *uarch.CPU, in *x86.Inst) *PreparedInst {
	p := new(PreparedInst)
	p.Raw, p.Err = Encode(in)
	p.LCP = x86.LengthChangingPrefix(p.Raw)
	if d, err := Describe(cpu, in); p.Err == nil {
		p.Desc, p.Err = d, err
	} else {
		p.Desc = d
	}
	p.Addr, p.Data, p.Writes = RegSets(in)
	return p
}

// Describe is cpu.Describe memoized by (instruction, µarch).
func Describe(cpu *uarch.CPU, in *x86.Inst) (uarch.Desc, error) {
	return describe(cpu, in, false)
}

// DescribeRaw is cpu.DescribeRaw memoized by (instruction, µarch).
func DescribeRaw(cpu *uarch.CPU, in *x86.Inst) (uarch.Desc, error) {
	return describe(cpu, in, true)
}

func describe(cpu *uarch.CPU, in *x86.Inst, raw bool) (uarch.Desc, error) {
	ik, ok := keyOf(in)
	if !ok {
		return describeDirect(cpu, in, raw)
	}
	k := descKey{cpu: cpu.Name, raw: raw, ik: ik}
	if v, hit := descs.Load(k); hit {
		e := v.(descEntry)
		return e.d, e.err
	}
	d, err := describeDirect(cpu, in, raw)
	descs.Store(k, descEntry{d: d, err: err})
	return d, err
}

func describeDirect(cpu *uarch.CPU, in *x86.Inst, raw bool) (uarch.Desc, error) {
	if raw {
		return cpu.DescribeRaw(in)
	}
	return cpu.Describe(in)
}

// Encode is x86.Encode memoized by instruction. The returned byte slice is
// shared: callers must not mutate it.
func Encode(in *x86.Inst) ([]byte, error) {
	k, ok := keyOf(in)
	if !ok {
		return x86.Encode(*in)
	}
	if v, hit := encs.Load(k); hit {
		e := v.(encEntry)
		return e.raw, e.err
	}
	raw, err := x86.Encode(*in)
	encs.Store(k, encEntry{raw: raw, err: err})
	return raw, err
}

// RegFlags is the pipeline's status-flags register id (kept in sync with
// pipeline.RegFlags by TestRegFlagsMatchesPipeline).
const RegFlags = 32

// RegSets maps an instruction's register usage onto the pipeline register
// ids (0–15 GPRs by 64-bit base, 16–31 vector registers by YMM base, 32
// the flags), memoized by instruction. The returned slices are shared:
// callers must not mutate them.
func RegSets(in *x86.Inst) (addr, data, writes []uint8) {
	k, ok := keyOf(in)
	if !ok {
		return regSets(in)
	}
	if v, hit := regs.Load(k); hit {
		e := v.(regEntry)
		return e.addr, e.data, e.writes
	}
	a, d, w := regSets(in)
	regs.Store(k, regEntry{addr: a, data: d, writes: w})
	return a, d, w
}

// regSets computes the register-use sets (previously machine.RegSets).
func regSets(in *x86.Inst) (addr, data, writes []uint8) {
	id := func(r x86.Reg) (uint8, bool) {
		switch b := r.Base64(); b.Class() {
		case x86.ClassGP64:
			return uint8(b.Num()), true
		case x86.ClassYMM:
			return uint8(16 + b.Num()), true
		}
		return 0, false
	}
	for k, a := range in.Args {
		switch a.Kind {
		case x86.KindReg:
			r, w := in.ArgIO(k)
			// Sub-register writes merge, hence also read (RegReads models
			// this); replicate that rule here.
			merge := w && (a.Reg.Class() == x86.ClassGP8 || a.Reg.Class() == x86.ClassGP16)
			if r || merge {
				if n, ok := id(a.Reg); ok {
					data = append(data, n)
				}
			}
			if w {
				if n, ok := id(a.Reg); ok {
					writes = append(writes, n)
				}
			}
		case x86.KindMem:
			if n, ok := id(a.Mem.Base); ok {
				addr = append(addr, n)
			}
			if n, ok := id(a.Mem.Index); ok {
				addr = append(addr, n)
			}
		}
	}
	for _, r := range in.Op.ImplicitReads() {
		if n, ok := id(r); ok {
			data = append(data, n)
		}
	}
	for _, r := range in.Op.ImplicitWrites() {
		if n, ok := id(r); ok {
			writes = append(writes, n)
		}
	}
	if in.Op.ReadsFlags() {
		data = append(data, RegFlags)
	}
	if in.Op.WritesFlags() {
		writes = append(writes, RegFlags)
	}
	return addr, data, writes
}
