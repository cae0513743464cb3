// Command bhive-profile measures the steady-state throughput (cycles per
// iteration) of one x86-64 basic block on a simulated microarchitecture,
// using the full BHive methodology or any ablated subset of it.
//
// Usage:
//
//	bhive-profile -uarch haswell -hex 4801d8
//	bhive-profile -uarch haswell -block 'add rax, rbx'
//	echo 'xor %edx, %edx
//	div %ecx' | bhive-profile -models
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"bhive"
	"bhive/internal/models"
	"bhive/internal/uarch"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "bhive-profile:", err)
		}
		os.Exit(1)
	}
}

// run keeps every cleanup (CPU/heap profile flushing) on a defer behind a
// single exit point, so error paths cannot skip them the way the old
// fatal()/os.Exit(1) shape did.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("bhive-profile", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		arch      = fs.String("uarch", "haswell", "microarchitecture: ivybridge, haswell, skylake, icelake")
		hexStr    = fs.String("hex", "", "basic block as machine-code hex")
		blockText = fs.String("block", "", "basic block as assembly (Intel or AT&T; default: read stdin)")
		noMap     = fs.Bool("no-mapping", false, "disable page mapping (Agner-script baseline)")
		naive     = fs.Bool("naive-unroll", false, "time a single 100x unroll instead of the derived method")
		keepSub   = fs.Bool("keep-subnormals", false, "do not set MXCSR FTZ/DAZ")
		noFilter  = fs.Bool("no-misaligned-filter", false, "accept measurements with line-splitting accesses")
		runModels = fs.Bool("models", false, "also print the analytical models' predictions")
		report    = fs.Bool("report", false, "print an IACA-style port-pressure report")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProf != "" {
		f, cerr := os.Create(*cpuProf)
		if cerr != nil {
			return cerr
		}
		if cerr := pprof.StartCPUProfile(f); cerr != nil {
			f.Close()
			return cerr
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, cerr := os.Create(*memProf)
			if cerr != nil {
				if err == nil {
					err = cerr
				}
				return
			}
			runtime.GC()
			werr := pprof.WriteHeapProfile(f)
			f.Close()
			if werr != nil && err == nil {
				err = werr
			}
		}()
	}

	block, err := readBlock(*hexStr, *blockText)
	if err != nil {
		return err
	}

	opts := bhive.DefaultOptions()
	if *noMap {
		opts = bhive.BaselineOptions()
	}
	if *naive {
		opts.DerivedThroughput = false
	}
	if *keepSub {
		opts.DisableSubnormals = false
	}
	if *noFilter {
		opts.FilterMisaligned = false
	}

	res, err := bhive.ProfileWith(*arch, block, opts)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "uarch:       %s\n", *arch)
	fmt.Fprintf(stdout, "block:       %d instructions\n", len(block.Insts))
	fmt.Fprintf(stdout, "status:      %s\n", res.Status)
	if res.Status == bhive.StatusOK {
		fmt.Fprintf(stdout, "throughput:  %.2f cycles/iteration\n", res.Throughput)
		fmt.Fprintf(stdout, "unroll:      %d and %d\n", res.UnrollLo, res.UnrollHi)
		fmt.Fprintf(stdout, "pages:       %d mapped by the monitor\n", res.PagesMapped)
		fmt.Fprintf(stdout, "samples:     %d/%d clean\n", res.CleanSamples, 16)
	} else if res.Err != nil {
		fmt.Fprintf(stdout, "error:       %v\n", res.Err)
	}

	if *runModels {
		ms, merr := bhive.Models(*arch)
		if merr != nil {
			return merr
		}
		fmt.Fprintln(stdout, "models:")
		for _, m := range ms {
			p, perr := m.Predict(block)
			if perr != nil {
				fmt.Fprintf(stdout, "  %-9s -  (%v)\n", m.Name(), perr)
				continue
			}
			fmt.Fprintf(stdout, "  %-9s %.2f\n", m.Name(), p)
		}
	}

	if *report {
		cpu, uerr := uarch.ByName(*arch)
		if uerr != nil {
			return uerr
		}
		text, rerr := models.Report(cpu, block)
		if rerr != nil {
			return rerr
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, text)
	}
	return nil
}

func readBlock(hexStr, blockText string) (*bhive.Block, error) {
	switch {
	case hexStr != "":
		return bhive.BlockFromHex(hexStr)
	case blockText != "":
		return bhive.ParseBlock(blockText, bhive.SyntaxAuto)
	default:
		raw, err := io.ReadAll(os.Stdin)
		if err != nil {
			return nil, err
		}
		return bhive.ParseBlock(string(raw), bhive.SyntaxAuto)
	}
}
