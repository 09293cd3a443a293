package main

import (
	"fmt"
	"time"

	"cinderella/internal/asm"
	"cinderella/internal/cc"
	"cinderella/internal/cfg"
	"cinderella/internal/constraint"
	"cinderella/internal/ipet"
	"cinderella/internal/isa"
	"cinderella/internal/serve"
)

// reference is the library's answer for one (program, annotations) pair:
// the exact WCET and BCET in cycles, or the error the library returned.
type reference struct {
	wcet, bcet int64
	err        error
}

// refKey names one distinct (program, annotations) pair of a run.
type refKey struct {
	program string // Source or Asm text
	annots  string
}

func keyOf(sp serve.ProgramSpec, annots string) refKey {
	return refKey{program: sp.Source + sp.Asm, annots: annots}
}

// references computes the library one-shot answer for every distinct
// (program, annotations) pair: ipet.New, Apply, Estimate, with one worker
// and certification off. Each program is compiled once for all of its
// annotation texts. A program that does not build is an error; an
// analysis error is that pair's reference.
func references(specs map[refKey]serve.ProgramSpec) (map[refKey]reference, error) {
	byProgram := map[string][]refKey{}
	for k := range specs {
		byProgram[k.program] = append(byProgram[k.program], k)
	}
	out := make(map[refKey]reference, len(specs))
	for _, keys := range byProgram {
		sp := specs[keys[0]]
		prog, err := buildReferenceProgram(sp)
		if err != nil {
			return nil, err
		}
		opts := ipet.DefaultOptions()
		opts.Workers = 1
		opts.March.Timing = isa.Profiles()["i960kb"]
		for _, k := range keys {
			out[k] = boundedOneShot(prog, sp.Root, opts, k.annots)
		}
	}
	return out, nil
}

// referenceLimit bounds one reference analysis. A solve that does not
// finish is left running until the benchmark exits; its pair counts as
// unverifiable.
const referenceLimit = 10 * time.Second

func boundedOneShot(prog *cfg.Program, root string, opts ipet.Options, annots string) reference {
	ch := make(chan reference, 1)
	go func() { ch <- oneShot(prog, root, opts, annots) }()
	select {
	case r := <-ch:
		return r
	case <-time.After(referenceLimit):
		return reference{err: fmt.Errorf("library one-shot did not finish within %s", referenceLimit)}
	}
}

// oneShot is the library's one-shot analysis of one annotation text.
func oneShot(prog *cfg.Program, root string, opts ipet.Options, annots string) reference {
	an, err := ipet.New(prog, root, opts)
	if err != nil {
		return reference{err: err}
	}
	file, err := constraint.ParseNamed("annotations", annots)
	if err != nil {
		return reference{err: err}
	}
	if err := an.Apply(file); err != nil {
		return reference{err: err}
	}
	est, err := an.Estimate()
	if err != nil {
		return reference{err: err}
	}
	if !est.WCET.Exact || !est.BCET.Exact {
		return reference{err: fmt.Errorf("library answer is not exact")}
	}
	return reference{wcet: est.WCET.Cycles, bcet: est.BCET.Cycles}
}

func buildReferenceProgram(sp serve.ProgramSpec) (*cfg.Program, error) {
	var (
		exe *asm.Executable
		err error
	)
	if sp.Asm != "" {
		exe, err = asm.Assemble(sp.Asm)
	} else {
		exe, _, err = cc.Build(sp.Source)
	}
	if err != nil {
		return nil, fmt.Errorf("reference %s: build: %w", sp.Root, err)
	}
	prog, err := cfg.Build(exe)
	if err != nil {
		return nil, fmt.Errorf("reference %s: cfg: %w", sp.Root, err)
	}
	return prog, nil
}
