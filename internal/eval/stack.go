package eval

import (
	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/embedding"
	"recycle/internal/graph"
	"recycle/internal/rotation"
	"recycle/internal/route"
	"recycle/internal/telemetry"
	"recycle/internal/topo"
)

// stack is the compiled PR stack every harness runs on: the topology's
// graph, its rotation system, the Full protocol over them — the
// reference, its Routes() the hop-count table — and the FIB compiled
// from it.
type stack struct {
	g    *graph.Graph
	sys  *rotation.System
	prot *core.Protocol
	fib  *dataplane.FIB
}

// embed returns the topology's shipped embedding, or the automatic
// embedder's when it ships none.
func embed(tp topo.Topology) (*rotation.System, error) {
	if tp.Embedding != nil {
		return tp.Embedding, nil
	}
	return embedding.Auto{Seed: 1}.Embed(tp.Graph)
}

// buildStack is the one place a harness turns a topology into a
// compiled dataplane. opts carries the tracer and registry of the
// harnesses that trace or meter their compile; the zero value is
// dataplane.Compile.
func buildStack(tp topo.Topology, opts dataplane.CompileOptions) (*stack, error) {
	sys, err := embed(tp)
	if err != nil {
		return nil, err
	}
	prot, err := core.New(tp.Graph, sys, route.Build(tp.Graph, route.HopCount), core.Config{Variant: core.Full})
	if err != nil {
		return nil, err
	}
	fib, err := dataplane.CompileWithOptions(prot, nil, opts)
	if err != nil {
		return nil, err
	}
	return &stack{g: tp.Graph, sys: sys, prot: prot, fib: fib}, nil
}

// recompiler starts a live Recompiler at the stack's FIB, reporting to
// the tracer and registry (either may be nil).
func (s *stack) recompiler(tracer *telemetry.Tracer, reg *telemetry.Registry) (*dataplane.Recompiler, error) {
	rec, err := dataplane.NewRecompiler(s.prot, nil, s.fib)
	if err != nil {
		return nil, err
	}
	rec.SetTracer(tracer)
	if reg != nil {
		rec.Register(reg)
	}
	return rec, nil
}
