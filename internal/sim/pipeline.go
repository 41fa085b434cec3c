package sim

import "repro/internal/graph"

// Pipeline is one collective algorithm as a caller of RunPipeline hands it
// over: it builds the node's machine and arranges for done to receive the
// node's result when the machine finishes.
type Pipeline[T any] func(env *Env, done func(T)) StepProgram

// RunPipeline executes p on every node of g under cfg and returns the
// per-node results indexed by node ID, with RunStep's error contract.
func RunPipeline[T any](g *graph.Graph, cfg Config, p Pipeline[T]) ([]T, Metrics, error) {
	out := make([]T, g.N())
	m, err := RunStep(g, cfg, func(env *Env) StepProgram {
		id := env.ID()
		return p(env, func(res T) { out[id] = res })
	})
	if err != nil {
		return nil, m, err
	}
	return out, m, nil
}
