package analysis

// Forward dataflow iteration over a CFG; auditcheck runs an obligation
// lattice on it. States are opaque to the iterator; the analysis supplies
// transfer, join, and equality. Termination is guaranteed for monotone
// finite lattices; a visit budget bounds the loop for everything else
// (the fuzz target in dataflow_test.go hunts for shapes that exhaust
// it).

import "go/ast"

// A FlowAnalysis defines one forward dataflow problem.
type FlowAnalysis interface {
	// Entry returns the state on entry to the function.
	Entry() any
	// Clone returns an independent copy of a state the iterator may
	// mutate through Transfer/Join.
	Clone(state any) any
	// Transfer applies one CFG node to the state and returns the result
	// (it owns state and may mutate it in place).
	Transfer(state any, n ast.Node) any
	// Join merges src into dst and returns the result. It must be an
	// upper bound of both (monotone joins converge; anything else is
	// stopped by the visit budget).
	Join(dst, src any) any
	// Equal reports whether two states are equal (fixpoint detection).
	Equal(a, b any) bool
	// EdgeTransfer refines a state crossing edge e (branch-condition
	// pruning). It owns state. Implementations that don't refine can
	// return it unchanged.
	EdgeTransfer(state any, e *Edge) any
}

// NoEdgeRefinement is an embeddable default EdgeTransfer.
type NoEdgeRefinement struct{}

// EdgeTransfer returns the state unchanged.
func (NoEdgeRefinement) EdgeTransfer(state any, _ *Edge) any { return state }

// maxVisitsPerBlock bounds worklist revisits: a monotone analysis over
// these lattices stabilizes in a handful of passes, so the budget only
// exists to make non-convergence (an analysis bug) a detectable
// outcome instead of a hang.
const maxVisitsPerBlock = 64

// Forward runs the analysis to fixpoint and returns the entry state of
// every block (indexed by Block.ID; nil for unreachable blocks) and
// whether the iteration converged within its budget. Analyzers then
// replay Transfer over each reachable block's nodes to report findings
// at exact positions.
func (c *CFG) Forward(fa FlowAnalysis) (in []any, converged bool) {
	in = make([]any, len(c.Blocks))
	entry := c.Entry()
	in[entry.ID] = fa.Entry()
	work := []*Block{entry}
	queued := make([]bool, len(c.Blocks))
	queued[entry.ID] = true
	budget := maxVisitsPerBlock * (len(c.Blocks) + 4)
	for len(work) > 0 {
		if budget--; budget < 0 {
			return in, false
		}
		blk := work[0]
		work = work[1:]
		queued[blk.ID] = false
		state := fa.Clone(in[blk.ID])
		for _, n := range blk.Nodes {
			state = fa.Transfer(state, n)
		}
		for i := range blk.Succs {
			e := &blk.Succs[i]
			out := fa.EdgeTransfer(fa.Clone(state), e)
			tid := e.To.ID
			if in[tid] == nil {
				in[tid] = out
			} else {
				merged := fa.Join(fa.Clone(in[tid]), out)
				if fa.Equal(merged, in[tid]) {
					continue
				}
				in[tid] = merged
			}
			if !queued[tid] {
				queued[tid] = true
				work = append(work, e.To)
			}
		}
	}
	return in, true
}
