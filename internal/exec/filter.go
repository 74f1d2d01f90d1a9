package exec

import (
	"context"
	"fmt"
	"time"

	"patchindex/internal/expr"
	"patchindex/internal/vector"
)

// Filter passes rows for which the predicate evaluates to true (NULL counts
// as false, per SQL semantics). The predicate is compiled into vectorized
// kernels at construction; the keep-list and predicate output vector are
// pooled, so in steady state a filtered batch costs no allocation.
type Filter struct {
	opStats
	child Operator
	pred  *expr.Compiled
	out   *vector.Batch

	predOut    *vector.Vector // pooled boolean predicate output
	keep       *vector.SelVec // pooled keep-list, reused every batch
	emitSel    bool           // consumer (Project) accepts selection vectors
	kernelsOff bool           // sticky: DisableKernels was called
	selOut     vector.Batch   // reused header for Sel-carrying output
	passOut    vector.Batch   // reused header for the all-pass fast path
}

// NewFilter creates a filter operator; pred must be boolean.
func NewFilter(child Operator, pred expr.Expr) (*Filter, error) {
	if pred.Type() != vector.Bool {
		return nil, fmt.Errorf("exec: filter predicate must be boolean, got %s", pred.Type())
	}
	return &Filter{child: child, pred: expr.Compile(pred)}, nil
}

// DisableKernels forces the interpreted predicate evaluator and turns off
// selection-vector emission, restoring the pre-kernel execution path.
func (f *Filter) DisableKernels() {
	f.pred.ForceInterpreted()
	f.emitSel = false
	f.kernelsOff = true
}

// Name returns the operator name.
func (f *Filter) Name() string { return fmt.Sprintf("Filter(%s)", f.pred) }

// Types returns the child types.
func (f *Filter) Types() []vector.Type { return f.child.Types() }

// Open opens the child.
func (f *Filter) Open(ctx context.Context) error {
	f.bindCtx(ctx)
	f.out = vector.NewBatch(f.child.Types())
	f.predOut = vector.GetVec(vector.Bool, 0)
	f.keep = vector.GetSel()
	return f.child.Open(ctx)
}

// Children returns the single input.
func (f *Filter) Children() []Operator { return []Operator{f.child} }

// Next evaluates the predicate and gathers qualifying rows.
func (f *Filter) Next() (*vector.Batch, error) {
	if err := f.ctxErr(); err != nil {
		return nil, err
	}
	start := time.Now()
	b, err := f.next()
	f.stats.AddTime(start)
	if b != nil {
		f.stats.AddBatch(b.RowCount())
	}
	return b, err
}

func (f *Filter) next() (*vector.Batch, error) {
	for {
		b, err := f.child.Next()
		if err != nil {
			return nil, errOp(f, err)
		}
		if b == nil {
			return nil, nil
		}
		if err := f.pred.EvalInto(b, nil, f.predOut); err != nil {
			return nil, errOp(f, err)
		}
		if f.pred.Kernelized() {
			f.stats.KernelBatches++
		}
		keep := f.keep.Idx[:0]
		if f.predOut.Nulls == nil {
			// No-null fast path: the mask check disappears from the loop.
			for i, v := range f.predOut.B {
				if v {
					keep = append(keep, i)
				}
			}
		} else {
			for i, v := range f.predOut.B {
				if v && !f.predOut.Nulls[i] {
					keep = append(keep, i)
				}
			}
		}
		f.keep.Idx = keep
		if len(keep) == 0 {
			continue
		}
		if len(keep) == b.Len() {
			f.passOut = *b
			f.passOut.Contiguous = false
			f.passOut.Sel = nil
			return &f.passOut, nil
		}
		if f.emitSel {
			// The consumer opted in: hand over the input batch with the
			// keep-list attached instead of gathering a dense copy.
			f.selOut = *b
			f.selOut.Contiguous = false
			f.selOut.Sel = keep
			return &f.selOut, nil
		}
		f.out.Reset()
		gatherInto(f.out, b, keep)
		return f.out, nil
	}
}

// Close closes the child and releases the pooled scratch state.
func (f *Filter) Close() error {
	f.out = nil
	vector.PutVec(f.predOut)
	f.predOut = nil
	vector.PutSel(f.keep)
	f.keep = nil
	return f.child.Close()
}

// Project evaluates a list of expressions over every input batch. The
// expressions are compiled into vectorized kernels writing into pooled
// output vectors; when the child is a Filter, Project opts into its
// selection-vector protocol and evaluates only the rows that survived.
// Plain column references on dense batches pass through without copying.
type Project struct {
	opStats
	child Operator
	exprs []*expr.Compiled
	types []vector.Type
	out   *vector.Batch
	owned []*vector.Vector // pooled output vectors, one per expression
}

// NewProject creates a projection operator.
func NewProject(child Operator, exprs []expr.Expr) (*Project, error) {
	if len(exprs) == 0 {
		return nil, fmt.Errorf("exec: projection needs at least one expression")
	}
	types := make([]vector.Type, len(exprs))
	compiled := make([]*expr.Compiled, len(exprs))
	for i, e := range exprs {
		types[i] = e.Type()
		compiled[i] = expr.Compile(e)
	}
	if f, ok := child.(*Filter); ok && !f.kernelsOff {
		f.emitSel = true
	}
	return &Project{child: child, exprs: compiled, types: types}, nil
}

// DisableKernels forces the interpreted evaluator for every projection
// expression (and, transitively, on a Filter child its kernels and
// selection-vector emission).
func (p *Project) DisableKernels() {
	for _, e := range p.exprs {
		e.ForceInterpreted()
	}
	if f, ok := p.child.(*Filter); ok {
		f.DisableKernels()
	}
}

// Name returns the operator name.
func (p *Project) Name() string { return "Project" }

// Types returns the projected types.
func (p *Project) Types() []vector.Type { return p.types }

// Open opens the child.
func (p *Project) Open(ctx context.Context) error {
	p.bindCtx(ctx)
	p.out = &vector.Batch{Vecs: make([]*vector.Vector, len(p.exprs))}
	p.owned = make([]*vector.Vector, len(p.exprs))
	for i, t := range p.types {
		p.owned[i] = vector.GetVec(t, 0)
	}
	return p.child.Open(ctx)
}

// Children returns the single input.
func (p *Project) Children() []Operator { return []Operator{p.child} }

// Next evaluates all projection expressions over the next batch.
func (p *Project) Next() (*vector.Batch, error) {
	if err := p.ctxErr(); err != nil {
		return nil, err
	}
	start := time.Now()
	b, err := p.next()
	p.stats.AddTime(start)
	if b != nil {
		p.stats.AddBatch(b.Len())
	}
	return b, err
}

func (p *Project) next() (*vector.Batch, error) {
	b, err := p.child.Next()
	if err != nil {
		return nil, errOp(p, err)
	}
	if b == nil {
		return nil, nil
	}
	kernels := false
	for i, e := range p.exprs {
		if cr, ok := e.Expr().(*expr.ColRef); ok && b.Sel == nil {
			// Dense column passthrough: share the child's vector.
			p.out.Vecs[i] = b.Vecs[cr.Col]
			continue
		}
		if err := e.EvalInto(b, b.Sel, p.owned[i]); err != nil {
			return nil, errOp(p, err)
		}
		p.out.Vecs[i] = p.owned[i]
		if e.Kernelized() {
			kernels = true
		}
	}
	if kernels {
		p.stats.KernelBatches++
	}
	p.out.BaseRow, p.out.Contiguous, p.out.Sel = 0, false, nil
	return p.out, nil
}

// Close closes the child and releases the pooled output vectors.
func (p *Project) Close() error {
	for i, v := range p.owned {
		vector.PutVec(v)
		p.owned[i] = nil
	}
	p.out = nil
	return p.child.Close()
}

// Limit passes at most n rows.
type Limit struct {
	opStats
	child Operator
	n     int
	seen  int
}

// NewLimit creates a limit operator.
func NewLimit(child Operator, n int) (*Limit, error) {
	if n < 0 {
		return nil, fmt.Errorf("exec: limit must be non-negative, got %d", n)
	}
	return &Limit{child: child, n: n}, nil
}

// Name returns the operator name.
func (l *Limit) Name() string { return fmt.Sprintf("Limit(%d)", l.n) }

// Types returns the child types.
func (l *Limit) Types() []vector.Type { return l.child.Types() }

// Open opens the child and resets the counter.
func (l *Limit) Open(ctx context.Context) error {
	l.bindCtx(ctx)
	l.seen = 0
	return l.child.Open(ctx)
}

// Children returns the single input.
func (l *Limit) Children() []Operator { return []Operator{l.child} }

// Next truncates the stream after n rows.
func (l *Limit) Next() (*vector.Batch, error) {
	if err := l.ctxErr(); err != nil {
		return nil, err
	}
	start := time.Now()
	b, err := l.next()
	l.stats.AddTime(start)
	if b != nil {
		l.stats.AddBatch(b.Len())
	}
	return b, err
}

func (l *Limit) next() (*vector.Batch, error) {
	if l.seen >= l.n {
		return nil, nil
	}
	b, err := l.child.Next()
	if err != nil {
		return nil, errOp(l, err)
	}
	if b == nil {
		return nil, nil
	}
	remain := l.n - l.seen
	if b.Len() <= remain {
		l.seen += b.Len()
		return b, nil
	}
	out := &vector.Batch{Vecs: make([]*vector.Vector, len(b.Vecs))}
	for c, v := range b.Vecs {
		out.Vecs[c] = v.Slice(0, remain)
	}
	l.seen = l.n
	return out, nil
}

// Close closes the child.
func (l *Limit) Close() error { return l.child.Close() }

// gatherInto copies the selected (ascending) row positions of b into the
// reused output batch, bulk-copying consecutive runs. The result is no
// longer contiguous.
func gatherInto(out *vector.Batch, b *vector.Batch, keep []int) {
	out.BaseRow, out.Contiguous = 0, false
	i := 0
	for i < len(keep) {
		j := i + 1
		for j < len(keep) && keep[j] == keep[j-1]+1 {
			j++
		}
		appendRun(out, b, keep[i], keep[j-1]+1)
		i = j
	}
}

// appendRun bulk-copies rows [lo,hi) of every column of b onto out.
func appendRun(out *vector.Batch, b *vector.Batch, lo, hi int) {
	if hi <= lo {
		return
	}
	for c, v := range b.Vecs {
		out.Vecs[c].AppendRange(v, lo, hi)
	}
}
