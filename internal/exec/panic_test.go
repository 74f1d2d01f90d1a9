package exec

import (
	"context"
	"errors"
	"testing"

	"patchindex/internal/morsel"
	"patchindex/internal/vector"
)

// panicOp emits one batch, then panics in Next: a stand-in for an operator
// bug reached mid-stream.
type panicOp struct {
	opStats
	sent bool
}

func (p *panicOp) Name() string         { return "panic" }
func (p *panicOp) Types() []vector.Type { return []vector.Type{vector.Int64} }
func (p *panicOp) Children() []Operator { return nil }
func (p *panicOp) Close() error         { return nil }

func (p *panicOp) Open(ctx context.Context) error {
	p.bindCtx(ctx)
	p.sent = false
	return nil
}

func (p *panicOp) Next() (*vector.Batch, error) {
	if p.sent {
		panic("operator test panic")
	}
	p.sent = true
	return intBatch(1, 2, 3), nil
}

// TestOperatorPanicBecomesError: a panic in an operator's Next, whether it
// runs inline under a serial HashAgg, on an Exchange worker or on a
// ParallelAgg worker, fails the plan with an *InternalError and leaves no
// goroutine behind.
func TestOperatorPanicBecomesError(t *testing.T) {
	ints := []vector.Type{vector.Int64}
	many := func() Operator {
		batches := make([]*vector.Batch, 50)
		for i := range batches {
			batches[i] = intBatch(int64(i))
		}
		return newMemOp(ints, batches...)
	}
	cases := []struct {
		name  string
		build func() (Operator, error)
	}{
		{"serial HashAgg", func() (Operator, error) {
			return NewHashAgg(&panicOp{}, nil, []AggSpec{{Func: CountStar}})
		}},
		{"Exchange worker", func() (Operator, error) {
			return NewExchange(2, many(), &panicOp{}, many())
		}},
		{"ParallelAgg worker", func() (Operator, error) {
			return NewParallelAgg(2, nil, []AggSpec{{Func: Sum, Col: 0}}, many(), &panicOp{}, many())
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer assertNoGoroutineLeak(t)()
			op, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			_, err = Collect(op)
			var ie *morsel.InternalError
			if !errors.As(err, &ie) || ie.Value != "operator test panic" || len(ie.Stack) == 0 {
				t.Fatalf("err = %v, want an *InternalError with a stack", err)
			}
		})
	}
}
