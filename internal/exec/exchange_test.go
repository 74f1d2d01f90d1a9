package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"patchindex/internal/vector"
)

// blockingOp emits batches forever until its context is cancelled; used to
// prove cancellation and early close stop Exchange workers.
type blockingOp struct {
	opStats
	types []vector.Type
}

func (b *blockingOp) Name() string         { return "blocking" }
func (b *blockingOp) Types() []vector.Type { return b.types }
func (b *blockingOp) Children() []Operator { return nil }
func (b *blockingOp) Close() error         { return nil }

func (b *blockingOp) Open(ctx context.Context) error {
	b.bindCtx(ctx)
	return nil
}

func (b *blockingOp) Next() (*vector.Batch, error) {
	if err := b.ctxErr(); err != nil {
		return nil, err
	}
	return intBatch(1), nil
}

func TestExchangeAllRowsArrive(t *testing.T) {
	defer assertNoGoroutineLeak(t)()
	for _, degree := range []int{0, 1, 2, 8} {
		x, err := NewExchange(degree,
			newMemOp([]vector.Type{vector.Int64}, intBatch(1, 2), intBatch(3)),
			newMemOp([]vector.Type{vector.Int64}),
			newMemOp([]vector.Type{vector.Int64}, intBatch(4, 5, 6)),
			newMemOp([]vector.Type{vector.Int64}, intBatch(7)),
		)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := Collect(x)
		if err != nil {
			t.Fatal(err)
		}
		got := intsOf(t, rows, 0)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if !eqInts(got, []int64{1, 2, 3, 4, 5, 6, 7}) {
			t.Errorf("degree %d: rows = %v", degree, got)
		}
	}
}

// TestExchangeWorkerStats checks the EXPLAIN ANALYZE contract: after a full
// drain and Close, per-worker stats sum to the merged operator stats and
// every morsel was claimed exactly once.
func TestExchangeWorkerStats(t *testing.T) {
	defer assertNoGoroutineLeak(t)()
	x, err := NewExchange(4,
		newMemOp([]vector.Type{vector.Int64}, intBatch(1, 2), intBatch(3)),
		newMemOp([]vector.Type{vector.Int64}, intBatch(4, 5, 6)),
		newMemOp([]vector.Type{vector.Int64}),
		newMemOp([]vector.Type{vector.Int64}, intBatch(7)),
	)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(x) // Collect closes, joining the workers
	if err != nil {
		t.Fatal(err)
	}
	var wRows, wBatches, wMorsels int64
	for _, w := range x.WorkerStats() {
		wRows += w.Rows
		wBatches += w.Batches
		wMorsels += w.Morsels
	}
	if wRows != int64(len(rows)) || wRows != x.Stats().Rows {
		t.Errorf("worker rows %d, collected %d, merged %d", wRows, len(rows), x.Stats().Rows)
	}
	if wBatches != x.Stats().Batches {
		t.Errorf("worker batches %d, merged %d", wBatches, x.Stats().Batches)
	}
	if wMorsels != 4 {
		t.Errorf("morsels claimed = %d, want 4", wMorsels)
	}
}

func TestExchangePropagatesErrors(t *testing.T) {
	defer assertNoGoroutineLeak(t)()
	boom := errors.New("boom")
	bad := newMemOp([]vector.Type{vector.Int64}, intBatch(1), intBatch(2))
	bad.errAfter = 1
	bad.nextErr = boom
	x, err := NewExchange(2,
		newMemOp([]vector.Type{vector.Int64}, intBatch(10)),
		bad,
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(x); !errors.Is(err, boom) {
		t.Errorf("err = %v, want %v", err, boom)
	}
}

func TestExchangePropagatesOpenErrors(t *testing.T) {
	defer assertNoGoroutineLeak(t)()
	boom := errors.New("open failed")
	bad := newMemOp([]vector.Type{vector.Int64})
	bad.openErr = boom
	x, err := NewExchange(2, newMemOp([]vector.Type{vector.Int64}, intBatch(1)), bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(x); !errors.Is(err, boom) {
		t.Errorf("err = %v, want %v", err, boom)
	}
}

// TestExchangeEarlyClose closes the exchange while producers still hold many
// undelivered batches; Close must join every worker without deadlocking, and
// unclaimed children must still be closed.
func TestExchangeEarlyClose(t *testing.T) {
	defer assertNoGoroutineLeak(t)()
	mk := func() *memOp {
		batches := make([]*vector.Batch, 100)
		for i := range batches {
			batches[i] = intBatch(int64(i))
		}
		return newMemOp([]vector.Type{vector.Int64}, batches...)
	}
	kids := []*memOp{mk(), mk(), mk(), mk()}
	x, err := NewExchange(2, kids[0], kids[1], kids[2], kids[3])
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := x.Next(); err != nil {
		t.Fatal(err)
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	for i, k := range kids {
		if !k.closed {
			t.Errorf("child %d not closed", i)
		}
	}
}

// TestExchangeCancellation cancels the query context while children can
// produce forever; all workers must stop within one batch and Next must
// surface the cancellation.
func TestExchangeCancellation(t *testing.T) {
	defer assertNoGoroutineLeak(t)()
	x, err := NewExchange(2,
		&blockingOp{types: []vector.Type{vector.Int64}},
		&blockingOp{types: []vector.Type{vector.Int64}},
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := x.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := x.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	// Drain until the cancellation surfaces; buffered batches may still
	// arrive first, but the stream must end with context.Canceled promptly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		b, err := x.Next()
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			break
		}
		if b == nil {
			break // workers bailed before enqueueing an error: fine too
		}
		if time.Now().After(deadline) {
			t.Fatal("exchange kept producing after cancellation")
		}
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestExchangeValidation(t *testing.T) {
	if _, err := NewExchange(2); err == nil {
		t.Error("empty exchange must fail")
	}
	a := newMemOp([]vector.Type{vector.Int64})
	b := newMemOp([]vector.Type{vector.String})
	if _, err := NewExchange(2, a, b); err == nil {
		t.Error("type mismatch must fail")
	}
}

func TestExchangeClearsContiguity(t *testing.T) {
	defer assertNoGoroutineLeak(t)()
	x, err := NewExchange(1, newMemOp([]vector.Type{vector.Int64}, contiguous(intBatch(1), 7)))
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	b, err := x.Next()
	if err != nil {
		t.Fatal(err)
	}
	if b.Contiguous {
		t.Error("exchange output must not claim contiguity")
	}
}

// TestSortOverExchangeEarlyClose covers the pipeline-breaker interaction: a
// Sort (or Limit) that is closed before draining must propagate Close into
// the Exchange, which joins its workers — no goroutine leaks, no deadlock.
func TestSortOverExchangeEarlyClose(t *testing.T) {
	defer assertNoGoroutineLeak(t)()
	mk := func() *memOp {
		batches := make([]*vector.Batch, 50)
		for i := range batches {
			batches[i] = intBatch(int64(i), int64(i+1))
		}
		return newMemOp([]vector.Type{vector.Int64}, batches...)
	}
	x, err := NewExchange(2, mk(), mk(), mk())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSort(x, []SortKey{{Col: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLimitOverExchangeEarlyClose(t *testing.T) {
	defer assertNoGoroutineLeak(t)()
	mk := func() *memOp {
		batches := make([]*vector.Batch, 50)
		for i := range batches {
			batches[i] = intBatch(int64(i))
		}
		return newMemOp([]vector.Type{vector.Int64}, batches...)
	}
	x, err := NewExchange(2, mk(), mk(), mk())
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLimit(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
}

// multiBatch builds a two-column (group, value) batch.
func groupBatch(pairs ...[2]int64) *vector.Batch {
	b := vector.NewBatch([]vector.Type{vector.Int64, vector.Int64})
	for _, p := range pairs {
		b.Vecs[0].AppendInt64(p[0])
		b.Vecs[1].AppendInt64(p[1])
	}
	return b
}

// aggShapeTypes is the schema of the aggregation-shape differential:
// int64 key, date, string, float64 value, int64 value.
var aggShapeTypes = []vector.Type{vector.Int64, vector.Date, vector.String, vector.Float64, vector.Int64}

// aggShapeRows generates n rows over aggShapeTypes with few distinct keys
// (so groups repeat across inputs); with nulls, every column has NULLs from
// row 10 on, so some merges see a NULL only in a later input.
// Float values are multiples of 0.5 so their sums are exact in any order.
func aggShapeRows(n int, nulls bool) [][]vector.Value {
	rows := make([][]vector.Value, n)
	for i := range rows {
		r := []vector.Value{
			vector.IntValue(int64(i*7) % 11),
			vector.DateValue(int64(i*5) % 9),
			vector.StringValue(fmt.Sprintf("s%d", (i*3)%13)),
			vector.FloatValue(float64(i%17) / 2),
			vector.IntValue(int64(i*i) % 23),
		}
		if nulls {
			for c := range r {
				if i >= 10 && (i+c)%5 == 0 {
					r[c] = vector.NullValue(r[c].Typ)
				}
			}
		}
		rows[i] = r
	}
	return rows
}

// withNullKeys sets the int64 and date key columns of rows to NULL where
// null(i) holds.
func withNullKeys(rows [][]vector.Value, null func(i int) bool) [][]vector.Value {
	for i, r := range rows {
		if null(i) {
			r[0], r[1] = vector.NullValue(r[0].Typ), vector.NullValue(r[1].Typ)
		}
	}
	return rows
}

// allNullRows returns n rows over aggShapeTypes with every value NULL.
func allNullRows(n int) [][]vector.Value {
	rows := make([][]vector.Value, n)
	for i := range rows {
		rows[i] = make([]vector.Value, len(aggShapeTypes))
		for c, t := range aggShapeTypes {
			rows[i][c] = vector.NullValue(t)
		}
	}
	return rows
}

// aggShapeInputs splits rows into k contiguous inputs of batches of at most
// 4 rows; with k >= 3, input 1 is empty.
func aggShapeInputs(t *testing.T, rows [][]vector.Value, k int) [][]*vector.Batch {
	t.Helper()
	inputs := make([][]*vector.Batch, k)
	per := (len(rows) + k - 1) / k
	for i := 0; i < k && len(rows) > 0; i++ {
		if k >= 3 && i == 1 {
			continue
		}
		n := per
		if k >= 3 && i == 2 {
			n = 2 * per
		}
		if n > len(rows) {
			n = len(rows)
		}
		chunk := rows[:n]
		rows = rows[n:]
		for len(chunk) > 0 {
			m := 4
			if m > len(chunk) {
				m = len(chunk)
			}
			b := vector.NewBatch(aggShapeTypes)
			for _, r := range chunk[:m] {
				for c, v := range r {
					if err := b.Vecs[c].AppendValue(v); err != nil {
						t.Fatal(err)
					}
				}
			}
			inputs[i] = append(inputs[i], b)
			chunk = chunk[m:]
		}
	}
	return inputs
}

// TestParallelAggMatchesHashAgg is the determinism contract: an aggregation
// over N inputs must emit the same output as the generic keyer over one
// input, a Union of the same children — including group order, which is
// first occurrence for every shape but the string DISTINCT set. That one
// promises no order, so it compares as a sorted multiset.
func TestParallelAggMatchesHashAgg(t *testing.T) {
	defer assertNoGoroutineLeak(t)()
	shapes := []struct {
		name      string
		groupCols []int
		aggs      []AggSpec
		unordered bool
	}{
		{"distinct int64", []int{0}, nil, false},
		{"distinct date", []int{1}, nil, false},
		{"distinct string", []int{2}, nil, true},
		{"distinct two columns", []int{0, 2}, nil, false},
		{"count distinct int64", nil, []AggSpec{{Func: CountDistinct, Col: 4}}, false},
		{"count distinct string", nil, []AggSpec{{Func: CountDistinct, Col: 2}}, false},
		{"grouped", []int{0}, []AggSpec{
			{Func: Count, Col: 4}, {Func: CountStar}, {Func: Sum, Col: 4}, {Func: Sum, Col: 3},
			{Func: Min, Col: 2}, {Func: Max, Col: 3}, {Func: CountDistinct, Col: 1},
		}, false},
		{"grouped date", []int{1}, []AggSpec{
			{Func: CountStar}, {Func: Sum, Col: 0}, {Func: Min, Col: 4}, {Func: Max, Col: 2},
		}, false},
		{"grouped float", []int{3}, []AggSpec{{Func: CountStar}, {Func: Sum, Col: 4}}, false},
		{"global", nil, []AggSpec{
			{Func: CountStar}, {Func: Count, Col: 2}, {Func: Sum, Col: 4}, {Func: Sum, Col: 3},
			{Func: Min, Col: 1}, {Func: Max, Col: 4},
		}, false},
	}
	data := []struct {
		name string
		rows [][]vector.Value
	}{
		{"values", aggShapeRows(40, false)},
		{"nulls", aggShapeRows(40, true)},
		{"zero rows", nil},
		// The typed keyer places the NULL key's group by hand.
		{"null key first", withNullKeys(aggShapeRows(40, false), func(i int) bool { return i == 0 })},
		{"null key middle", withNullKeys(aggShapeRows(40, false), func(i int) bool { return i == 21 })},
		{"only null keys", withNullKeys(aggShapeRows(40, false), func(int) bool { return true })},
		{"all nulls", allNullRows(40)},
	}
	render := func(rows [][]vector.Value, unordered bool) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprint(r)
		}
		if unordered {
			sort.Strings(out)
		}
		return out
	}
	for _, sh := range shapes {
		for _, d := range data {
			for _, k := range []int{1, 3, 8} {
				inputs := aggShapeInputs(t, d.rows, k)
				children := func() []Operator {
					ops := make([]Operator, k)
					for i := range ops {
						ops[i] = newMemOp(aggShapeTypes, inputs[i]...)
					}
					return ops
				}
				u, err := NewUnion(children()...)
				if err != nil {
					t.Fatal(err)
				}
				serial, err := NewHashAgg(u, sh.groupCols, sh.aggs)
				if err != nil {
					t.Fatal(err)
				}
				serial.newPartial = genericPartial(sh.groupCols, sh.aggs, aggShapeTypes)
				wantRows, err := Collect(serial)
				if err != nil {
					t.Fatal(err)
				}
				want := render(wantRows, sh.unordered)
				if sh.name == "global" && d.name == "all nulls" && fmt.Sprint(want) != "[[40 0 NULL NULL NULL NULL]]" {
					t.Errorf("global aggregates over all-NULL input = %v, want COUNT(*) 40, COUNT 0, the rest NULL", want)
				}
				for _, degree := range []int{1, 4} {
					pa, err := NewParallelAgg(degree, sh.groupCols, sh.aggs, children()...)
					if err != nil {
						t.Fatal(err)
					}
					gotRows, err := Collect(pa)
					if err != nil {
						t.Fatal(err)
					}
					got := render(gotRows, sh.unordered)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("%s, %s, %d inputs, degree %d:\n got %v\nwant %v", sh.name, d.name, k, degree, got, want)
					}
				}
			}
		}
	}
}

// TestParallelAggCountDistinct checks that fast-path partials carry sets, not
// counts: a value duplicated across partitions must count once.
func TestParallelAggCountDistinct(t *testing.T) {
	defer assertNoGoroutineLeak(t)()
	pa, err := NewParallelAgg(2, nil, []AggSpec{{Func: CountDistinct, Col: 0}},
		newMemOp([]vector.Type{vector.Int64}, intBatch(1, 2, 3)),
		newMemOp([]vector.Type{vector.Int64}, intBatch(3, 4)),
		newMemOp([]vector.Type{vector.Int64}, intBatch(4, 5, 1)),
	)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(pa)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].I64 != 5 {
		t.Fatalf("count(distinct) = %v, want [[5]]", rows)
	}
}

// TestParallelAggDistinct checks the int64 DISTINCT merges cross-partition
// duplicates, keeping first-occurrence order.
func TestParallelAggDistinct(t *testing.T) {
	defer assertNoGoroutineLeak(t)()
	pa, err := NewParallelAgg(2, []int{0}, nil,
		newMemOp([]vector.Type{vector.Int64}, intBatch(1, 2)),
		newMemOp([]vector.Type{vector.Int64}, intBatch(2, 3)),
	)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(pa)
	if err != nil {
		t.Fatal(err)
	}
	got := intsOf(t, rows, 0)
	if !eqInts(got, []int64{1, 2, 3}) {
		t.Errorf("distinct = %v", got)
	}
}

func TestParallelAggGlobalEmpty(t *testing.T) {
	defer assertNoGoroutineLeak(t)()
	pa, err := NewParallelAgg(2, nil, []AggSpec{{Func: CountStar}},
		newMemOp([]vector.Type{vector.Int64}),
		newMemOp([]vector.Type{vector.Int64}),
	)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(pa)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].I64 != 0 {
		t.Fatalf("global count over empty input = %v, want [[0]]", rows)
	}
}

func TestParallelAggPropagatesErrors(t *testing.T) {
	defer assertNoGoroutineLeak(t)()
	boom := errors.New("agg boom")
	bad := newMemOp([]vector.Type{vector.Int64}, intBatch(1))
	bad.errAfter = 0
	bad.nextErr = boom
	pa, err := NewParallelAgg(2, nil, []AggSpec{{Func: Sum, Col: 0}},
		newMemOp([]vector.Type{vector.Int64}, intBatch(2)),
		bad,
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(pa); !errors.Is(err, boom) {
		t.Errorf("err = %v, want %v", err, boom)
	}
}

// TestParallelAggCancellation cancels before Open; the pipeline breaker must
// return promptly with the context error instead of aggregating.
func TestParallelAggCancellation(t *testing.T) {
	defer assertNoGoroutineLeak(t)()
	pa, err := NewParallelAgg(2, nil, []AggSpec{{Func: CountStar}},
		&blockingOp{types: []vector.Type{vector.Int64}},
		&blockingOp{types: []vector.Type{vector.Int64}},
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		err := pa.Open(ctx)
		if err == nil {
			pa.Close()
		}
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Open = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ParallelAgg.Open did not return after cancellation")
	}
	if err := pa.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestParallelAggWorkerStats(t *testing.T) {
	defer assertNoGoroutineLeak(t)()
	pa, err := NewParallelAgg(4, []int{0}, []AggSpec{{Func: CountStar}},
		newMemOp([]vector.Type{vector.Int64}, intBatch(1, 2), intBatch(3)),
		newMemOp([]vector.Type{vector.Int64}, intBatch(4)),
		newMemOp([]vector.Type{vector.Int64}, intBatch(5, 6)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(pa); err != nil {
		t.Fatal(err)
	}
	var inRows, morsels int64
	for _, w := range pa.WorkerStats() {
		inRows += w.Rows
		morsels += w.Morsels
	}
	if inRows != 6 {
		t.Errorf("worker input rows = %d, want 6", inRows)
	}
	if morsels != 3 {
		t.Errorf("morsels = %d, want 3", morsels)
	}
}

// TestExchangeName pins the EXPLAIN rendering of the operator header.
func TestExchangeName(t *testing.T) {
	x, err := NewExchange(1, newMemOp([]vector.Type{vector.Int64}))
	if err != nil {
		t.Fatal(err)
	}
	if want := "Exchange(1, dop=1)"; x.Name() != want {
		t.Errorf("Name = %q, want %q", x.Name(), want)
	}
}
