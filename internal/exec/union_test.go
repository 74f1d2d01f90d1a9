package exec

import (
	"context"
	"math/rand"
	"testing"

	"patchindex/internal/vector"
)

func TestUnionConcatenates(t *testing.T) {
	u, err := NewUnion(
		newMemOp([]vector.Type{vector.Int64}, intBatch(1, 2)),
		newMemOp([]vector.Type{vector.Int64}),
		newMemOp([]vector.Type{vector.Int64}, intBatch(3)),
	)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(u)
	if err != nil {
		t.Fatal(err)
	}
	if !eqInts(intsOf(t, rows, 0), []int64{1, 2, 3}) {
		t.Errorf("union = %v", rows)
	}
}

func TestUnionValidation(t *testing.T) {
	if _, err := NewUnion(); err == nil {
		t.Error("empty union must fail")
	}
	a := newMemOp([]vector.Type{vector.Int64})
	b := newMemOp([]vector.Type{vector.String})
	if _, err := NewUnion(a, b); err == nil {
		t.Error("type mismatch must fail")
	}
	c := newMemOp([]vector.Type{vector.Int64, vector.Int64})
	if _, err := NewUnion(a, c); err == nil {
		t.Error("arity mismatch must fail")
	}
}

func TestUnionClearsContiguity(t *testing.T) {
	u, _ := NewUnion(newMemOp([]vector.Type{vector.Int64}, contiguous(intBatch(1), 0)))
	if err := u.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	b, err := u.Next()
	if err != nil {
		t.Fatal(err)
	}
	if b.Contiguous {
		t.Error("union output must not claim contiguity")
	}
}

func TestMergeUnionOrders(t *testing.T) {
	u, err := NewMergeUnion([]SortKey{{Col: 0}},
		newMemOp([]vector.Type{vector.Int64}, intBatch(1, 4, 9)),
		newMemOp([]vector.Type{vector.Int64}, intBatch(2, 3, 10)),
		newMemOp([]vector.Type{vector.Int64}, intBatch(5)),
	)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(u)
	if err != nil {
		t.Fatal(err)
	}
	if !eqInts(intsOf(t, rows, 0), []int64{1, 2, 3, 4, 5, 9, 10}) {
		t.Errorf("merge union = %v", rows)
	}
}

func TestMergeUnionDescending(t *testing.T) {
	u, err := NewMergeUnion([]SortKey{{Col: 0, Desc: true}},
		newMemOp([]vector.Type{vector.Int64}, intBatch(9, 4, 1)),
		newMemOp([]vector.Type{vector.Int64}, intBatch(10, 3)),
	)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(u)
	if err != nil {
		t.Fatal(err)
	}
	if !eqInts(intsOf(t, rows, 0), []int64{10, 9, 4, 3, 1}) {
		t.Errorf("desc merge union = %v", rows)
	}
}

func TestMergeUnionValidation(t *testing.T) {
	a := newMemOp([]vector.Type{vector.Int64})
	if _, err := NewMergeUnion(nil, a); err == nil {
		t.Error("no keys must fail")
	}
	if _, err := NewMergeUnion([]SortKey{{Col: 4}}, a); err == nil {
		t.Error("bad key column must fail")
	}
	if _, err := NewMergeUnion([]SortKey{{Col: 0}}); err == nil {
		t.Error("no children must fail")
	}
}

func TestMergeUnionLargeBatches(t *testing.T) {
	// Outputs spanning several BatchSize chunks.
	mk := func(start, step, n int64) *memOp {
		var batches []*vector.Batch
		b := vector.NewBatch([]vector.Type{vector.Int64})
		for i := int64(0); i < n; i++ {
			b.Vecs[0].AppendInt64(start + i*step)
			if b.Len() == vector.BatchSize {
				batches = append(batches, b)
				b = vector.NewBatch([]vector.Type{vector.Int64})
			}
		}
		if b.Len() > 0 {
			batches = append(batches, b)
		}
		return newMemOp([]vector.Type{vector.Int64}, batches...)
	}
	u, err := NewMergeUnion([]SortKey{{Col: 0}}, mk(0, 2, 3000), mk(1, 2, 3000))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6000 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := range rows {
		if rows[i][0].I64 != int64(i) {
			t.Fatalf("row %d = %v", i, rows[i][0])
		}
	}
}

func TestLimitOperator(t *testing.T) {
	src := newMemOp([]vector.Type{vector.Int64}, intBatch(1, 2, 3), intBatch(4, 5))
	l, err := NewLimit(src, 4)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(l)
	if err != nil {
		t.Fatal(err)
	}
	if !eqInts(intsOf(t, rows, 0), []int64{1, 2, 3, 4}) {
		t.Errorf("limit = %v", rows)
	}
	if _, err := NewLimit(src, -1); err == nil {
		t.Error("negative limit must fail")
	}
	l0, _ := NewLimit(newMemOp([]vector.Type{vector.Int64}, intBatch(1)), 0)
	rows, err = Collect(l0)
	if err != nil || len(rows) != 0 {
		t.Errorf("limit 0 = %v, %v", rows, err)
	}
}

// TestUnionTimesOpen: a Sort child does all its work in Open, so a Union
// that timed only Next would report less time than its own child.
func TestUnionTimesOpen(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]int64, 200_000)
	for i := range vals {
		vals[i] = rng.Int63()
	}
	srt, err := NewSort(newMemOp([]vector.Type{vector.Int64}, intBatch(vals...)), []SortKey{{Col: 0}})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUnion(srt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Drain(u); err != nil {
		t.Fatal(err)
	}
	if un, sn := u.Stats().Nanos, srt.Stats().Nanos; un < sn {
		t.Errorf("union reports %d ns, its sort child %d ns", un, sn)
	}
}
