package patch

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestChooseCrossover(t *testing.T) {
	// 1/64 of the rows or fewer: identifier; above: bitmap.
	if Choose(0, 1000) != Identifier {
		t.Error("empty set should be identifier")
	}
	if Choose(15, 1000) != Identifier { // 1.5 % <= 1.5625 %
		t.Error("below crossover should be identifier")
	}
	if Choose(16, 1000) != Bitmap { // 1.6 % > 1.5625 %
		t.Error("above crossover should be bitmap")
	}
	if Choose(5, 0) != Identifier {
		t.Error("zero rows defaults to identifier")
	}
}

func TestKindString(t *testing.T) {
	if Identifier.String() != "identifier" || Bitmap.String() != "bitmap" || Auto.String() != "auto" {
		t.Error("kind names wrong")
	}
}

func TestIdentifierSetBasics(t *testing.T) {
	s, err := NewIdentifierSet([]uint64{1, 5, 9}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind() != Identifier || s.Cardinality() != 3 || s.NumRows() != 12 {
		t.Error("metadata wrong")
	}
	if s.MemoryBytes() != 24 {
		t.Errorf("memory = %d, want 24 (8 bytes per id)", s.MemoryBytes())
	}
	for _, tc := range []struct {
		row  uint64
		want bool
	}{{0, false}, {1, true}, {5, true}, {9, true}, {10, false}, {11, false}} {
		if got := s.Contains(tc.row); got != tc.want {
			t.Errorf("Contains(%d) = %v, want %v", tc.row, got, tc.want)
		}
	}
}

func TestIdentifierSetValidation(t *testing.T) {
	if _, err := NewIdentifierSet([]uint64{3, 1}, 10); err == nil {
		t.Error("unsorted ids must be rejected")
	}
	if _, err := NewIdentifierSet([]uint64{2, 2}, 10); err == nil {
		t.Error("duplicate ids must be rejected")
	}
	if _, err := NewIdentifierSet([]uint64{10}, 10); err == nil {
		t.Error("out-of-range id must be rejected")
	}
	if _, err := NewIdentifierSet(nil, 10); err != nil {
		t.Errorf("empty set is fine: %v", err)
	}
}

func TestBitmapSetBasics(t *testing.T) {
	s, err := NewBitmapSet([]uint64{0, 63, 64, 127}, 130)
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind() != Bitmap || s.Cardinality() != 4 || s.NumRows() != 130 {
		t.Error("metadata wrong")
	}
	// 130 rows -> 3 words -> 24 bytes.
	if s.MemoryBytes() != 24 {
		t.Errorf("memory = %d, want 24", s.MemoryBytes())
	}
	for _, row := range []uint64{0, 63, 64, 127} {
		if !s.Contains(row) {
			t.Errorf("Contains(%d) = false", row)
		}
	}
	for _, row := range []uint64{1, 62, 65, 128, 129, 1000} {
		if s.Contains(row) {
			t.Errorf("Contains(%d) = true", row)
		}
	}
}

func TestBitmapSetValidation(t *testing.T) {
	if _, err := NewBitmapSet([]uint64{5, 5}, 10); err == nil {
		t.Error("duplicate ids must be rejected")
	}
	if _, err := NewBitmapSet([]uint64{7, 3}, 10); err == nil {
		t.Error("unsorted ids must be rejected")
	}
	if _, err := NewBitmapSet([]uint64{10}, 10); err == nil {
		t.Error("out-of-range id must be rejected")
	}
}

func TestBuildAuto(t *testing.T) {
	// 10 of 1000 rows = 1 % -> identifier.
	ids := make([]uint64, 10)
	for i := range ids {
		ids[i] = uint64(i * 50)
	}
	s, err := Build(Auto, ids, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind() != Identifier {
		t.Errorf("auto picked %v for 1%%", s.Kind())
	}
	// 100 of 1000 = 10 % -> bitmap.
	ids = make([]uint64, 100)
	for i := range ids {
		ids[i] = uint64(i * 10)
	}
	s, err = Build(Auto, ids, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind() != Bitmap {
		t.Errorf("auto picked %v for 10%%", s.Kind())
	}
	if _, err := Build(Kind(99), nil, 10); err == nil {
		t.Error("unknown kind must fail")
	}
}

// iterAll drains an iterator into a slice.
func iterAll(it *Iter) []uint64 {
	var out []uint64
	for it.Valid() {
		out = append(out, it.Row())
		it.Next()
	}
	return out
}

func TestIterBothKinds(t *testing.T) {
	ids := []uint64{2, 3, 64, 200, 511}
	for _, kind := range []Kind{Identifier, Bitmap} {
		s, err := Build(kind, ids, 512)
		if err != nil {
			t.Fatal(err)
		}
		got := iterAll(s.Iter(0))
		if len(got) != len(ids) {
			t.Fatalf("%v: iterated %v", kind, got)
		}
		for i := range ids {
			if got[i] != ids[i] {
				t.Fatalf("%v: iterated %v, want %v", kind, got, ids)
			}
		}
		// Iterator positioned mid-way.
		got = iterAll(s.Iter(64))
		if len(got) != 3 || got[0] != 64 {
			t.Fatalf("%v: Iter(64) = %v", kind, got)
		}
		got = iterAll(s.Iter(512))
		if len(got) != 0 {
			t.Fatalf("%v: Iter(past end) = %v", kind, got)
		}
	}
}

func TestIterSeek(t *testing.T) {
	ids := []uint64{10, 20, 30, 40}
	for _, kind := range []Kind{Identifier, Bitmap} {
		s, _ := Build(kind, ids, 50)
		it := s.Iter(0)
		it.Seek(25)
		if !it.Valid() || it.Row() != 30 {
			t.Errorf("%v: Seek(25) -> %v", kind, it.Row())
		}
		// Seek never moves backwards.
		it.Seek(5)
		if it.Row() != 30 {
			t.Errorf("%v: backwards seek moved the iterator", kind)
		}
		it.Seek(40)
		if it.Row() != 40 {
			t.Errorf("%v: Seek(40) -> %v", kind, it.Row())
		}
		it.Seek(41)
		if it.Valid() {
			t.Errorf("%v: Seek past last patch should invalidate", kind)
		}
		it.Seek(1) // seeking an exhausted iterator is a no-op
		if it.Valid() {
			t.Errorf("%v: exhausted iterator revived", kind)
		}
	}
}

// TestSetEquivalence: identifier and bitmap representations must agree on
// Contains, Cardinality and full iteration for random patch sets.
func TestSetEquivalence(t *testing.T) {
	f := func(raw []uint16, numRowsRaw uint16) bool {
		numRows := int(numRowsRaw)%2000 + 1
		seen := map[uint64]bool{}
		var ids []uint64
		for _, r := range raw {
			id := uint64(r) % uint64(numRows)
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		is, err := Build(Identifier, ids, numRows)
		if err != nil {
			return false
		}
		bs, err := Build(Bitmap, ids, numRows)
		if err != nil {
			return false
		}
		if is.Cardinality() != bs.Cardinality() {
			return false
		}
		for row := uint64(0); row < uint64(numRows); row++ {
			if is.Contains(row) != bs.Contains(row) {
				return false
			}
		}
		ia, ba := iterAll(is.Iter(0)), iterAll(bs.Iter(0))
		if len(ia) != len(ba) {
			return false
		}
		for i := range ia {
			if ia[i] != ba[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSeekEquivalence: Seek must behave identically for both kinds.
func TestSeekEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const numRows = 4096
	var ids []uint64
	for i := 0; i < numRows; i++ {
		if rng.Intn(10) == 0 {
			ids = append(ids, uint64(i))
		}
	}
	is, _ := Build(Identifier, ids, numRows)
	bs, _ := Build(Bitmap, ids, numRows)
	ii, bi := is.Iter(0), bs.Iter(0)
	pos := uint64(0)
	for k := 0; k < 200; k++ {
		pos += uint64(rng.Intn(40))
		ii.Seek(pos)
		bi.Seek(pos)
		if ii.Valid() != bi.Valid() {
			t.Fatalf("validity diverged at seek %d", pos)
		}
		if ii.Valid() && ii.Row() != bi.Row() {
			t.Fatalf("rows diverged at seek %d: %d vs %d", pos, ii.Row(), bi.Row())
		}
		if ii.Valid() && rng.Intn(2) == 0 {
			ii.Next()
			bi.Next()
			if ii.Valid() != bi.Valid() || (ii.Valid() && ii.Row() != bi.Row()) {
				t.Fatalf("next diverged after seek %d", pos)
			}
		}
	}
}

func TestIndexLifecycle(t *testing.T) {
	ix, err := NewIndex("t", "c", NearlyUnique, Auto, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Ready() {
		t.Error("index with no partitions built must not be ready")
	}
	if err := ix.SetPartition(0, []uint64{1, 2}, 100); err != nil {
		t.Fatal(err)
	}
	if ix.Ready() {
		t.Error("one of two partitions built: not ready")
	}
	if err := ix.SetPartition(1, []uint64{0}, 100); err != nil {
		t.Fatal(err)
	}
	if !ix.Ready() {
		t.Error("both partitions built: ready")
	}
	if ix.Cardinality() != 3 || ix.NumRows() != 200 {
		t.Errorf("cardinality %d rows %d", ix.Cardinality(), ix.NumRows())
	}
	if got := ix.ExceptionRate(); got != 3.0/200 {
		t.Errorf("rate %v", got)
	}
	if ix.Table() != "t" || ix.Column() != "c" || ix.Constraint() != NearlyUnique {
		t.Error("metadata wrong")
	}
	if ix.Partition(5) != nil || ix.Partition(-1) != nil {
		t.Error("out-of-range partition should be nil")
	}
	if ix.MemoryBytes() <= 0 {
		t.Error("memory should be positive")
	}
	if ix.String() == "" {
		t.Error("string rendering empty")
	}
}

func TestIndexValidation(t *testing.T) {
	if _, err := NewIndex("t", "c", NearlyUnique, Auto, 1.5, 1); err == nil {
		t.Error("threshold > 1 must fail")
	}
	if _, err := NewIndex("t", "c", NearlyUnique, Auto, -0.1, 1); err == nil {
		t.Error("threshold < 0 must fail")
	}
	if _, err := NewIndex("t", "c", NearlyUnique, Auto, 0.5, 0); err == nil {
		t.Error("zero partitions must fail")
	}
	ix, _ := NewIndex("t", "c", NearlySorted, Auto, 0.5, 1)
	if err := ix.SetPartition(3, nil, 10); err == nil {
		t.Error("partition out of range must fail")
	}
	if err := ix.SetPartition(0, []uint64{5, 1}, 10); err == nil {
		t.Error("unsorted patch ids must fail")
	}
}

func TestIndexDescending(t *testing.T) {
	ix, _ := NewIndex("t", "c", NearlySorted, Auto, 0.5, 1)
	if ix.Descending() {
		t.Error("default ascending")
	}
	ix.SetDescending(true)
	if !ix.Descending() {
		t.Error("descending flag lost")
	}
}

func TestConstraintString(t *testing.T) {
	if NearlyUnique.String() != "NEARLY UNIQUE" || NearlySorted.String() != "NEARLY SORTED" {
		t.Error("constraint names wrong")
	}
}

func TestEmptySetIterators(t *testing.T) {
	for _, kind := range []Kind{Identifier, Bitmap} {
		s, err := Build(kind, nil, 100)
		if err != nil {
			t.Fatal(err)
		}
		it := s.Iter(0)
		if it.Valid() {
			t.Errorf("%v: empty set iterator valid", kind)
		}
		it.Next() // must not panic
		it.Seek(50)
	}
	// Zero-row partition.
	s, err := Build(Bitmap, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Contains(0) {
		t.Error("empty bitmap contains rows")
	}
}

// walkBatch is the per-patch walk AppendBatch replaces: Seek to base, then
// Valid/Row/Next until the first patch at or after base+n.
func walkBatch(it *Iter, base uint64, n int) []int {
	var out []int
	it.Seek(base)
	for it.Valid() && it.Row() < base+uint64(n) {
		out = append(out, int(it.Row()-base))
		it.Next()
	}
	return out
}

// TestAppendBatchEdges: patches just outside and at both ends of a batch
// that starts and ends mid-word, in the last, partial word of a 200-row
// partition, and past the partition end.
func TestAppendBatchEdges(t *testing.T) {
	ids := []uint64{69, 70, 119, 120, 199}
	for _, kind := range []Kind{Identifier, Bitmap} {
		s, err := Build(kind, ids, 200)
		if err != nil {
			t.Fatal(err)
		}
		it := s.Iter(0)
		got := it.AppendBatch([]int{-1}, 70, 50) // rows [70,120): 69 and 120 lie outside
		if !reflect.DeepEqual(got, []int{-1, 0, 49}) {
			t.Errorf("%v: batch [70,120) = %v, want [-1 0 49]", kind, got)
		}
		if !it.Valid() || it.Row() != 120 {
			t.Errorf("%v: iterator not left on the first patch after the batch", kind)
		}
		if got := it.AppendBatch(nil, 121, 60); len(got) != 0 {
			t.Errorf("%v: batch [121,181) = %v, want none", kind, got)
		}
		if got := it.AppendBatch(nil, 192, 8); !reflect.DeepEqual(got, []int{7}) {
			t.Errorf("%v: last partial word [192,200) = %v, want [7]", kind, got)
		}
		if it.Valid() {
			t.Errorf("%v: iterator valid after the last patch", kind)
		}
		if got := it.AppendBatch([]int{5}, 0, 200); !reflect.DeepEqual(got, []int{5}) {
			t.Errorf("%v: exhausted iterator appended %v", kind, got)
		}
		// A batch reaching words past the partition end stops at its last row.
		if got := s.Iter(0).AppendBatch(nil, 150, 200); !reflect.DeepEqual(got, []int{49}) {
			t.Errorf("%v: batch [150,350) = %v, want [49]", kind, got)
		}
		if got := s.Iter(0).AppendBatch(nil, 64, 0); len(got) != 0 {
			t.Errorf("%v: empty batch = %v", kind, got)
		}
	}
}

func TestAppendBatchEmptySet(t *testing.T) {
	for _, kind := range []Kind{Identifier, Bitmap} {
		s, err := Build(kind, nil, 300)
		if err != nil {
			t.Fatal(err)
		}
		it := s.Iter(0)
		if got := it.AppendBatch(nil, 0, 300); len(got) != 0 || it.Valid() {
			t.Errorf("%v: empty set gave %v", kind, got)
		}
	}
}

// TestAppendBatchMatchesWalk: over random sets of every density and random
// forward batch sequences with gaps, AppendBatch returns what the
// Seek+Next walk returns and leaves the iterator where the walk leaves it.
func TestAppendBatchMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		numRows := 1 + rng.Intn(5000)
		density := []int{1, 20, 200, 1000}[trial%4]
		var ids []uint64
		for i := 0; i < numRows; i++ {
			if rng.Intn(1000) < density {
				ids = append(ids, uint64(i))
			}
		}
		for _, kind := range []Kind{Identifier, Bitmap} {
			s, err := Build(kind, ids, numRows)
			if err != nil {
				t.Fatal(err)
			}
			it, ref := s.Iter(0), s.Iter(0)
			for base := uint64(rng.Intn(70)); base < uint64(numRows); {
				n := 1 + rng.Intn(1100)
				got, want := it.AppendBatch(nil, base, n), walkBatch(ref, base, n)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v rows=%d batch [%d,+%d): %v, walk %v", kind, numRows, base, n, got, want)
				}
				if it.Valid() != ref.Valid() || it.Valid() && it.Row() != ref.Row() {
					t.Fatalf("%v rows=%d batch [%d,+%d): iterator position differs from walk", kind, numRows, base, n)
				}
				base += uint64(n + rng.Intn(3)*rng.Intn(100))
			}
		}
	}
}
