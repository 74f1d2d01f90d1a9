package datagen

import (
	"io"
	"math"
	"testing"

	"patchindex/internal/discovery"
	"patchindex/internal/storage"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v ± %v", name, got, want, tol)
	}
}

func TestGenUniqueColumnRate(t *testing.T) {
	for _, rate := range []float64{0, 0.1, 0.5} {
		v := GenUniqueColumn(UniqueConfig{Rows: 50_000, Rate: rate, Pool: 200, Seed: 1})
		if v.Len() != 50_000 {
			t.Fatalf("rows = %d", v.Len())
		}
		res := discovery.DiscoverNUC(v)
		// Nearly all pooled draws collide at this pool size.
		approx(t, "nuc rate", res.ExceptionRate(), rate, 0.02)
	}
}

func TestGenUniqueColumnNulls(t *testing.T) {
	v := GenUniqueColumn(UniqueConfig{Rows: 10_000, Rate: 0, NullRate: 0.1, Seed: 2})
	nulls := 0
	for i := 0; i < v.Len(); i++ {
		if v.IsNull(i) {
			nulls++
		}
	}
	approx(t, "null fraction", float64(nulls)/10_000, 0.1, 0.02)
}

func TestGenSortedColumnRate(t *testing.T) {
	for _, rate := range []float64{0, 0.1, 0.4} {
		v := GenSortedColumn(SortedConfig{Rows: 50_000, Rate: rate, Seed: 3})
		res := discovery.DiscoverNSC(v, false)
		// The realized rate can be slightly below nominal (random values may
		// land in order) — the paper reports ±0.1 %; allow a wider band.
		if res.ExceptionRate() > rate+0.01 {
			t.Errorf("rate %v: discovered %v too high", rate, res.ExceptionRate())
		}
		if rate > 0 && res.ExceptionRate() < rate*0.6 {
			t.Errorf("rate %v: discovered %v too low", rate, res.ExceptionRate())
		}
	}
}

func TestGenSortedColumnDescending(t *testing.T) {
	v := GenSortedColumn(SortedConfig{Rows: 10_000, Rate: 0.05, Descending: true, Seed: 4})
	asc := discovery.DiscoverNSC(v, false)
	desc := discovery.DiscoverNSC(v, true)
	if desc.ExceptionRate() >= asc.ExceptionRate() {
		t.Errorf("descending data should be nearly descending: asc=%v desc=%v",
			asc.ExceptionRate(), desc.ExceptionRate())
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := GenUniqueColumn(UniqueConfig{Rows: 1000, Rate: 0.2, Seed: 42})
	b := GenUniqueColumn(UniqueConfig{Rows: 1000, Rate: 0.2, Seed: 42})
	for i := 0; i < 1000; i++ {
		if a.IsNull(i) != b.IsNull(i) || (!a.IsNull(i) && a.I64[i] != b.I64[i]) {
			t.Fatal("unique generator not deterministic")
		}
	}
	c := GenSortedColumn(SortedConfig{Rows: 1000, Rate: 0.2, Seed: 42})
	d := GenSortedColumn(SortedConfig{Rows: 1000, Rate: 0.2, Seed: 42})
	for i := 0; i < 1000; i++ {
		if c.I64[i] != d.I64[i] {
			t.Fatal("sorted generator not deterministic")
		}
	}
}

func TestLoadCustomGlobalUniqueness(t *testing.T) {
	tab, err := LoadCustom("data", 40_000, 4, 0.1, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 40_000 || tab.NumPartitions() != 4 {
		t.Fatalf("table shape wrong: %d rows, %d parts", tab.NumRows(), tab.NumPartitions())
	}
	// Global NUC rate must be near the nominal rate (cross-partition shifts
	// must not introduce extra duplicates).
	colIdx := tab.Schema().ColumnIndex("u")
	counts := map[int64]int{}
	total, dups := 0, 0
	for p := 0; p < 4; p++ {
		col := tab.Partition(p).Column(colIdx)
		for i := 0; i < col.Len(); i++ {
			counts[col.I64[i]]++
			total++
		}
	}
	for _, c := range counts {
		if c > 1 {
			dups += c
		}
	}
	approx(t, "global duplicate rate", float64(dups)/float64(total), 0.1, 0.02)

	// Per-partition sorted rate near nominal.
	sIdx := tab.Schema().ColumnIndex("s")
	for p := 0; p < 4; p++ {
		res := discovery.DiscoverNSC(tab.Partition(p).Column(sIdx), false)
		if res.ExceptionRate() > 0.11 {
			t.Errorf("partition %d sorted rate %v", p, res.ExceptionRate())
		}
	}
}

func TestGenCustomer(t *testing.T) {
	tab, err := GenCustomer(TPCDSConfig{CustomerRows: 60_000, Partitions: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 60_000 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	// Email exception rate ~3.6 % (global NUC).
	emailIdx := tab.Schema().ColumnIndex("c_email_address")
	counts := map[string]int{}
	total, exceptions := 0, 0
	for p := 0; p < tab.NumPartitions(); p++ {
		col := tab.Partition(p).Column(emailIdx)
		for i := 0; i < col.Len(); i++ {
			total++
			if col.IsNull(i) {
				exceptions++
				continue
			}
			counts[col.Str[i]]++
		}
	}
	for _, c := range counts {
		if c > 1 {
			exceptions += c
		}
	}
	approx(t, "email exception rate", float64(exceptions)/float64(total), EmailExceptionRate, 0.012)

	// Address column heavily duplicated (~86.5 %).
	addrIdx := tab.Schema().ColumnIndex("c_current_addr_sk")
	acounts := map[int64]int{}
	adups := 0
	for p := 0; p < tab.NumPartitions(); p++ {
		col := tab.Partition(p).Column(addrIdx)
		for i := 0; i < col.Len(); i++ {
			acounts[col.I64[i]]++
		}
	}
	for _, c := range acounts {
		if c > 1 {
			adups += c
		}
	}
	approx(t, "addr exception rate", float64(adups)/float64(total), AddrExceptionRate, 0.03)

	// Primary key dense and unique.
	skIdx := tab.Schema().ColumnIndex("c_customer_sk")
	seen := map[int64]bool{}
	for p := 0; p < tab.NumPartitions(); p++ {
		col := tab.Partition(p).Column(skIdx)
		for i := 0; i < col.Len(); i++ {
			if seen[col.I64[i]] {
				t.Fatal("duplicate customer sk")
			}
			seen[col.I64[i]] = true
		}
	}
}

func TestGenDateDim(t *testing.T) {
	tab, err := GenDateDim()
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != DateDimRows || tab.NumPartitions() != 1 {
		t.Fatalf("shape: %d rows, %d parts", tab.NumRows(), tab.NumPartitions())
	}
	if tab.SortKey() != "d_date_sk" {
		t.Error("date_dim must declare its sort key")
	}
	col := tab.Partition(0).Column(0)
	for i := 1; i < col.Len(); i++ {
		if col.I64[i] != col.I64[i-1]+1 {
			t.Fatal("d_date_sk not dense ascending")
		}
	}
}

func TestGenCatalogSales(t *testing.T) {
	cfg := TPCDSConfig{SalesRows: 80_000, Partitions: 8, Seed: 1}
	tab, err := GenCatalogSales(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 80_000 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	soldIdx := tab.Schema().ColumnIndex("cs_sold_date_sk")
	totalPatches, total := 0, 0
	minSK, maxSK := int64(math.MaxInt64), int64(0)
	for p := 0; p < 8; p++ {
		col := tab.Partition(p).Column(soldIdx)
		res := discovery.DiscoverNSC(col, false)
		totalPatches += len(res.Patches)
		total += res.NumRows
		for i := 0; i < col.Len(); i++ {
			if col.I64[i] < minSK {
				minSK = col.I64[i]
			}
			if col.I64[i] > maxSK {
				maxSK = col.I64[i]
			}
		}
	}
	rate := float64(totalPatches) / float64(total)
	if rate > SoldDateExceptionRate+0.002 {
		t.Errorf("sold_date exception rate %v, want <= ~%v", rate, SoldDateExceptionRate)
	}
	// Keys must fall inside date_dim's key range so the join finds partners.
	const baseSK = 2415022
	if minSK < baseSK || maxSK >= baseSK+DateDimRows {
		t.Errorf("sold_date_sk range [%d,%d] outside date_dim", minSK, maxSK)
	}
}

func TestDefaultTPCDSConfig(t *testing.T) {
	cfg := DefaultTPCDSConfig()
	if cfg.CustomerRows <= 0 || cfg.SalesRows <= 0 || cfg.Partitions != 24 {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestGenSortedColumnNullsArePatches(t *testing.T) {
	v := GenSortedColumn(SortedConfig{Rows: 5000, Rate: 0, NullRate: 0.05, Seed: 5})
	res := discovery.DiscoverNSC(v, false)
	nulls := 0
	for i := 0; i < v.Len(); i++ {
		if v.IsNull(i) {
			nulls++
		}
	}
	if len(res.Patches) != nulls {
		t.Errorf("patches %d, nulls %d (clean data: patches must be exactly the NULLs)", len(res.Patches), nulls)
	}
}

// TestLoadDemo checks the demo loader both binaries share: each dataset
// hands its tables to the callback, and an unknown name is an error.
func TestLoadDemo(t *testing.T) {
	for demo, want := range map[string][]string{
		"":       nil,
		"custom": {"data"},
		"tpcds":  {"customer", "catalog_sales", "date_dim"},
	} {
		var got []string
		add := func(tab *storage.Table) error {
			got = append(got, tab.Name())
			return nil
		}
		if err := LoadDemo(add, io.Discard, demo, 800, 2, 0.05, 0.05); err != nil {
			t.Fatalf("LoadDemo(%q): %v", demo, err)
		}
		if len(got) != len(want) {
			t.Fatalf("LoadDemo(%q) added %v, want %v", demo, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("LoadDemo(%q) added %v, want %v", demo, got, want)
			}
		}
	}
	if err := LoadDemo(func(*storage.Table) error { return nil }, io.Discard, "bogus", 10, 1, 0, 0); err == nil {
		t.Fatal("unknown demo must fail")
	}
}
