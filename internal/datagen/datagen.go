// Package datagen synthesizes the evaluation datasets of the paper:
//
//   - Custom: the fine-grained generator of Section VII-B — n tuples with a
//     configurable exception rate against a uniqueness constraint (the
//     exceptions evenly distributed over a fixed pool of 100K values) or a
//     sorting constraint (exceptions placed at random positions).
//   - TPC-DS-lite: scaled-down tables with the same shapes the TPC-DS
//     experiments rely on — a customer table whose c_email_address is
//     nearly unique (~3.6 % exceptions) and whose c_current_addr_sk is
//     mostly duplicated (~86.5 % exceptions), a catalog_sales fact table
//     whose cs_sold_date_sk is nearly sorted (~0.5 % exceptions), and a
//     date_dim dimension sorted on its surrogate key.
//
// All generators are deterministic for a given seed.
package datagen

import (
	"fmt"
	"io"
	"math/rand"

	"patchindex/internal/storage"
	"patchindex/internal/vector"
)

// ExceptionValuePool is the number of distinct values the uniqueness
// exceptions are drawn from (the paper's "100K different values").
const ExceptionValuePool = 100_000

// UniqueConfig parameterizes GenUniqueColumn.
type UniqueConfig struct {
	Rows int
	// Rate is the fraction of rows replaced by values from the exception
	// pool (0..1).
	Rate float64
	// Pool overrides ExceptionValuePool when > 0.
	Pool int
	// NullRate additionally NULLs out this fraction of rows (NULLs are
	// uniqueness exceptions too).
	NullRate float64
	Seed     int64
}

// GenUniqueColumn generates an int64 column that is unique except for
// ~Rate exceptions drawn evenly from a fixed pool. Unique values start above
// the pool range so pool values always collide.
func GenUniqueColumn(cfg UniqueConfig) *vector.Vector {
	pool := cfg.Pool
	if pool <= 0 {
		pool = ExceptionValuePool
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	v := vector.New(vector.Int64, cfg.Rows)
	base := int64(pool) + 1
	for i := 0; i < cfg.Rows; i++ {
		switch {
		case cfg.NullRate > 0 && rng.Float64() < cfg.NullRate:
			v.AppendNull()
		case rng.Float64() < cfg.Rate:
			v.AppendInt64(rng.Int63n(int64(pool)))
		default:
			v.AppendInt64(base + int64(i))
		}
	}
	return v
}

// SortedConfig parameterizes GenSortedColumn.
type SortedConfig struct {
	Rows int
	// Rate is the fraction of rows replaced by random (misplaced) values.
	Rate float64
	// Descending generates a nearly descending column instead.
	Descending bool
	// NullRate additionally NULLs out this fraction of rows.
	NullRate float64
	Seed     int64
}

// GenSortedColumn generates an int64 column that ascends (or descends) with
// row position except for ~Rate exceptions placed at random locations with
// random values — exactly the paper's sorting workload. The realized
// exception rate after longest-sorted-subsequence discovery varies slightly
// (±0.1 % in the paper) because a random value occasionally lands in order.
func GenSortedColumn(cfg SortedConfig) *vector.Vector {
	rng := rand.New(rand.NewSource(cfg.Seed))
	v := vector.New(vector.Int64, cfg.Rows)
	for i := 0; i < cfg.Rows; i++ {
		pos := int64(i)
		if cfg.Descending {
			pos = int64(cfg.Rows - i)
		}
		switch {
		case cfg.NullRate > 0 && rng.Float64() < cfg.NullRate:
			v.AppendNull()
		case rng.Float64() < cfg.Rate:
			v.AppendInt64(rng.Int63n(int64(cfg.Rows)))
		default:
			v.AppendInt64(pos)
		}
	}
	return v
}

// LoadCustom creates table name(u BIGINT, s BIGINT, payload BIGINT) with the
// custom generator columns distributed round-robin-free (contiguous chunks)
// across partitions: u is nearly unique, s is nearly sorted, payload is an
// unconstrained value column. Sorting exceptions are generated per partition
// so per-partition discovery matches the global rate.
func LoadCustom(name string, rows, partitions int, uniqueRate, sortedRate float64, seed int64) (*storage.Table, error) {
	schema := storage.NewSchema(
		storage.Column{Name: "u", Typ: vector.Int64},
		storage.Column{Name: "s", Typ: vector.Int64},
		storage.Column{Name: "payload", Typ: vector.Int64},
	)
	t, err := storage.NewTable(name, schema, partitions)
	if err != nil {
		return nil, err
	}
	// The paper fixes the exception pool at 100K values for 100M rows. At
	// smaller scales the pool shrinks proportionally so pooled values still
	// collide (a pool value drawn once is not a uniqueness exception).
	pool := rows / 100
	if pool > ExceptionValuePool {
		pool = ExceptionValuePool
	}
	if pool < 100 {
		pool = 100
	}
	per := (rows + partitions - 1) / partitions
	offset := 0
	for p := 0; p < partitions; p++ {
		n := per
		if offset+n > rows {
			n = rows - offset
		}
		if n <= 0 {
			break
		}
		u := GenUniqueColumn(UniqueConfig{Rows: n, Rate: uniqueRate, Pool: pool, Seed: seed + int64(p)*7919})
		// Shift the unique range per partition so uniqueness stays global
		// (pooled exception values stay in [0,pool) and keep colliding).
		for i := range u.I64 {
			if u.I64[i] > int64(pool) {
				u.I64[i] += int64(offset)
			}
		}
		s := GenSortedColumn(SortedConfig{Rows: n, Rate: sortedRate, Seed: seed + 1 + int64(p)*104729})
		pay := vector.New(vector.Int64, n)
		rng := rand.New(rand.NewSource(seed + 2 + int64(p)))
		for i := 0; i < n; i++ {
			pay.AppendInt64(rng.Int63n(1000))
		}
		if err := t.AppendColumns(p, []*vector.Vector{u, s, pay}); err != nil {
			return nil, err
		}
		offset += n
	}
	return t, nil
}

// TPCDSConfig scales the TPC-DS-lite dataset.
type TPCDSConfig struct {
	// CustomerRows is the customer table size (paper: 12M at SF 1000).
	CustomerRows int
	// SalesRows is the catalog_sales fact table size (paper: 1.4B).
	SalesRows int
	// Partitions for customer and catalog_sales (paper: 24).
	Partitions int
	Seed       int64
}

// DefaultTPCDSConfig returns a laptop-scale configuration preserving the
// paper's exception rates.
func DefaultTPCDSConfig() TPCDSConfig {
	return TPCDSConfig{CustomerRows: 1_200_000, SalesRows: 10_000_000, Partitions: 24, Seed: 1}
}

// DateDimRows is the fixed date_dim size (as in TPC-DS: ~73K days).
const DateDimRows = 73049

// EmailExceptionRate is the duplicate+NULL rate of c_email_address (Table I).
const EmailExceptionRate = 0.036

// AddrExceptionRate is the duplicate rate of c_current_addr_sk (Table I).
const AddrExceptionRate = 0.865

// SoldDateExceptionRate is the out-of-order rate of cs_sold_date_sk
// (Section VII-A1: "we have to exclude 0.5% of the 1.4B tuples").
const SoldDateExceptionRate = 0.005

// GenCustomer builds the customer table: c_customer_sk (dense PK),
// c_email_address (nearly unique: ~3.6 % of rows share pooled addresses or
// are NULL), c_current_addr_sk (~86.5 % duplicates: most customers share a
// small address pool), c_birth_year.
func GenCustomer(cfg TPCDSConfig) (*storage.Table, error) {
	schema := storage.NewSchema(
		storage.Column{Name: "c_customer_sk", Typ: vector.Int64},
		storage.Column{Name: "c_email_address", Typ: vector.String},
		storage.Column{Name: "c_current_addr_sk", Typ: vector.Int64},
		storage.Column{Name: "c_birth_year", Typ: vector.Int64},
	)
	t, err := storage.NewTable("customer", schema, cfg.Partitions)
	if err != nil {
		return nil, err
	}
	rows := cfg.CustomerRows
	per := (rows + cfg.Partitions - 1) / cfg.Partitions
	offset := 0
	// Address pool sized so that ~86.5 % of rows collide: unique addresses
	// for 13.5 % of customers, the rest draw from a small pool.
	addrPool := rows / 50
	if addrPool < 1 {
		addrPool = 1
	}
	emailPool := rows / 100
	if emailPool < 1 {
		emailPool = 1
	}
	for p := 0; p < cfg.Partitions; p++ {
		n := per
		if offset+n > rows {
			n = rows - offset
		}
		if n <= 0 {
			break
		}
		rng := rand.New(rand.NewSource(cfg.Seed + int64(p)*31337))
		sk := vector.New(vector.Int64, n)
		email := vector.New(vector.String, n)
		addr := vector.New(vector.Int64, n)
		birth := vector.New(vector.Int64, n)
		for i := 0; i < n; i++ {
			id := offset + i
			sk.AppendInt64(int64(id + 1))
			r := rng.Float64()
			switch {
			case r < EmailExceptionRate/3:
				email.AppendNull()
			case r < EmailExceptionRate:
				email.AppendString(fmt.Sprintf("shared%06d@example.org", rng.Intn(emailPool)))
			default:
				email.AppendString(fmt.Sprintf("customer%09d@example.org", id))
			}
			if rng.Float64() < AddrExceptionRate {
				addr.AppendInt64(int64(rng.Intn(addrPool)))
			} else {
				addr.AppendInt64(int64(addrPool + id))
			}
			birth.AppendInt64(int64(1930 + rng.Intn(70)))
		}
		if err := t.AppendColumns(p, []*vector.Vector{sk, email, addr, birth}); err != nil {
			return nil, err
		}
		offset += n
	}
	return t, nil
}

// GenDateDim builds the date_dim dimension: d_date_sk (dense, sorted PK),
// d_date (day number), d_year, d_moy. It is generated with a single
// partition and a declared sort key, the typical physical design for
// dimension tables ("dimension tables are typically sorted on their primary
// key", Section VII-A1).
func GenDateDim() (*storage.Table, error) {
	schema := storage.NewSchema(
		storage.Column{Name: "d_date_sk", Typ: vector.Int64},
		storage.Column{Name: "d_date", Typ: vector.Date},
		storage.Column{Name: "d_year", Typ: vector.Int64},
		storage.Column{Name: "d_moy", Typ: vector.Int64},
	)
	t, err := storage.NewTable("date_dim", schema, 1)
	if err != nil {
		return nil, err
	}
	if err := t.SetSortKey("d_date_sk"); err != nil {
		return nil, err
	}
	n := DateDimRows
	sk := vector.New(vector.Int64, n)
	d := vector.New(vector.Date, n)
	yr := vector.New(vector.Int64, n)
	moy := vector.New(vector.Int64, n)
	// TPC-DS date_sk 2415022 corresponds to 1900-01-02.
	const baseSK = 2415022
	const baseDays = -25567 // 1900-01-02 in days since epoch (approx.)
	for i := 0; i < n; i++ {
		sk.AppendInt64(int64(baseSK + i))
		days := int64(baseDays + i)
		d.AppendInt64(days)
		yr.AppendInt64(1900 + int64(i/365))
		moy.AppendInt64(int64((i/30)%12) + 1)
	}
	if err := t.AppendColumns(0, []*vector.Vector{sk, d, yr, moy}); err != nil {
		return nil, err
	}
	return t, nil
}

// GenCatalogSales builds the catalog_sales fact table: cs_sold_date_sk
// (nearly sorted: the fact table is loaded in date order with ~0.5 % late
// arrivals), cs_item_sk, cs_quantity, cs_net_paid. Each partition receives
// a contiguous, nearly sorted chunk of the date range.
func GenCatalogSales(cfg TPCDSConfig) (*storage.Table, error) {
	schema := storage.NewSchema(
		storage.Column{Name: "cs_sold_date_sk", Typ: vector.Int64},
		storage.Column{Name: "cs_item_sk", Typ: vector.Int64},
		storage.Column{Name: "cs_quantity", Typ: vector.Int64},
		storage.Column{Name: "cs_net_paid", Typ: vector.Float64},
	)
	t, err := storage.NewTable("catalog_sales", schema, cfg.Partitions)
	if err != nil {
		return nil, err
	}
	rows := cfg.SalesRows
	per := (rows + cfg.Partitions - 1) / cfg.Partitions
	const baseSK = 2415022
	offset := 0
	for p := 0; p < cfg.Partitions; p++ {
		n := per
		if offset+n > rows {
			n = rows - offset
		}
		if n <= 0 {
			break
		}
		rng := rand.New(rand.NewSource(cfg.Seed + 17 + int64(p)*65537))
		sold := vector.New(vector.Int64, n)
		item := vector.New(vector.Int64, n)
		qty := vector.New(vector.Int64, n)
		paid := vector.New(vector.Float64, n)
		for i := 0; i < n; i++ {
			global := offset + i
			// Map row position onto the date_dim key range in order.
			day := int64(global) * int64(DateDimRows) / int64(rows)
			if rng.Float64() < SoldDateExceptionRate {
				day = rng.Int63n(int64(DateDimRows)) // late/early arrival
			}
			sold.AppendInt64(baseSK + day)
			item.AppendInt64(rng.Int63n(100_000) + 1)
			qty.AppendInt64(rng.Int63n(100) + 1)
			paid.AppendFloat64(float64(rng.Intn(100_000)) / 100)
		}
		if err := t.AppendColumns(p, []*vector.Vector{sold, item, qty, paid}); err != nil {
			return nil, err
		}
		offset += n
	}
	return t, nil
}

// LoadDemo generates one of the demo datasets patchcli and patchserver
// preload and hands each table to add: "tpcds" (customer, catalog_sales and
// date_dim, with rows sales rows and rows/8 customers) or "custom" (table
// data(u,s,payload) with the given exception rates). "" loads nothing.
// Progress is announced on log.
func LoadDemo(add func(*storage.Table) error, log io.Writer, demo string, rows, partitions int, uniqueRate, sortedRate float64) error {
	switch demo {
	case "":
		return nil
	case "tpcds":
		cfg := TPCDSConfig{CustomerRows: rows / 8, SalesRows: rows, Partitions: partitions, Seed: 1}
		fmt.Fprintf(log, "loading tpcds-lite (customer=%d, catalog_sales=%d, date_dim=%d)...\n",
			cfg.CustomerRows, cfg.SalesRows, DateDimRows)
		for _, gen := range []func() (*storage.Table, error){
			func() (*storage.Table, error) { return GenCustomer(cfg) },
			func() (*storage.Table, error) { return GenCatalogSales(cfg) },
			GenDateDim,
		} {
			t, err := gen()
			if err != nil {
				return err
			}
			if err := add(t); err != nil {
				return err
			}
		}
		return nil
	case "custom":
		fmt.Fprintf(log, "loading custom table data(u,s,payload) with %d rows...\n", rows)
		t, err := LoadCustom("data", rows, partitions, uniqueRate, sortedRate, 1)
		if err != nil {
			return err
		}
		return add(t)
	default:
		return fmt.Errorf("unknown demo %q (tpcds, custom)", demo)
	}
}
