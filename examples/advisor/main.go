// Advisor: the self-management loop. A cloud database without a DBA must
// discover constraints itself — but unclean data (NULLs, duplicates from
// data integration, late arrivals) prevents perfect constraints. This
// example loads such data into a durable engine, runs the constraint
// advisor, and demonstrates recovery: the WAL logs only the discovered
// PatchIndex definitions (never the patches), and after a "crash" the
// engine restores each index from its materialized file under the data
// directory's idx/ — or rediscovers it from the data when the file is gone.
//
//	go run ./examples/advisor
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"patchindex"
	"patchindex/internal/discovery"
	"patchindex/internal/patch"
	"patchindex/internal/vector"
)

const rows = 500_000

func loadOrders(eng *patchindex.Engine) error {
	if _, err := eng.Exec(`CREATE TABLE orders (
		order_no BIGINT, order_date BIGINT, ship_date BIGINT, customer VARCHAR, amount DOUBLE
	) PARTITIONS 4`); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(2024))
	per := rows / 4
	for p := 0; p < 4; p++ {
		no := vector.New(vector.Int64, per)
		od := vector.New(vector.Int64, per)
		sd := vector.New(vector.Int64, per)
		cu := vector.New(vector.String, per)
		am := vector.New(vector.Float64, per)
		for i := 0; i < per; i++ {
			g := int64(p*per + i)
			// order_no: unique, except ~0.5% re-imported duplicates and NULLs.
			switch {
			case rng.Float64() < 0.002:
				no.AppendNull()
			case rng.Float64() < 0.005:
				no.AppendInt64(rng.Int63n(1000)) // duplicate pool
			default:
				no.AppendInt64(10_000 + g)
			}
			// order_date: ascending with ingest order, ~1% backfills.
			date := 20_000 + g/100
			if rng.Float64() < 0.01 {
				date -= rng.Int63n(300)
			}
			od.AppendInt64(date)
			// ship_date: co-sorted with order_date (ships 1-5 days later).
			sd.AppendInt64(date + 1 + rng.Int63n(5))
			cu.AppendString(fmt.Sprintf("customer-%04d", rng.Intn(5000)))
			am.AppendFloat64(float64(rng.Intn(100_000)) / 100)
		}
		if err := eng.LoadColumns("orders", p, []*vector.Vector{no, od, sd, cu, am}); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	dir, err := os.MkdirTemp("", "patchindex-advisor")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cfg := patchindex.Config{DefaultPartitions: 4, DataDir: dir}

	eng, err := patchindex.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := loadOrders(eng); err != nil {
		log.Fatal(err)
	}
	// Checkpoint the loaded rows into compressed segments; from here on the
	// WAL holds only what follows.
	ckpt, err := eng.Checkpoint()
	if err != nil {
		log.Fatal(err)
	}

	// 1. Discover approximate constraints automatically.
	proposals, err := eng.Advise("orders", discovery.AdvisorConfig{
		NUCThreshold: 0.05, NSCThreshold: 0.05, CheckDescending: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("advisor found:")
	for _, p := range proposals {
		fmt.Printf("  %-12s %-14s %5.2f%% exceptions (%s, ~%d bytes)\n",
			p.Column, p.Constraint, 100*p.ExceptionRate, p.RecommendedKind, p.EstimatedBytes)
	}

	// 2. Accept the proposals; creation is logged to the WAL.
	for _, p := range proposals {
		if _, err := eng.CreatePatchIndex(p.Table, p.Column, p.Constraint, discovery.BuildOptions{
			Kind: patch.Auto, Threshold: 0.05, Descending: p.Descending,
		}); err != nil {
			log.Fatal(err)
		}
	}
	res, err := eng.Exec("SHOW PATCHINDEXES")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nindexes after advisor run:")
	fmt.Print(res.String())

	// 3. "Crash" (close without a checkpoint) and restart: the table comes
	//    back from its segments, the index definitions from the WAL, and the
	//    patches from their materialized files.
	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}
	eng2, err := patchindex.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer eng2.Close()
	rec := eng2.Recovery()
	res, err = eng2.Exec("SHOW PATCHINDEXES")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexes after crash + WAL replay (%d WAL records, %d indexes loaded from idx/, %s):\n",
		rec.ReplayedRecords, rec.IndexFiles, rec.Duration.Round(time.Millisecond))
	fmt.Print(res.String())

	// 4. The recovered indexes immediately speed up queries again.
	exp, err := eng2.Exec("EXPLAIN SELECT COUNT(DISTINCT order_no) FROM orders")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("count-distinct plan after recovery:")
	fmt.Print(exp.Message)

	walInfo, err := os.Stat(filepath.Join(dir, fmt.Sprintf("wal.g%d.log", ckpt.Generation)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nWAL size since the checkpoint: %d bytes for %d indexes — the patches themselves are never logged.\n",
		walInfo.Size(), len(proposals))
}
