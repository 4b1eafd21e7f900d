// Concurrent: the paper's headline scenario — analysis queries running
// 24/7 while online updates stream in — executed with real goroutines on
// the snapshot-isolated engine. An updater goroutine streams mixed
// updates while scan goroutines iterate concurrently, the background
// MigrationScheduler folds the cache into the main data off the update
// path, and an explicit Snapshot demonstrates repeatable reads under
// write traffic.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"masm"
)

func main() {
	const n = 50_000
	keys := make([]uint64, n)
	bodies := make([][]byte, n)
	for i := range keys {
		keys[i] = uint64(i+1) * 2
		bodies[i] = []byte(fmt.Sprintf("fact-%07d: qty=01 price=0099 status=SHIPPED", keys[i]))
	}
	cfg := masm.DefaultConfig()
	cfg.CacheBytes = 2 << 20
	cfg.MigrateThreshold = 0.3
	eng, err := masm.NewEngine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	facts, err := eng.CreateTable("facts", masm.TableOptions{Keys: keys, Bodies: bodies})
	if err != nil {
		log.Fatal(err)
	}

	// Background migration: watches cache fill, migrates off the update
	// path, stopped automatically by eng.Close.
	sched, err := eng.StartMigrationScheduler(0)
	if err != nil {
		log.Fatal(err)
	}

	// Baseline query time with a cold cache.
	t0 := eng.Elapsed()
	count := 0
	if err := facts.Scan(0, ^uint64(0), func(uint64, []byte) bool { count++; return true }); err != nil {
		log.Fatal(err)
	}
	pure := eng.Elapsed() - t0
	fmt.Printf("pure scan: %d rows in %v (simulated)\n", count, pure)

	// Pin a snapshot before any update lands: whatever happens next, this
	// view must keep answering with exactly the loaded data.
	snap, err := facts.Snapshot()
	if err != nil {
		log.Fatal(err)
	}

	// Stream 30k online updates from a writer goroutine while two reader
	// goroutines scan concurrently. Updates never wait for the scans
	// (snapshot-isolated reads), and the scheduler migrates in the
	// background whenever the cache passes 30%.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 30_000; i++ {
			key := uint64(rng.Intn(2*n+2000)) + 1
			var err error
			switch rng.Intn(3) {
			case 0:
				err = facts.Insert(key, []byte(fmt.Sprintf("fact-%07d: qty=%02d price=%04d status=NEW....", key, i%99, i%9999)))
			case 1:
				err = facts.Delete(key)
			default:
				err = facts.Modify(key, 14, []byte(fmt.Sprintf("%02d", i%99)))
			}
			if err != nil {
				log.Fatal(err)
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				rows := 0
				if err := facts.Scan(0, ^uint64(0), func(uint64, []byte) bool { rows++; return true }); err != nil {
					log.Fatal(err)
				}
				fmt.Printf("reader %d scan %d: %d rows (concurrent with updates)\n", r, i, rows)
			}
		}(r)
	}
	wg.Wait()
	fmt.Println("streamed 30000 updates concurrently with the scans")

	// The same query over fresh data: overhead should be a few percent.
	t0 = eng.Elapsed()
	count = 0
	if err := facts.Scan(0, ^uint64(0), func(uint64, []byte) bool { count++; return true }); err != nil {
		log.Fatal(err)
	}
	withUpdates := eng.Elapsed() - t0
	fmt.Printf("fresh-data scan: %d rows in %v — %.2fx the pure scan\n",
		count, withUpdates, float64(withUpdates)/float64(pure))

	// The pinned snapshot still sees exactly the pre-update state.
	snapCount := 0
	if err := snap.Scan(0, ^uint64(0), func(uint64, []byte) bool { snapCount++; return true }); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot taken before the updates still sees %d rows (loaded %d)\n", snapCount, n)
	// Closing the snapshot unblocks migration; the scheduler folds the
	// cached updates into the main data off the update path.
	snap.Close()
	for i := 0; i < 400 && sched.Migrations() == 0; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("background migrations: %d\n", sched.Migrations())

	st := facts.Stats()
	fmt.Printf("stats: rows=%d cache=%.0f%% runs=%d writes/update=%.2f ssd-random-writes=%d\n",
		st.Rows, st.CacheFill*100, st.Runs, st.WritesPerUpdate, eng.Stats().SSDRandomWrites)
}
