// Recovery: the crash-recovery walkthrough of paper §3.6, on the durable
// file backend. The database lives in a real directory (main.data,
// cache.runs, wal.log, MANIFEST); updates are redo-logged with CRC-framed
// records, materialized sorted runs land in the cache file, and a crash —
// here a genuine hard stop that closes the files with no shutdown — is
// recovered by reopening the directory: the WAL's intact prefix is
// replayed, runs are rebuilt checksum-verified, and an interrupted
// migration would be redone idempotently.
//
// By default the database is created in a temporary directory and removed
// afterwards; pass -dir to keep it and inspect the files.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"masm"
)

func main() {
	dirFlag := flag.String("dir", "", "database directory (default: a fresh temp dir, removed on exit)")
	flag.Parse()

	dir := *dirFlag
	if dir == "" {
		tmp, err := os.MkdirTemp("", "masm-recovery-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	const n = 5_000
	keys := make([]uint64, n)
	bodies := make([][]byte, n)
	for i := range keys {
		keys[i] = uint64(i+1) * 2
		bodies[i] = []byte(fmt.Sprintf("account %05d balance 0000100", keys[i]))
	}
	cfg := masm.DefaultConfig()
	cfg.CacheBytes = 4 << 20
	eng, err := masm.OpenEngineDir(dir, masm.EngineDirOptions{Config: cfg})
	if err != nil {
		log.Fatal(err)
	}
	accounts, err := eng.CreateTable("accounts", masm.TableOptions{Keys: keys, Bodies: bodies})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database created in %s\n", dir)

	// A mix of updates: some will be flushed into SSD runs in cache.runs,
	// the tail stays in the volatile in-memory buffer.
	for i := 0; i < 8_000; i++ {
		key := uint64((i*37)%(2*n)) + 1
		if err := accounts.Modify(key, 22, []byte(fmt.Sprintf("%07d", 100+i))); err != nil {
			log.Fatal(err)
		}
	}
	if err := accounts.Insert(9_999, []byte("account 09999 balance 0424242")); err != nil {
		log.Fatal(err)
	}
	st := accounts.Stats()
	fmt.Printf("before crash: %d updates accepted, %d runs on SSD, cache %.0f%% full\n",
		st.UpdatesAccepted, st.Runs, st.CacheFill*100)

	// Transactions work too: this one commits before the crash...
	tx, err := eng.BeginTx(masm.TxSnapshot)
	if err != nil {
		log.Fatal(err)
	}
	if err := tx.Insert("accounts", 10_001, []byte("account 10001 balance 0000777")); err != nil {
		log.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	// ...and this one never commits, so it must not survive.
	doomed, err := eng.BeginTx(masm.TxSnapshot)
	if err != nil {
		log.Fatal(err)
	}
	if err := doomed.Insert("accounts", 10_003, []byte("account 10003 balance 0666666")); err != nil {
		log.Fatal(err)
	}

	// Make the acknowledged state durable (group commit + fsync), then
	// crash for real: Crash hard-stops the files — no sync, no manifest,
	// no shutdown — and reopens the directory from what is on disk.
	if err := eng.Sync(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("crashing: closing the files with no shutdown, recovering from the directory...")
	eng2, err := eng.Crash()
	if err != nil {
		log.Fatal(err)
	}
	accounts2, err := eng2.OpenTable("accounts")
	if err != nil {
		log.Fatal(err)
	}

	for _, key := range []uint64{9_999, 10_001, 10_003} {
		body, ok, err := accounts2.Get(key)
		if err != nil {
			log.Fatal(err)
		}
		if ok {
			fmt.Printf("  key %d recovered: %s\n", key, body)
		} else {
			fmt.Printf("  key %d not present (as expected for uncommitted work)\n", key)
		}
	}
	st = accounts2.Stats()
	fmt.Printf("after recovery: %d rows visible, %d runs rebuilt\n", st.Rows, st.Runs)

	// The recovered database is fully operational: migrate, close cleanly,
	// and reopen once more to show the migrated state is what persists.
	if err := accounts2.Migrate(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("post-recovery migration completed")
	if err := eng2.Close(); err != nil {
		log.Fatal(err)
	}
	eng3, err := masm.OpenEngineDir(dir, masm.EngineDirOptions{Config: cfg})
	if err != nil {
		log.Fatal(err)
	}
	accounts3, err := eng3.OpenTable("accounts")
	if err != nil {
		log.Fatal(err)
	}
	st = accounts3.Stats()
	fmt.Printf("clean reopen: %d rows, %d runs (migration folded everything into main.data)\n",
		st.Rows, st.Runs)
	if err := eng3.Close(); err != nil {
		log.Fatal(err)
	}
}
