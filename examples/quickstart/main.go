// Quickstart: create a MaSM-backed warehouse table in an engine, apply
// online updates, and range-scan fresh data — the minimal end-to-end use of
// the public API.
package main

import (
	"fmt"
	"log"

	"masm"
)

func main() {
	// Bulk-load a table of 10,000 records with even keys (2, 4, ..., as
	// in the paper's synthetic setup, so odd keys are insertable).
	const n = 10_000
	keys := make([]uint64, n)
	bodies := make([][]byte, n)
	for i := range keys {
		keys[i] = uint64(i+1) * 2
		bodies[i] = []byte(fmt.Sprintf("order %06d: 1x widget @ $9.99 .......", keys[i]))
	}
	eng, err := masm.NewEngine(masm.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	orders, err := eng.CreateTable("orders", masm.TableOptions{Keys: keys, Bodies: bodies})
	if err != nil {
		log.Fatal(err)
	}

	// Online updates: cached on the (simulated) SSD, never touching the
	// main data until a migration.
	if err := orders.Insert(4001, []byte("order 004001: 3x gadget @ $4.20 .......")); err != nil {
		log.Fatal(err)
	}
	if err := orders.Delete(4000); err != nil {
		log.Fatal(err)
	}
	if err := orders.Modify(4002, 22, []byte("5x")); err != nil {
		log.Fatal(err)
	}

	// A range scan sees all of it immediately.
	fmt.Println("keys 3998..4006 after updates:")
	err = orders.Scan(3998, 4006, func(key uint64, body []byte) bool {
		fmt.Printf("  %d  %s\n", key, body)
		return true
	})
	if err != nil {
		log.Fatal(err)
	}

	// Fold the cached updates back into the main data, in place.
	if err := orders.Migrate(); err != nil {
		log.Fatal(err)
	}
	st := orders.Stats()
	fmt.Printf("\nafter migration: rows=%d cache=%.0f%% runs=%d migrations=%d\n",
		st.Rows, st.CacheFill*100, st.Runs, st.Migrations)
	fmt.Printf("SSD random writes: %d (design goal: zero)\n", eng.Stats().SSDRandomWrites)
	fmt.Printf("simulated I/O time consumed: %v\n", eng.Elapsed())
}
