// Command masmd serves a MaSM engine over TCP: the proto wire protocol,
// group-committed writes and credit-flow-controlled scans, with the
// observability plane on a second HTTP port. Writes are admitted by the
// engine against cache fill while its migration scheduler runs. See the
// README's "Running as a server" section.
//
//	masmd -dir /var/lib/masm -addr :7643 -metrics 127.0.0.1:7644
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"masm"
	"masm/internal/server"
)

func main() {
	var (
		dir        = flag.String("dir", "", "database directory (created if missing; required)")
		addr       = flag.String("addr", "127.0.0.1:7643", "TCP listen address for the wire protocol")
		metrics    = flag.String("metrics", "", "HTTP listen address for /metrics, /debug/vars, /debug/pprof (empty = off)")
		cacheMB    = flag.Int64("cache", 256, "shared SSD update-cache budget, MiB, of a new directory (an existing one keeps its own, and says so)")
		dataMB     = flag.Int64("data", 1024, "main data capacity, MiB (sparse)")
		ntables    = flag.Int("ntables", 1, "tables to create on first start (t0..tN-1)")
		tableCache = flag.Int64("table-cache", 0, "per-table cache quota, MiB (0 = whole shared cache; the per-tenant knob)")
		sched      = flag.Duration("sched", masm.DefaultMigrationInterval, "migration scheduler poll interval")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "masmd: -dir is required")
		flag.Usage()
		os.Exit(2)
	}

	cfg := masm.DefaultConfig()
	cfg.CacheBytes = *cacheMB << 20
	eng, err := masm.OpenEngineDir(*dir, masm.EngineDirOptions{
		Config:      cfg,
		DataBytes:   *dataMB << 20,
		MetricsAddr: *metrics,
	})
	if err != nil {
		log.Fatalf("masmd: open %s: %v", *dir, err)
	}
	defer eng.Close()
	if got := eng.CacheBytes(); got != cfg.CacheBytes {
		log.Printf("masmd: %s keeps its update cache of %g MiB; -cache %d applies to new directories only",
			*dir, float64(got)/(1<<20), *cacheMB)
	}

	// Ensure the initial tables exist (idempotent across restarts).
	existing := make(map[string]bool)
	for _, name := range eng.Tables() {
		existing[name] = true
	}
	for i := 0; i < *ntables; i++ {
		name := fmt.Sprintf("t%d", i)
		if existing[name] {
			continue
		}
		if _, err := eng.CreateTable(name, masm.TableOptions{CacheBytes: *tableCache << 20}); err != nil {
			log.Fatalf("masmd: create table %s: %v", name, err)
		}
	}

	if _, err := eng.StartMigrationScheduler(*sched); err != nil {
		log.Fatalf("masmd: start scheduler: %v", err)
	}

	srv := server.New(eng, server.Options{})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("masmd: listen %s: %v", *addr, err)
	}
	log.Printf("masmd: serving %d table(s) from %s on %s (metrics %q)",
		len(eng.Tables()), *dir, ln.Addr(), *metrics)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("masmd: shutting down")
		srv.Close()
	}()
	if err := srv.Serve(ln); err != nil {
		log.Fatalf("masmd: serve: %v", err)
	}
	srv.Close()
	if err := eng.Close(); err != nil {
		log.Fatalf("masmd: close: %v", err)
	}
}
