// Command masmbench regenerates the tables and figures of the paper's
// evaluation (§4) on the simulated devices and prints them as text tables.
//
// Usage:
//
//	masmbench -list
//	masmbench -exp fig9
//	masmbench -exp all -short
//	masmbench -exp fig12 -table 128MB -cache 8MB
//	masmbench -chaos -seed 1 -steps 20000
//
// The paper experiments always run on the simulated in-memory backend —
// their figures are virtual-time measurements and do not depend on the
// host. Wall-clock behaviour of the file backend and the server is
// measured by the wire-level benchmark (bash benchmark/run.sh).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"masm/internal/bench"
	"masm/internal/chaos"
)

func main() {
	var (
		expID     = flag.String("exp", "all", "experiment ID to run, or 'all'")
		list      = flag.Bool("list", false, "list experiments and exit")
		short     = flag.Bool("short", false, "use the reduced geometry")
		tableSz   = flag.String("table", "", "override table size (e.g. 256MB)")
		cacheSz   = flag.String("cache", "", "override SSD cache size (e.g. 16MB)")
		seed      = flag.Int64("seed", 1, "random seed")
		rows      = flag.Int("rows", 200_000, "tenantbench: loaded rows per table")
		metrics   = flag.String("metricsout", "", "tenantbench: write a reconciled JSON metrics snapshot to this path")
		jsonOut   = flag.String("json", "BENCH_4.json", "tenantbench: machine-readable output path; empty skips the file")
		tenantBnc = flag.Bool("tenantbench", false, "run the multi-tenant shared-cache benchmark (one engine, N tables, one SSD vs N private caches) instead of a paper experiment")
		tenants   = flag.Int("tenants", 6, "tenantbench: number of tables sharing the engine")
		tenantUpd = flag.Int("updates", 60_000, "tenantbench: updates across all tenants")
		chaosBnc  = flag.Bool("chaos", false, "run the deterministic chaos scenario runner (seeded whole-engine simulation with fault injection and a model-checked oracle) instead of a paper experiment")
		chaosStep = flag.Int("steps", 20_000, "chaos: scenario length in operations")
		chaosOut  = flag.String("chaosout", "", "chaos: on an oracle failure, also write seed + shrunk trace + repro test to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-12s %s\n", e.ID, e.Paper)
		}
		return
	}
	if *chaosBnc {
		if err := chaosRun(*seed, *chaosStep, *chaosOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *tenantBnc {
		if _, err := bench.TenantBench(os.Stdout, *jsonOut, *metrics, *seed, *tenants, *rows, *tenantUpd); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	opts := bench.DefaultOptions()
	if *short {
		opts = bench.ShortOptions()
	}
	opts.Seed = *seed
	if *tableSz != "" {
		opts.TableBytes = mustSize(*tableSz)
	}
	if *cacheSz != "" {
		opts.CacheBytes = mustSize(*cacheSz)
	}

	var exps []bench.Experiment
	if *expID == "all" {
		exps = bench.Experiments()
	} else {
		for _, id := range strings.Split(*expID, ",") {
			e, err := bench.Lookup(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			exps = append(exps, e)
		}
	}
	for _, e := range exps {
		t0 := time.Now()
		res, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		res.Format(os.Stdout)
		fmt.Printf("(%s wall time: %v)\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
}

// chaosRun drives the deterministic chaos harness (internal/chaos): a
// seeded multi-table scenario over fault-injecting storage, every
// surviving state checked against the model oracle. The run is
// bit-deterministic: the same seed and steps always produce the same
// final state hash, which CI verifies by running it twice.
func chaosRun(seed int64, steps int, outPath string) error {
	t0 := time.Now()
	res, err := chaos.Run(chaos.Options{Seed: seed, Steps: steps, Verbose: os.Stdout})
	if err != nil {
		return err
	}
	if res.Failure != nil {
		var b strings.Builder
		fmt.Fprintf(&b, "chaos FAILURE (reproduce with -chaos -seed %d -steps %d)\n%v\n", seed, steps, res.Failure)
		fmt.Fprintf(&b, "\nshrunk trace (%d of %d ops):\n", len(res.ShrunkTrace), len(res.Trace))
		for _, op := range res.ShrunkTrace {
			fmt.Fprintf(&b, "  %v\n", op)
		}
		fmt.Fprintf(&b, "\nrepro test:\n%s", res.Repro)
		fmt.Fprint(os.Stderr, b.String())
		if outPath != "" {
			if werr := os.WriteFile(outPath, []byte(b.String()), 0o644); werr != nil {
				fmt.Fprintln(os.Stderr, werr)
			}
		}
		return fmt.Errorf("chaos: oracle failure at step %d (seed %d)", res.Failure.Step, seed)
	}
	fmt.Printf("chaos OK: seed=%d steps=%d crashes=%d reopens=%d final state hash=%016x (%v wall)\n",
		seed, res.Steps, res.Crashes, res.Reopens, res.Hash, time.Since(t0).Round(time.Millisecond))
	return nil
}

func mustSize(s string) int64 {
	mult := int64(1)
	u := strings.ToUpper(s)
	switch {
	case strings.HasSuffix(u, "GB"):
		mult, u = 1<<30, u[:len(u)-2]
	case strings.HasSuffix(u, "MB"):
		mult, u = 1<<20, u[:len(u)-2]
	case strings.HasSuffix(u, "KB"):
		mult, u = 1<<10, u[:len(u)-2]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(u), 10, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad size %q: %v\n", s, err)
		os.Exit(1)
	}
	return n * mult
}
