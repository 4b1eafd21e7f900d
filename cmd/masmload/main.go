// Command masmload drives a masmd server with synthetic client load: N
// concurrent connections, Zipf-skewed tenant (table) selection, closed-
// or open-loop pacing, client-observed latency percentiles, and a
// retry-on-backpressure loop exercising the engine's write admission.
//
// With -bench it runs the group-commit comparison the repo commits as
// BENCH_10.json: the same closed-loop write workload through 1
// connection (every commit pays its own WAL fsync) and through -conns
// connections sharing the group-commit pipeline, reporting the
// throughput ratio and per-phase p50/p99.
//
// With -spawn it hosts an in-process masmd over a temp directory and
// real TCP loopback, so a single command measures the full network
// stack with no external setup:
//
//	masmload -spawn -bench -json BENCH_10.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"masm"
	"masm/internal/proto"
	"masm/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "", "masmd address (empty with -spawn: loopback in-process server)")
		spawn    = flag.Bool("spawn", false, "host an in-process masmd over a temp dir")
		conns    = flag.Int("conns", 64, "client connections")
		duration = flag.Duration("duration", 3*time.Second, "per-phase run time")
		mode     = flag.String("mode", "closed", `pacing: "closed" (next op after reply) or "open" (fixed rate)`)
		rate     = flag.Float64("rate", 10000, "open-loop target ops/s, summed over connections")
		ntables  = flag.Int("ntables", 4, "tables addressed (t0..tN-1; server must have them)")
		zipfS    = flag.Float64("zipf", 1.3, "Zipf s parameter for tenant skew (<=1 disables skew)")
		keyspace = flag.Uint64("keyspace", 200000, "keys per table")
		valBytes = flag.Int("valbytes", 100, "value size")
		seed     = flag.Int64("seed", 1, "workload seed")
		benchRun = flag.Bool("bench", false, "run the 1-conn vs -conns group-commit comparison")
		jsonOut  = flag.String("json", "", "write results as JSON to this file")
	)
	flag.Parse()

	var eng *masm.Engine
	var srv *server.Server
	if *spawn {
		dir, err := os.MkdirTemp("", "masmload-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		cfg := masm.DefaultConfig()
		cfg.CacheBytes = 64 << 20
		eng, err = masm.OpenEngineDir(dir, masm.EngineDirOptions{Config: cfg, DataBytes: 512 << 20})
		if err != nil {
			log.Fatal(err)
		}
		defer eng.Close()
		for i := 0; i < *ntables; i++ {
			if _, err := eng.CreateTable(fmt.Sprintf("t%d", i), masm.TableOptions{}); err != nil {
				log.Fatal(err)
			}
		}
		if _, err := eng.StartMigrationScheduler(0); err != nil {
			log.Fatal(err)
		}
		srv = server.New(eng, server.Options{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go srv.Serve(ln)
		defer srv.Close()
		*addr = ln.Addr().String()
	}
	if *addr == "" {
		log.Fatal("masmload: -addr or -spawn required")
	}

	w := workload{
		addr:     *addr,
		mode:     *mode,
		rate:     *rate,
		ntables:  *ntables,
		zipfS:    *zipfS,
		keyspace: *keyspace,
		valBytes: *valBytes,
		seed:     *seed,
	}

	if *benchRun {
		single := w.run(1, *duration)
		fmt.Printf("single: %s\n", single)
		group := w.run(*conns, *duration)
		fmt.Printf("group : %s\n", group)
		speedup := group.OpsPerSec / single.OpsPerSec
		out := benchReport{
			Bench:       "masmd group commit vs per-commit fsync",
			Mode:        w.mode,
			ValBytes:    *valBytes,
			DurationSec: duration.Seconds(),
			Single:      single,
			Group:       group,
			Speedup:     speedup,
		}
		if eng != nil {
			if h := eng.Metrics().Histogram("masm_wal_group_size"); h != nil && h.Count > 0 {
				out.WALGroupMean = h.Mean()
				out.WALGroupP99 = h.Quantile(0.99)
			}
		}
		fmt.Printf("speedup: %.2fx (%d conns vs 1)\n", speedup, group.Conns)
		emit(*jsonOut, out)
		if speedup < 3 {
			log.Fatalf("masmload: group commit speedup %.2fx < 3x target", speedup)
		}
		return
	}

	res := w.run(*conns, *duration)
	fmt.Println(res)
	emit(*jsonOut, res)
}

func emit(path string, v any) {
	if path == "" {
		return
	}
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		log.Fatal(err)
	}
}

type benchReport struct {
	Bench        string  `json:"bench"`
	Mode         string  `json:"mode"`
	ValBytes     int     `json:"val_bytes"`
	DurationSec  float64 `json:"duration_sec"`
	Single       result  `json:"single"`
	Group        result  `json:"group"`
	Speedup      float64 `json:"speedup"`
	WALGroupMean float64 `json:"wal_group_size_mean,omitempty"`
	WALGroupP99  int64   `json:"wal_group_size_p99,omitempty"`
}

type result struct {
	Conns      int     `json:"conns"`
	Ops        int64   `json:"ops"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	P50Micros  float64 `json:"p50_us"`
	P99Micros  float64 `json:"p99_us"`
	Backoffs   int64   `json:"backpressure_retries"`
	ErrorCount int64   `json:"errors"`
}

func (r result) String() string {
	return fmt.Sprintf("%d conns: %d ops, %.0f ops/s, p50 %.0fµs p99 %.0fµs, %d backpressure retries, %d errors",
		r.Conns, r.Ops, r.OpsPerSec, r.P50Micros, r.P99Micros, r.Backoffs, r.ErrorCount)
}

type workload struct {
	addr     string
	mode     string
	rate     float64
	ntables  int
	zipfS    float64
	keyspace uint64
	valBytes int
	seed     int64
}

// run drives n connections for d and aggregates their client-observed
// latencies.
func (w workload) run(n int, d time.Duration) result {
	type connStats struct {
		lat      []time.Duration
		backoffs int64
		errs     int64
	}
	stats := make([]connStats, n)
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := &stats[i]
			c, err := proto.Dial(w.addr)
			if err != nil {
				st.errs++
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(w.seed + int64(i)*7919))
			var zipf *rand.Zipf
			if w.zipfS > 1 && w.ntables > 1 {
				zipf = rand.NewZipf(rng, w.zipfS, 1, uint64(w.ntables-1))
			}
			body := make([]byte, w.valBytes)
			rng.Read(body)
			var pace <-chan time.Time
			if w.mode == "open" {
				interval := time.Duration(float64(n) / w.rate * float64(time.Second))
				if interval <= 0 {
					interval = time.Microsecond
				}
				t := time.NewTicker(interval)
				defer t.Stop()
				pace = t.C
			}
			for time.Now().Before(deadline) {
				if pace != nil {
					<-pace
				}
				table := "t0"
				if zipf != nil {
					table = fmt.Sprintf("t%d", zipf.Uint64())
				} else if w.ntables > 1 {
					table = fmt.Sprintf("t%d", rng.Intn(w.ntables))
				}
				key := rng.Uint64()%w.keyspace + 1
				start := time.Now()
				err := c.Put(table, key, body)
				for proto.ErrBackpressure(err) {
					st.backoffs++
					time.Sleep(200 * time.Microsecond)
					err = c.Put(table, key, body)
				}
				if err != nil {
					st.errs++
					return
				}
				st.lat = append(st.lat, time.Since(start))
			}
		}(i)
	}
	wg.Wait()

	var all []time.Duration
	res := result{Conns: n}
	for i := range stats {
		all = append(all, stats[i].lat...)
		res.Backoffs += stats[i].backoffs
		res.ErrorCount += stats[i].errs
	}
	res.Ops = int64(len(all))
	res.OpsPerSec = float64(len(all)) / d.Seconds()
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.P50Micros = quantileMicros(all, 0.50)
	res.P99Micros = quantileMicros(all, 0.99)
	return res
}

func quantileMicros(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Microsecond)
}
