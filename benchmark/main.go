// Command benchmark measures masmd end to end and layer by layer: four
// workloads driven over TCP by one process with two connections, every
// reply checked against a model. See README.md in this directory.
//
//	go run . [-workload ingest|scan|point-read|mixed] [-trace 0|1] [-seed n] [-seconds s] [-out dir]
//	go run . -compare a/result.json b/result.json
//
// It runs from this directory (run.sh takes care of that for the driver).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

const flushPolicy = "ack after the group-commit fsync of wal.log; DirectIO off; server.Options{} and masmd flag defaults apart from -cache"

// environment is recorded with every result.
type environment struct {
	Go          string  `json:"go"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"nproc"`
	Connections int     `json:"connections"`
	Commit      string  `json:"commit"`
	Kernel      string  `json:"kernel"`
	WorkDir     string  `json:"work_dir"`
	Filesystem  string  `json:"filesystem"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Rows        int     `json:"rows"`
	FlushPolicy string  `json:"flush_policy"`
	// Valid is false when the numbers cannot mean what their names say:
	// on tmpfs an fsync is free, so nothing about writes was measured.
	Valid  bool   `json:"valid"`
	Reason string `json:"invalid_reason,omitempty"`
}

// result is the file -out writes and -compare reads.
type result struct {
	Env environment `json:"env"`
	// Claim is what the change under test says it improves. The change
	// that defines the benchmark claims nothing.
	Claim *string      `json:"claim"`
	Runs  []*runResult `json:"runs"`
}

var filesystems = map[int64]string{
	0x01021994: "tmpfs", 0x858458f6: "ramfs", 0xEF53: "ext4", 0x58465342: "xfs",
	0x9123683E: "btrfs", 0x794c7630: "overlayfs", 0x6969: "nfs", 0x2fc12fc1: "zfs",
}

func captureEnv(workDir string, seed int64, seconds float64, rows int) environment {
	env := environment{
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Connections: numConns, Commit: "unknown", Kernel: "unknown", WorkDir: workDir, Filesystem: "unknown",
		Seed: seed, Seconds: seconds, Rows: rows, FlushPolicy: flushPolicy, Valid: true,
	}
	// The checkout the driver runs in is not a git repository.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(raw))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(workDir, &st); err == nil {
		env.Filesystem = fmt.Sprintf("%#x", int64(st.Type))
		if name, ok := filesystems[int64(st.Type)]; ok {
			env.Filesystem = name
		}
	}
	if env.Filesystem == "tmpfs" || env.Filesystem == "ramfs" {
		env.Valid = false
		env.Reason = "data directory is on " + env.Filesystem + ": fsync is free there, so write_* and tx_* measure nothing"
	}
	return env
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (empty: all four)")
		trace    = flag.String("trace", "", "0: untraced run against masmd; 1: traced in-process run; empty: both")
		seed     = flag.Int64("seed", 1, "seed of everything generated")
		seconds  = flag.Float64("seconds", 12, "length of the measured window")
		repeat   = flag.Int("repeat", 1, "times to run each workload, with seeds seed, seed+1, ...")
		out      = flag.String("out", "", "directory to write result.json and trace-<workload>.json to")
		work     = flag.String("work", filepath.Join("..", ".bench_build", "work"), "scratch directory for database files; must not be tmpfs")
		compare  = flag.Bool("compare", false, "compare two result.json files given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare a/result.json b/result.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal("%v", err)
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal("%v", err)
		}
	}
	masmd, err := buildMasmd(*work)
	if err != nil {
		fatal("%v", err)
	}
	// What the build left dirty is written back now, not during the
	// set-ups this run times.
	syscall.Sync()

	const rows = 1_000_000
	res := result{Env: captureEnv(*work, *seed, *seconds, rows)}
	if !res.Env.Valid {
		fmt.Fprintln(os.Stderr, "benchmark: RESULT INVALID:", res.Env.Reason)
	}
	workloads, modes := workloadNames, []bool{false, true}
	if *workload != "" {
		workloads = []string{*workload}
	}
	if *trace != "" {
		modes = []bool{*trace == "1"}
	}
	for _, w := range workloads {
		for rep := 0; rep < *repeat; rep++ {
			for _, traced := range modes {
				spec := runSpec{workload: w, seed: *seed + int64(rep), seconds: *seconds, traced: traced,
					rows: rows, setups: 3, masmd: masmd, workDir: *work}
				if traced && *out != "" {
					spec.traceOut = filepath.Join(*out, "trace-"+w+".json")
				}
				rr, err := run(spec)
				if err != nil {
					fatal("%s: %v", w, err)
				}
				report(rr)
				res.Runs = append(res.Runs, rr)
			}
		}
	}
	if *out != "" {
		blob, err := json.MarshalIndent(res, "", " ")
		if err == nil {
			err = os.WriteFile(filepath.Join(*out, "result.json"), append(blob, '\n'), 0o644)
		}
		if err != nil {
			fatal("%v", err)
		}
	}
	ok := true
	for _, rr := range res.Runs {
		ok = ok && rr.correct()
	}
	// The driver reads the last line of a single run.
	if len(res.Runs) == 1 {
		fmt.Println(driverLine(res.Runs[0]))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func (rr *runResult) correct() bool { return rr.VerifyErrors == 0 && rr.Failed == 0 }

// defs returns the metrics a run of this kind must report.
func (rr *runResult) defs() []metricDef {
	if rr.Traced {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// report prints every metric of a run by name, with its unit.
func report(rr *runResult) {
	kind := "untraced, masmd child"
	if rr.Traced {
		kind = "traced, in process"
	}
	fmt.Printf("== %s (%s) seed %d, %gs window, %d connections, took %.1fs\n",
		rr.Workload, kind, rr.Seed, rr.Seconds, numConns, rr.WallSeconds)
	for _, d := range rr.defs() {
		m := rr.Metrics[d.name]
		line := fmt.Sprintf("%-36s %14.6g %-7s", d.name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Println(line)
	}
	if len(rr.Shares) > 0 {
		fmt.Println("self time as a share of the time the clients observed (traced slices of the window):")
		var total float64
		for _, s := range rr.Shares {
			fmt.Printf("  %-62s %6.2f%%  %s\n", s.Layer, 100*s.Frac, s.How)
			total += s.Frac
		}
		fmt.Printf("  %-62s %6.2f%%\n", "sum", 100*total)
	}
	fmt.Printf("attempted %d, failed %d, verify_errors %d\n", rr.Attempted, rr.Failed, rr.VerifyErrors)
	for _, v := range rr.Violations {
		fmt.Println("  VIOLATION:", v)
	}
}

// driverLine is the one-line JSON object the driver's contract asks for.
func driverLine(rr *runResult) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rr.correct(), max(rr.Attempted, 1), rr.Failed + rr.VerifyErrors, map[string]value{}}
	for _, d := range rr.defs() {
		m := rr.Metrics[d.name]
		line.Metrics[d.name] = value{m.Value, m.Unit}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		fatal("%v", err)
	}
	return string(blob)
}
