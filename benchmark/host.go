package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"masm"
	"masm/internal/proto"
	"masm/internal/server"
)

// dataMiB is masmd's -data default; set-up and the traced host use the same
// so that all three open the directory with one geometry.
const dataMiB = 1024

func engineOptions(cacheMiB int) masm.EngineDirOptions {
	cfg := masm.DefaultConfig()
	cfg.CacheBytes = int64(cacheMiB) << 20
	return masm.EngineDirOptions{Config: cfg, DataBytes: dataMiB << 20}
}

// buildDataset is one set-up: it creates dir, bulk-loads table t0 with
// p.rows rows, applies p.prefill updates through the library, makes them
// durable and hard-stops the engine, so that whoever opens dir next runs a
// real recovery. It returns the model of what dir holds.
func buildDataset(dir string, p params, seed int64) (*model, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	m := newModel(p.rows)
	keys := make([]uint64, p.rows)
	bodies := make([][]byte, p.rows)
	buf := make([]byte, p.rows*bodyLen)
	for i := range keys {
		keys[i] = uint64(2 * (i + 1))
		bodies[i] = encodeBody(buf[i*bodyLen:], keys[i], 0)
	}
	eng, err := masm.OpenEngineDir(dir, engineOptions(p.cacheMiB))
	if err != nil {
		return nil, err
	}
	tbl, err := eng.CreateTable(tableName, masm.TableOptions{Keys: keys, Bodies: bodies})
	if err != nil {
		eng.HardStop()
		return nil, err
	}
	g := newKeygen(seed, p.rows)
	var body [bodyLen]byte
	for i := 0; i < p.prefill && err == nil; i++ {
		key, kind := g.uniform(), g.mixKind()
		err = applyLibrary(tbl, m, key, kind, body[:])
	}
	if err == nil {
		err = eng.Sync()
	}
	if serr := eng.HardStop(); err == nil {
		err = serr
	}
	return m, err
}

// applyLibrary performs one modelled write through the library.
func applyLibrary(tbl *masm.Table, m *model, key uint64, kind opKind, scratch []byte) error {
	ver := m.apply(key, kind)
	switch kind {
	case opPut:
		return tbl.Insert(key, encodeBody(scratch, key, ver))
	case opModify:
		return tbl.Modify(key, patchOff, encodeBody(scratch, key, ver)[patchOff:patchOff+patchLen])
	default:
		return tbl.Delete(key)
	}
}

// childHost is a masmd process: the server of the untraced run. crash
// stops it with no shutdown at all; stop shuts it down and waits.
type childHost struct {
	cmd  *exec.Cmd
	addr string // where it serves
}

var servingRE = regexp.MustCompile(`serving .* on (\S+) \(metrics`)

// startChild execs masmd on dir with flag defaults apart from the cache
// size, and waits until it has logged the address it serves.
func startChild(masmd, dir string, cacheMiB int) (*childHost, error) {
	cmd := exec.Command(masmd, "-dir", dir, "-addr", "127.0.0.1:0", "-cache", strconv.Itoa(cacheMiB))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	h := &childHost{cmd: cmd}
	found := make(chan string, 1)
	ended := make(chan string, 1) // the last line, once the child's stderr ends
	go func() {
		sc := bufio.NewScanner(stderr)
		var last string
		for sc.Scan() {
			last = sc.Text()
			if m := servingRE.FindStringSubmatch(last); m != nil {
				found <- m[1]
			}
		}
		ended <- last
	}()
	select {
	case h.addr = <-found:
		return h, nil
	case last := <-ended:
		cmd.Wait()
		return nil, fmt.Errorf("masmd exited before serving: %s", last)
	case <-time.After(60 * time.Second):
		h.crash()
		return nil, errors.New("masmd did not start serving within 60s")
	}
}

func (h *childHost) crash() {
	h.cmd.Process.Kill()
	h.cmd.Wait() // reports the kill; the child being gone is what matters
}

func (h *childHost) stop() error {
	h.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- h.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		h.cmd.Process.Kill()
		<-done
		return errors.New("masmd ignored SIGTERM for 30s; killed")
	}
}

// rssPeakMB reads the child's peak resident set (VmHWM).
func (h *childHost) rssPeakMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", h.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// tracedHost serves dir from inside the benchmark process, with the same
// settings masmd's flags default to, so that the tracer can wrap the
// storage backends and receive the engine's lifecycle events.
type tracedHost struct {
	eng *masm.Engine
	tbl *masm.Table
	srv *server.Server
	ln  net.Listener
	// recoveryNs is how long OpenEngineDir took.
	recoveryNs int64
}

// openTraced runs recovery on dir. Nothing is served until serve is called,
// so the caller can first probe the engine while its state is exactly what
// the seed determines.
func openTraced(dir string, cacheMiB int, tr *tracer) (*tracedHost, error) {
	opts := engineOptions(cacheMiB)
	opts.WrapBackend = tr.wrap
	start := tr.now()
	eng, err := masm.OpenEngineDir(dir, opts)
	if err != nil {
		return nil, err
	}
	end := tr.now()
	tr.add(kRecovery, -1, start, end)
	eng.SetTraceSink(tr)
	tbl, err := eng.OpenTable(tableName)
	if err != nil {
		eng.HardStop()
		return nil, err
	}
	return &tracedHost{eng: eng, tbl: tbl, recoveryNs: end - start}, nil
}

func (h *tracedHost) serve() error {
	if _, err := h.eng.StartMigrationScheduler(masm.DefaultMigrationInterval); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h.ln = ln
	h.srv = server.New(h.eng, server.Options{})
	go h.srv.Serve(ln) // returns once stop or crash closes the server
	return nil
}

func (h *tracedHost) addr() string { return h.ln.Addr().String() }

func (h *tracedHost) crash() error {
	// The engine goes first, as in a kill: connections die with requests
	// in flight and nothing gets a last flush.
	err := h.eng.HardStop()
	if h.srv != nil { // nil until serve
		h.srv.Close()
	}
	return err
}

func (h *tracedHost) stop() error {
	h.srv.Close()
	return h.eng.Close()
}

// firstReply dials addr and reads one key: the moment a restarted server
// is of use to a client.
func firstReply(addr string) (*proto.Client, error) {
	c, err := proto.Dial(addr)
	if err != nil {
		return nil, err
	}
	if err := c.Scan(tableName, 2, 2, 1, func(uint64, []byte) bool { return true }); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// buildMasmd compiles cmd/masmd of the enclosing checkout into dir. The
// package resolves through this module's replace line, so the working
// directory has to be the benchmark's.
func buildMasmd(dir string) (string, error) {
	out := filepath.Join(dir, "masmd")
	cmd := exec.Command("go", "build", "-o", out, "masm/cmd/masmd")
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build masm/cmd/masmd (run from the benchmark directory, or through run.sh): %v\n%s", err, msg)
	}
	return out, nil
}
