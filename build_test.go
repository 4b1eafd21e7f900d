package masm

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// goTool returns the go binary, skipping the test where the toolchain is
// unavailable or the run is -short.
func goTool(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping toolchain test in -short mode")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	return goBin
}

// TestEverythingBuilds is the smoke test keeping examples/*, cmd/* and the
// separate benchmark module buildable: `go build` and `go vet` must succeed
// for both modules, so a refactor of the library cannot silently break the
// binaries, the examples (which have no test files of their own) or the
// benchmark harness (which tier-1 does not otherwise compile).
func TestEverythingBuilds(t *testing.T) {
	goBin := goTool(t)
	for _, c := range []struct {
		dir  string
		args []string
	}{
		{".", []string{"build", "./..."}},
		{".", []string{"vet", "./..."}},
		{"benchmark", []string{"build", "-o", os.DevNull, "."}},
		{"benchmark", []string{"vet", "."}},
	} {
		cmd := exec.Command(goBin, c.args...)
		cmd.Dir = c.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s in %s failed: %v\n%s", strings.Join(c.args, " "), c.dir, err, out)
		}
	}
}

// TestNoOrphanPackages keeps the engine free of packages nothing uses:
// every masm/internal/... package must be imported by a non-test file of
// some other package, in this module or in the benchmark module.
func TestNoOrphanPackages(t *testing.T) {
	goBin := goTool(t)
	imported := make(map[string]bool)
	var internal []string
	for _, m := range []struct{ dir, pkgs string }{{".", "./..."}, {"benchmark", "."}} {
		// .Imports lists the imports of the package's non-test files only.
		cmd := exec.Command(goBin, "list", "-f", `{{.ImportPath}} {{join .Imports " "}}`, m.pkgs)
		cmd.Dir = m.dir
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s failed: %v", m.dir, err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			fields := strings.Fields(line)
			if strings.HasPrefix(fields[0], "masm/internal/") {
				internal = append(internal, fields[0])
			}
			for _, imp := range fields[1:] {
				if imp != fields[0] {
					imported[imp] = true
				}
			}
		}
	}
	if len(internal) == 0 {
		t.Fatal("go list found no masm/internal/... packages")
	}
	for _, pkg := range internal {
		if !imported[pkg] {
			t.Errorf("%s is imported by no non-test file of another package: delete it or give it a caller", pkg)
		}
	}
}
