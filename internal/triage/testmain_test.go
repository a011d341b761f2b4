package triage

import (
	"flag"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"testing"
)

// minijvmPath is the minijvm binary built by TestMain (or supplied via
// $MINIJVM); empty means pool-backend tests skip.
var minijvmPath string

// TestMain builds cmd/minijvm once, mirroring the exec package's test
// harness. -short skips the build (and the tests that need it).
func TestMain(m *testing.M) {
	flag.Parse()
	if !testing.Short() {
		if p := os.Getenv("MINIJVM"); p != "" {
			minijvmPath = p
		} else {
			dir, err := os.MkdirTemp("", "minijvm")
			if err == nil {
				bin := filepath.Join(dir, "minijvm")
				out, err := osexec.Command("go", "build", "-o", bin, "repro/cmd/minijvm").CombinedOutput()
				if err != nil {
					fmt.Fprintf(os.Stderr, "triage_test: building minijvm failed, pool-backend tests will skip: %v\n%s", err, out)
				} else {
					minijvmPath = bin
				}
				defer os.RemoveAll(dir)
			}
		}
	}
	os.Exit(m.Run())
}
