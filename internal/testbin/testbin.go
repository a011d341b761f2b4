// Package testbin builds this module's commands for tests that run them
// as child processes.
package testbin

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// Main builds each command bins names (a directory under cmd/) into one
// temporary directory, stores each binary's path through its pointer,
// runs the tests, removes the binaries and exits. -short skips the
// build, and a failed build leaves every path empty, so the tests that
// need a binary skip.
func Main(m *testing.M, bins map[string]*string) {
	flag.Parse()
	os.Exit(run(m, bins))
}

func run(m *testing.M, bins map[string]*string) int {
	if testing.Short() {
		return m.Run()
	}
	dir, err := os.MkdirTemp("", "repro-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, "testbin:", err)
		return m.Run()
	}
	defer os.RemoveAll(dir)
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for name := range bins {
		args = append(args, "repro/cmd/"+name)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "testbin: go %v failed, tests that run the binaries will skip: %v\n%s", args, err, out)
		return m.Run()
	}
	for name, path := range bins {
		*path = filepath.Join(dir, name)
	}
	return m.Run()
}
