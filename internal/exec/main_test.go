package exec_test

import (
	"errors"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/buginject"
	"repro/internal/exec"
	"repro/internal/jvm"
	"repro/internal/lang"
	"repro/internal/testbin"
)

// minijvmPath is the minijvm binary TestMain builds. Empty means the
// tests that run it skip (-short or a failed build).
var minijvmPath string

func TestMain(m *testing.M) { testbin.Main(m, map[string]*string{"minijvm": &minijvmPath}) }

func hotspot17() jvm.Spec { return jvm.Spec{Impl: buginject.HotSpot, Version: 17} }

// crashSrc deterministically fires JDK-8312744 on openjdk-17 (pinned by
// the jvm package's TestVersionedBugArming).
const crashSrc = `
class T {
  int f;
  static void main() {
    T t = new T();
    long total = 0;
    for (int i = 0; i < 1500; i += 1) { total = total + t.foo(i); }
    print(total);
  }
  int foo(int i) {
    int acc = 0;
    for (int k = 0; k < 4; k += 1) {
      synchronized (this) { acc = acc + k + i; }
    }
    synchronized (this) { acc = acc + this.f; }
    return acc;
  }
}`

// TestMinijvmExitCodes pins the CLI's per-failure-domain exit codes
// (0 ok, 1 fatal, 2 usage, 3 simulated crash).
func TestMinijvmExitCodes(t *testing.T) {
	if minijvmPath == "" {
		t.Skip("minijvm binary unavailable (-short or build failure)")
	}
	dir := t.TempDir()
	okFile := filepath.Join(dir, "ok.mj")
	if err := os.WriteFile(okFile, []byte("class T { static void main() { print(1); } }"), 0o644); err != nil {
		t.Fatal(err)
	}
	crashFile := filepath.Join(dir, "crash.mj")
	if err := os.WriteFile(crashFile, []byte(crashSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	badFile := filepath.Join(dir, "bad.mj")
	if err := os.WriteFile(badFile, []byte("class Broken {"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"ok", []string{"-log=false", okFile}, 0},
		{"usage-no-args", nil, 2},
		{"usage-extra-args", []string{okFile, okFile}, 2},
		{"fatal-unreadable", []string{filepath.Join(dir, "missing.mj")}, 1},
		{"fatal-parse-error", []string{badFile}, 1},
		{"crash", []string{"-jvm", "openjdk-17", "-log=false", crashFile}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := osexec.Command(minijvmPath, tc.args...).Run()
			code := 0
			var ee *osexec.ExitError
			if errors.As(err, &ee) {
				code = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != tc.code {
				t.Errorf("exit code = %d, want %d", code, tc.code)
			}
		})
	}

	// -exec-serve exits ExitRequestError on an unusable frame: garbage,
	// or a batch whose request entry is null (which must be rejected,
	// not dereferenced into a panic).
	for name, frame := range map[string]string{
		"garbage":      "not json\n",
		"null-request": fmt.Sprintf("{\"version\":%d,\"requests\":[null]}\n", exec.WireVersion),
	} {
		cmd := osexec.Command(minijvmPath, "-exec-serve")
		cmd.Stdin = strings.NewReader(frame)
		err := cmd.Run()
		var ee *osexec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != exec.ExitRequestError {
			t.Errorf("exec-serve %s frame: %v, want exit %d", name, err, exec.ExitRequestError)
		}
	}
}

func wireTestProg(t *testing.T) *lang.Program {
	t.Helper()
	p, err := lang.Parse(`
class T {
  static void main() {
    print(1);
  }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
