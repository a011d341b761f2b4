// Command minijvm runs a mini-Java source file on one of the simulated
// JVMs, mirroring a `java` invocation with diagnostic flags.
//
// Usage:
//
//	minijvm -jvm openjdk-17 -flags PrintInlining,TraceLoopOpts prog.mj
//	minijvm -jvm openj9-11 -xcomp -disasm prog.mj
//	minijvm -interp prog.mj        # pure interpreter (reference output)
//	minijvm -exec-serve            # persistent batched execution server
//
// Exit codes are distinct per failure domain so drivers can classify
// without parsing output:
//
//	0  success (all builds agree, in -diff mode)
//	1  program-level fatal error (unreadable file, parse/type error)
//	2  usage error (also the Go runtime's uncaught-panic status)
//	3  simulated JVM crash (the crash-oracle outcome)
//	4  differential inconsistency (the miscompilation-oracle outcome)
//
// -exec-serve is the machine-readable mode behind the pool backend (see
// internal/exec): it announces itself with a hello line, then answers
// NDJSON batch requests (N executions per round trip) until stdin
// closes. Every outcome — including crashes, timeouts, and heap
// exhaustion — is written to stdout as versioned JSON; only an unusable
// frame exits non-zero. The child holds a compile cache across the
// whole stream and self-reports heap telemetry so the parent can
// recycle it.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/buginject"
	"repro/internal/bytecode"
	"repro/internal/exec"
	"repro/internal/jvm"
	"repro/internal/lang"
	"repro/internal/profile"
)

// Exit codes (see the package comment). exitUsage doubles as the Go
// runtime's own uncaught-panic status; the -exec-serve parent
// disambiguates via the "panic:" marker on stderr.
const (
	exitFatal        = 1
	exitUsage        = 2
	exitCrash        = 3
	exitInconsistent = 4
)

func main() {
	jvmFlag := flag.String("jvm", "openjdk-mainline", "target JVM: openjdk-{8,11,17,21,mainline} or openj9-{...}")
	flagsFlag := flag.String("flags", "", "comma-separated diagnostic flags (or 'all')")
	xcomp := flag.Bool("xcomp", true, "force JIT compilation of every invoked method")
	interp := flag.Bool("interp", false, "pure interpreter (no JIT, no seeded bugs)")
	noBugs := flag.Bool("nobugs", false, "disable the version's seeded bug set")
	disasm := flag.Bool("disasm", false, "print the compiled bytecode before running")
	showLog := flag.Bool("log", true, "print the profile log after the run")
	showOBV := flag.Bool("obv", false, "print the extracted optimization behavior vector")
	diff := flag.Bool("diff", false, "differential mode: run on every simulated build and compare outputs")
	compileOnly := flag.String("compileonly", "", "JIT-compile only this method (Class.method)")
	execServe := flag.Bool("exec-serve", false, "long-lived server mode: answer NDJSON execution batches on stdin until EOF (the warm-pool child)")
	flag.Parse()

	if *execServe {
		// Pool child: hello handshake, then batch frames until the
		// parent closes stdin; every other flag is ignored. Buffered
		// stdout is flushed per frame by ServeStream. Substrate panics
		// are NOT recovered — an escaped panic is exactly the signal the
		// parent's process-level containment classifies.
		out := bufio.NewWriter(os.Stdout)
		err := exec.ServeStream(os.Stdin, out)
		out.Flush()
		if err != nil {
			fmt.Fprintln(os.Stderr, "minijvm:", err)
			os.Exit(exec.ExitRequestError)
		}
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: minijvm [flags] <file.mj>")
		os.Exit(exitUsage)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	if err := lang.Check(prog); err != nil {
		fatal(err)
	}

	spec, err := jvm.ParseSpec(*jvmFlag)
	if err != nil {
		fatal(err)
	}

	if *disasm {
		img, err := bytecode.Compile(prog)
		if err != nil {
			fatal(err)
		}
		fmt.Print(bytecode.DisassembleImage(img))
		fmt.Println()
	}

	opt := jvm.Options{
		ForceCompile:    *xcomp,
		PureInterpreter: *interp,
		CompileOnly:     *compileOnly,
	}
	if *noBugs {
		opt.Bugs = []*buginject.Bug{}
	}
	switch {
	case *flagsFlag == "all":
		opt.Flags = profile.DefaultFlags()
	case *flagsFlag != "":
		opt.Flags = profile.FlagSet{}
		for _, f := range strings.Split(*flagsFlag, ",") {
			opt.Flags[profile.Flag(strings.TrimSpace(f))] = true
		}
	}

	if *diff {
		runDiff(prog, opt)
		return
	}

	res, err := jvm.Run(prog, spec, opt)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("== %s ==\n", spec.Name())
	fmt.Print(res.Result.OutputString())
	fmt.Println()
	if res.Crashed() {
		fmt.Println(res.HsErr())
	}
	if *showLog && res.Log != "" {
		fmt.Println("-- profile log --")
		fmt.Println(res.Log)
	}
	if *showOBV {
		fmt.Println("-- OBV --")
		fmt.Println(res.OBV)
	}
	if res.Crashed() {
		os.Exit(exitCrash)
	}
}

// runDiff executes the program on every simulated build and reports the
// distinct output groups (the paper's miscompilation oracle).
func runDiff(prog *lang.Program, opt jvm.Options) {
	d, err := jvm.RunDifferential(prog, jvm.AllSpecs(), opt)
	if err != nil {
		fatal(err)
	}
	for _, r := range d.Results {
		status := r.Result.OutputString()
		if r.Crashed() {
			status = "CRASH " + r.Result.Crash.BugID
		}
		fmt.Printf("  %-18s %s\n", r.Spec.Name(), strings.ReplaceAll(status, "\n", " | "))
	}
	if d.Inconsistent() {
		fmt.Printf("INCONSISTENT: %d output groups\n", len(d.Groups))
		for _, b := range d.TriggeredBugs() {
			fmt.Printf("  triggered: %s (%s, %s)\n", b.ID, b.Impl, b.Component)
		}
		os.Exit(exitInconsistent)
	}
	fmt.Println("all builds agree")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "minijvm:", err)
	os.Exit(exitFatal)
}
