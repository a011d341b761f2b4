// Command triage inspects and maintains the persistent findings stores
// written by mopfuzzer -triage-dir:
//
//	# human-readable summary of a store
//	triage report -store ./bugs
//
//	# machine-readable report for CI assertions
//	triage report -store ./bugs -json -o report.json
//
//	# collapse the append-only log (long campaigns leave sighting trails)
//	triage compact -store ./bugs
//
//	# fold stores from parallel or sharded campaigns into one corpus
//	triage merge -into ./bugs ./bugs-shard1 ./bugs-shard2
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"repro/internal/triage"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "report":
		cmdReport(os.Args[2:])
	case "compact":
		cmdCompact(os.Args[2:])
	case "merge":
		cmdMerge(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: triage <command> [flags]

commands:
  report   render a store as a human-readable or JSON report
  compact  rewrite a store's log to one record per signature
  merge    fold one or more source stores into a destination store`)
	os.Exit(2)
}

func cmdReport(args []string) {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	dir := fs.String("store", "", "triage store directory (required)")
	asJSON := fs.Bool("json", false, "emit the JSON report instead of text")
	out := fs.String("o", "", "write the report to this file instead of stdout")
	fs.Parse(args)
	s := open(*dir)
	defer s.Close()
	rep := triage.BuildReport(s)
	var payload []byte
	if *asJSON {
		// WriteJSON is the same serialization the service daemon's
		// /jobs/{id}/findings endpoint emits, so CLI and API share one
		// machine format.
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			fatal(err)
		}
		payload = buf.Bytes()
	} else {
		payload = []byte(rep.Text())
	}
	if *out == "" {
		os.Stdout.Write(payload)
		return
	}
	if err := os.WriteFile(*out, payload, 0o644); err != nil {
		fatal(err)
	}
}

func cmdCompact(args []string) {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	dir := fs.String("store", "", "triage store directory (required)")
	fs.Parse(args)
	s := open(*dir)
	defer s.Close()
	if err := s.Compact(); err != nil {
		fatal(err)
	}
	fmt.Printf("compacted %s: %d signature(s)\n", *dir, s.Len())
}

func cmdMerge(args []string) {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	into := fs.String("into", "", "destination store directory (required)")
	fs.Parse(args)
	if fs.NArg() == 0 {
		fatal(fmt.Errorf("merge: no source stores given"))
	}
	// Sources are only read: a store's log is the whole store. Every
	// source is read before the destination opens, so a missing one
	// leaves nothing behind.
	logs := make([][]byte, fs.NArg())
	for i, srcDir := range fs.Args() {
		log, err := os.ReadFile(triage.LogPath(srcDir))
		if err != nil {
			fatal(fmt.Errorf("merge: source store: %w", err))
		}
		logs[i] = log
	}
	dst := open(*into)
	defer dst.Close()
	total := 0
	for i, srcDir := range fs.Args() {
		added, err := dst.MergeLog(logs[i])
		if err != nil {
			fatal(fmt.Errorf("merge %s: %w", srcDir, err))
		}
		fmt.Printf("merged %s: %d new signature(s)\n", srcDir, added)
		total += added
	}
	fmt.Printf("store %s now holds %d signature(s) (%d added)\n", *into, dst.Len(), total)
}

func open(dir string) *triage.Store {
	if dir == "" {
		fatal(fmt.Errorf("a store directory is required"))
	}
	s, err := triage.Open(dir)
	if err != nil {
		fatal(err)
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "triage:", err)
	os.Exit(1)
}
