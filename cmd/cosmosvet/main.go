// Command cosmosvet runs the repository's custom static analyzers — a
// go vet-style multichecker enforcing the invariants the paper
// reproduction's claims rest on:
//
//	determinism    no wall-clock reads, unseeded randomness, or
//	               order-sensitive map iteration in the simulation core
//	exhaustive     switches over protocol enums (CacheState, dirState,
//	               MsgType, ...) cover every state or fail loudly
//	hotpath        //cosmosvet:hotpath-annotated functions and their
//	               call closures stay free of heap-allocating constructs
//	immutability   messages handed to a send path are never mutated
//	               afterwards
//	transition     protocol dispatch switches match the declared
//	               (state, message) spec tables in internal/stache
//
// Usage:
//
//	cosmosvet ./...                  # analyze the whole module (the make lint gate)
//	cosmosvet ./internal/stache
//	cosmosvet -list                  # print the analyzers and their invariants
//	cosmosvet -analyzers transition,hotpath ./internal/...
//	cosmosvet -config hotpath.maxdepth=4 ./...
//
// Findings are printed one per line as file:line:col: analyzer:
// message, with paths relative to the working directory, followed by
// a report of every active suppression. The exit status is 1 when any
// finding survives suppression. A deliberate exception is suppressed
// with a reasoned comment on the offending line or the line above it:
//
//	//cosmosvet:allow <analyzer> <reason>
//
// Reasonless or stale allow comments are themselves findings.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/cosmos-coherence/cosmos/internal/analysis"
	"github.com/cosmos-coherence/cosmos/internal/analysis/determinism"
	"github.com/cosmos-coherence/cosmos/internal/analysis/exhaustive"
	"github.com/cosmos-coherence/cosmos/internal/analysis/hotpath"
	"github.com/cosmos-coherence/cosmos/internal/analysis/immutability"
	"github.com/cosmos-coherence/cosmos/internal/analysis/transition"
)

// analyzers is the cosmosvet suite, in reporting order.
var analyzers = []*analysis.Analyzer{
	determinism.Analyzer,
	exhaustive.Analyzer,
	hotpath.Analyzer,
	immutability.Analyzer,
	transition.Analyzer,
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cosmosvet:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// configFlags accumulates repeated -config analyzer.key=value options.
type configFlags map[string]string

func (c configFlags) String() string { return "" }

func (c configFlags) Set(v string) error {
	key, val, ok := strings.Cut(v, "=")
	if !ok || !strings.Contains(key, ".") {
		return fmt.Errorf("-config wants analyzer.key=value, got %q", v)
	}
	c[key] = val
	return nil
}

func run(args []string, out *os.File) (int, error) {
	fs := flag.NewFlagSet("cosmosvet", flag.ContinueOnError)
	list := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("analyzers", "", "comma-separated subset of analyzers to run")
	config := configFlags{}
	fs.Var(config, "config", "per-analyzer option analyzer.key=value (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2, nil // flag package already printed the error
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(out, "%-13s %s\n", a.Name, a.Doc)
		}
		return 0, nil
	}

	active := analyzers
	if *only != "" {
		active = nil
		byName := map[string]*analysis.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				return 0, fmt.Errorf("unknown analyzer %q (see cosmosvet -list)", name)
			}
			active = append(active, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(patterns)
	if err != nil {
		return 0, err
	}
	diags, allows, err := analysis.RunWithInfo(pkgs, active, analysis.RunOptions{Strict: true, Config: config})
	if err != nil {
		return 0, err
	}
	cwd, _ := os.Getwd()
	for _, d := range diags {
		fmt.Fprintf(out, "%s:%d:%d: %s: %s\n", relPath(cwd, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	printAllowReport(out, allows, cwd)
	if len(diags) > 0 {
		return 1, nil
	}
	return 0, nil
}

// relPath shortens a file under dir to its slash-separated relative
// path; files outside dir keep their absolute path.
func relPath(dir, file string) string {
	if rel, err := filepath.Rel(dir, file); err == nil && filepath.IsLocal(rel) {
		return filepath.ToSlash(rel)
	}
	return file
}

// printAllowReport lists every active escape hatch. The suppressions
// are part of the lint contract — each one is a finding somebody
// decided to live with, and the report keeps that decision visible in
// every `make lint` run instead of buried in source.
func printAllowReport(out *os.File, allows []analysis.AllowInfo, cwd string) {
	if len(allows) == 0 {
		fmt.Fprintln(out, "cosmosvet: no active allow suppressions")
		return
	}
	fmt.Fprintf(out, "cosmosvet: %d active allow suppression(s):\n", len(allows))
	for _, al := range allows {
		fmt.Fprintf(out, "  %s:%d: allow %s: %s\n", relPath(cwd, al.Pos.Filename), al.Pos.Line, al.Analyzer, al.Reason)
	}
}
