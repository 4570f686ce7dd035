package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// allowDirective is one parsed //cosmosvet:allow comment.
type allowDirective struct {
	analyzer string
	reason   string
	file     string
	line     int
	pos      Diagnostic // reporting position for malformed/stale allows
	used     bool
}

// RunOptions tunes a Run call.
type RunOptions struct {
	// Strict additionally reports stale allow comments (ones that
	// suppressed nothing) and allow comments naming an analyzer that
	// is not part of this run. cmd/cosmosvet runs strict; the
	// single-analyzer test harness does not, since an allow aimed at
	// another analyzer would falsely look stale.
	Strict bool
	// Config carries per-analyzer options, keyed "<analyzer>.<key>"
	// (see Pass.Config). cosmosvet populates it from -config flags.
	Config map[string]string
}

// AllowInfo describes one active //cosmosvet:allow escape hatch, for
// cosmosvet's suppression report: every suppression in the analyzed
// packages, with its mandatory reason and whether it suppressed
// anything in this run.
type AllowInfo struct {
	Analyzer string
	Reason   string
	Pos      token.Position
	Used     bool
}

// Run executes every analyzer over every package, applies
// //cosmosvet:allow suppressions, and returns the surviving
// diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer, opts RunOptions) ([]Diagnostic, error) {
	diags, _, err := RunWithInfo(pkgs, analyzers, opts)
	return diags, err
}

// RunWithInfo is Run plus the list of every allow directive seen,
// sorted by position, for suppression-audit reporting.
func RunWithInfo(pkgs []*Package, analyzers []*Analyzer, opts RunOptions) ([]Diagnostic, []AllowInfo, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}

	var out []Diagnostic
	var allAllows []AllowInfo
	for _, pkg := range pkgs {
		allows, malformed := collectAllows(pkg)
		out = append(out, malformed...)

		var raw []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.Info,
				ModulePath: pkg.ModulePath,
				report:     func(d Diagnostic) { raw = append(raw, d) },
				config:     opts.Config,
			}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}

		for _, d := range raw {
			if al := matchAllow(allows, d); al != nil {
				al.used = true
				continue
			}
			out = append(out, d)
		}

		if opts.Strict {
			for _, al := range allows {
				if !al.used {
					out = append(out, Diagnostic{
						Analyzer: "cosmosvet",
						Pos:      al.pos.Pos,
						Message:  fmt.Sprintf("stale cosmosvet:allow %s — it suppresses nothing; remove it", al.analyzer),
					})
				}
				if !known[al.analyzer] {
					out = append(out, Diagnostic{
						Analyzer: "cosmosvet",
						Pos:      al.pos.Pos,
						Message:  fmt.Sprintf("cosmosvet:allow names unknown analyzer %q", al.analyzer),
					})
				}
			}
		}

		for _, al := range allows {
			allAllows = append(allAllows, AllowInfo{
				Analyzer: al.analyzer,
				Reason:   al.reason,
				Pos:      al.pos.Pos,
				Used:     al.used,
			})
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	sort.Slice(allAllows, func(i, j int) bool {
		a, b := allAllows[i], allAllows[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return out, allAllows, nil
}

// matchAllow finds an unused-or-used allow covering d: same file, same
// analyzer, on the diagnostic's line or the line directly above it.
func matchAllow(allows []*allowDirective, d Diagnostic) *allowDirective {
	for _, al := range allows {
		if al.analyzer != d.Analyzer || al.file != d.Pos.Filename {
			continue
		}
		if al.line == d.Pos.Line || al.line == d.Pos.Line-1 {
			return al
		}
	}
	return nil
}

// collectAllows parses every //cosmosvet:allow comment in the package.
// Malformed directives (missing analyzer name or missing reason) are
// returned as diagnostics: a suppression without a reason defeats the
// point of machine-checked invariants.
func collectAllows(pkg *Package) ([]*allowDirective, []Diagnostic) {
	var allows []*allowDirective
	var malformed []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//cosmosvet:allow")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) == 0 {
					malformed = append(malformed, Diagnostic{
						Analyzer: "cosmosvet",
						Pos:      pos,
						Message:  "cosmosvet:allow needs an analyzer name and a reason: //cosmosvet:allow <analyzer> <reason>",
					})
					continue
				}
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Analyzer: "cosmosvet",
						Pos:      pos,
						Message:  fmt.Sprintf("cosmosvet:allow %s needs a reason explaining why the finding is safe to suppress", fields[0]),
					})
					continue
				}
				allows = append(allows, &allowDirective{
					analyzer: fields[0],
					reason:   strings.Join(fields[1:], " "),
					file:     pos.Filename,
					line:     pos.Line,
					pos:      Diagnostic{Pos: pos},
				})
			}
		}
	}
	return allows, malformed
}
