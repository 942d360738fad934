// Package framework is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis surface bismarckvet needs: Analyzer,
// Pass, Diagnostic, a module-aware package loader, a standalone runner,
// and the `go vet -vettool` unit-checker protocol.
//
// The build environment is hermetic — nothing outside the standard
// library may be fetched — so instead of depending on x/tools this
// package rebuilds the pieces on go/ast, go/types, go/parser and the gc
// export-data importer. The API is shaped like go/analysis on purpose:
// if the x/tools dependency ever becomes available, each analyzer ports
// by changing one import line.
//
// What is deliberately NOT reimplemented: cross-package facts (every
// bismarckvet analyzer is single-package), SSA, and the control-flow
// graph package (the analyzers use a structural path walk over the AST,
// which is precise enough for the invariant shapes this codebase uses
// and is documented per analyzer).
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check. It mirrors analysis.Analyzer
// minus facts and requires: bismarckvet analyzers are independent and
// package-local.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command
	// line. By convention a single lowercase word (e.g. "lockorder").
	Name string
	// Doc is the analyzer's help text; the first line is its summary.
	Doc string
	// Run applies the analyzer to one package, reporting diagnostics
	// through pass.Report. A returned error aborts the whole run — it
	// means the analyzer itself is broken, not that the code is.
	Run func(pass *Pass) error
}

// Pass carries one (analyzer, package) unit of work, mirroring
// analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic. Set by the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// Diagnostic is one finding: a position and a message, attributed to the
// analyzer that produced it.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// RunPackage applies each analyzer to pkg and returns the diagnostics
// sorted by position.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: internal analyzer error on %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}
