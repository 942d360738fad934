// Package analysistest runs a bismarckvet analyzer over fixture packages
// under testdata/src/<pkg>/ and checks its diagnostics against
// "// want" expectations, mirroring x/tools' analysistest contract:
//
//	if err != nil { // want `deferred cleanup runs even when the error is an injected crash`
//
// Each backquoted or double-quoted string after "want" is a regular
// expression; every expectation must be matched by a diagnostic on that
// line and every diagnostic must match an expectation — fixtures are
// exact, both flagging and non-flagging lines.
//
// Fixture packages are real, type-checked Go: they may import the
// module's own packages (bismarck/internal/serve, ...) and the standard
// library, so a fixture can seed a historical bug against the genuine
// types it bit.
package analysistest

import (
	"fmt"
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"bismarck/internal/analysis/framework"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData() string {
	p, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return p
}

// want is one expectation: a compiled pattern at a file:line, matched at
// most once.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run applies the analyzer to each fixture package (testdata/src/<pkg>)
// and reports mismatches between its diagnostics and the fixtures' want
// comments.
func Run(t *testing.T, testdata string, a *framework.Analyzer, pkgs ...string) {
	t.Helper()
	moduleDir := findModuleRoot(t, testdata)
	for _, pkg := range pkgs {
		dir := filepath.Join(testdata, "src", pkg)
		loaded, err := framework.LoadDir(moduleDir, dir, pkg)
		if err != nil {
			t.Errorf("%s: loading fixture %s: %v", a.Name, pkg, err)
			continue
		}
		diags, err := framework.RunPackage(loaded, []*framework.Analyzer{a})
		if err != nil {
			t.Errorf("%s: %v", a.Name, err)
			continue
		}
		wants := collectWants(t, dir)
		for _, d := range diags {
			pos := loaded.Fset.Position(d.Pos)
			if w := findWant(wants, pos.Filename, pos.Line, d.Message); w != nil {
				w.matched = true
				continue
			}
			t.Errorf("%s: unexpected diagnostic at %s:%d: %s", a.Name, filepath.Base(pos.Filename), pos.Line, d.Message)
		}
		for _, w := range wants {
			if !w.matched {
				t.Errorf("%s: no diagnostic at %s:%d matching %q", a.Name, filepath.Base(w.file), w.line, w.raw)
			}
		}
	}
}

// findWant returns the first unmatched expectation at file:line whose
// pattern matches msg.
func findWant(wants []*want, file string, line int, msg string) *want {
	for _, w := range wants {
		if !w.matched && w.line == line && sameFile(w.file, file) && w.re.MatchString(msg) {
			return w
		}
	}
	return nil
}

func sameFile(a, b string) bool {
	return filepath.Base(a) == filepath.Base(b)
}

// collectWants scans every fixture file in dir for want comments using
// the Go scanner (so a "// want" inside a string literal is payload, not
// an expectation).
func collectWants(t *testing.T, dir string) []*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var wants []*want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		fset := token.NewFileSet()
		file := fset.AddFile(path, fset.Base(), len(src))
		var sc scanner.Scanner
		sc.Init(file, src, nil, scanner.ScanComments)
		for {
			pos, tok, lit := sc.Scan()
			if tok == token.EOF {
				break
			}
			if tok != token.COMMENT {
				continue
			}
			rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(lit, "//")), "want ")
			if !ok {
				continue
			}
			position := fset.Position(pos)
			for _, raw := range splitPatterns(t, path, position.Line, rest) {
				re, err := regexp.Compile(raw)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, position.Line, raw, err)
				}
				wants = append(wants, &want{file: path, line: position.Line, re: re, raw: raw})
			}
		}
	}
	return wants
}

// splitPatterns parses the body of a want comment: one or more Go string
// literals (backquoted or double-quoted).
func splitPatterns(t *testing.T, path string, line int, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		var lit string
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				t.Fatalf("%s:%d: unterminated want pattern", path, line)
			}
			lit = s[1 : 1+end]
			s = s[end+2:]
		case '"':
			// Re-quote through strconv to honor escapes.
			rest := s[1:]
			end := -1
			for i := 0; i < len(rest); i++ {
				if rest[i] == '\\' {
					i++
					continue
				}
				if rest[i] == '"' {
					end = i
					break
				}
			}
			if end < 0 {
				t.Fatalf("%s:%d: unterminated want pattern", path, line)
			}
			var err error
			lit, err = strconv.Unquote(s[:end+2])
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %s: %v", path, line, s[:end+2], err)
			}
			s = s[end+2:]
		default:
			t.Fatalf("%s:%d: want patterns must be quoted or backquoted strings, got %q", path, line, s)
		}
		out = append(out, lit)
		s = strings.TrimSpace(s)
	}
	if len(out) == 0 {
		t.Fatalf("%s:%d: empty want comment", path, line)
	}
	return out
}

// findModuleRoot walks up from dir to the enclosing go.mod.
func findModuleRoot(t *testing.T, dir string) string {
	t.Helper()
	d, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			t.Fatal(fmt.Sprintf("no go.mod above %s", dir))
		}
		d = parent
	}
}
