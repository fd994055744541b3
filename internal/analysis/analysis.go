// Package analysis is a small stdlib-only static-analysis framework
// plus the passes that enforce this repository's cross-cutting
// invariants — the rules the compiler cannot check but that the
// deterministic simulator, the WAL, and the propagation protocol all
// depend on:
//
//   - clockcheck: no raw time.Now/Sleep/After/... outside
//     internal/clock, cmd/ and examples/ — components must use the
//     injected clock.Clock (or the explicit clock.Wall), or simulated
//     runs silently stop being deterministic.
//   - sinkerr: no discarded error from durability-critical calls —
//     (*os.File).Sync/Close inside internal/wal and internal/sstable,
//     and any error-returning function of those packages from anywhere
//     in the module. A dropped fsync error is a corrupted recovery.
//   - lockcheck: mutexes copied by value, Lock without a reachable
//     Unlock, and the repo-specific rule that no propagation lock (a
//     row granted by core.Port.Serialize) is held across a direct
//     internal/transport call.
//   - atomiccheck: struct fields accessed both through sync/atomic
//     and with plain loads/stores.
//   - randcheck: no global math/rand state outside cmd/ — simulation
//     code must draw from its seeded source.
//
// Three passes are dataflow-aware, built on the intraprocedural CFG,
// dominance and must-reach machinery of internal/analysis/flow
// (DESIGN.md §14):
//
//   - physcheck: no direct os.*/io/ioutil file I/O outside the
//     internal/physical/fs backend, cmd/, examples/ and the analysis
//     tooling itself — every durable byte flows through
//     physical.Backend.
//   - walorder: in internal/lsm, internal/wal and durable.go, a
//     memtable apply on a durable path must be dominated by a WAL
//     append (log-before-apply, DESIGN.md §9), with a one-hop
//     interprocedural summary for same-package helpers.
//   - goexit: a `go func` whose closure signals no lifecycle — no
//     context, no channel rendezvous, no WaitGroup — is an unmanaged
//     goroutine that Close cannot drain.
//
// stalecheck closes the loop on sanctions: a //lint:ignore directive
// that no longer suppresses any diagnostic is itself reported, so the
// ignore inventory shrinks as violations are fixed.
//
// The framework deliberately reimplements a sliver of
// golang.org/x/tools/go/analysis (the module stays dependency-free):
// a Pass has a name and a Run function over one type-checked package
// (a Unit), the runner collects position-sorted diagnostics, and
// `//lint:ignore <pass> <reason>` on or directly above an offending
// line suppresses its diagnostics.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// A Diagnostic is one finding: a pass name, a position, and a message.
type Diagnostic struct {
	Pass    string `json:"pass"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// String renders the go-vet-style one-line form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Pass)
}

// A Pass is one invariant checker run independently over every
// package.
type Pass struct {
	// Name identifies the pass in diagnostics and in //lint:ignore
	// directives.
	Name string
	// Doc is a one-line description for `mvlint -list`.
	Doc string
	// Run inspects u's package and reports findings via u.Reportf.
	Run func(u *Unit)
}

// All returns every registered pass, in reporting order.
func All() []*Pass {
	return []*Pass{ClockCheck, SinkErr, LockCheck, AtomicCheck, RandCheck,
		PhysCheck, WalOrder, GoExit, StaleCheck}
}

// Names returns the registered pass names, in reporting order.
func Names() []string {
	var names []string
	for _, p := range All() {
		names = append(names, p.Name)
	}
	return names
}

// ByName resolves a comma-separated pass list ("" means all).
func ByName(names string) ([]*Pass, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Pass{}
	for _, p := range All() {
		byName[p.Name] = p
	}
	var out []*Pass
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		p, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown pass %q (valid passes: %s)", n, strings.Join(Names(), ", "))
		}
		out = append(out, p)
	}
	return out, nil
}

// A Unit is the view of one package handed to a pass.
type Unit struct {
	Pass *Pass
	Pkg  *Package
	// ModPath is the module path, for resolving module-internal
	// package paths like <mod>/internal/transport.
	ModPath string
	// RelDir is the package directory relative to the module root. It
	// usually mirrors Pkg.RelDir but tests override it to place a
	// fixture package in an arbitrary spot of the path-scoped rules.
	RelDir string

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos. File paths are reported
// relative to the module root.
func (u *Unit) Reportf(pos token.Pos, format string, args ...any) {
	p := u.Pkg.Fset.Position(pos)
	u.report(Diagnostic{
		Pass:    u.Pass.Name,
		File:    u.Pkg.relFile(p.Filename),
		Line:    p.Line,
		Col:     p.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// InDirs reports whether the unit's package lives in (or under) any of
// the given module-relative directories.
func (u *Unit) InDirs(dirs ...string) bool {
	for _, d := range dirs {
		if u.RelDir == d || strings.HasPrefix(u.RelDir, d+"/") {
			return true
		}
	}
	return false
}

// pkgFunc reports the selected name when expr is a selector on an
// identifier denoting an import of pkgPath (e.g. time.Now for "time").
// It prefers type information and falls back to the file's import
// table when the checker could not resolve the identifier.
func (u *Unit) pkgFunc(file *ast.File, expr ast.Expr, pkgPath string) (string, bool) {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	if obj, ok := u.Pkg.Info.Uses[id]; ok {
		pn, ok := obj.(*types.PkgName)
		if !ok || pn.Imported().Path() != pkgPath {
			return "", false
		}
		return sel.Sel.Name, true
	}
	// Syntactic fallback: the identifier matches how pkgPath is
	// imported in this file, and no local definition shadows package
	// names in practice for the stdlib packages we care about.
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if path != pkgPath {
			continue
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == id.Name {
			return sel.Sel.Name, true
		}
	}
	return "", false
}

// calleeFunc resolves the *types.Func a call invokes (static calls and
// method calls; nil for calls of function-typed values).
func (u *Unit) calleeFunc(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		obj = u.Pkg.Info.Uses[fun.Sel]
	case *ast.Ident:
		obj = u.Pkg.Info.Uses[fun]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// Run executes the passes over the packages, applies //lint:ignore
// suppression, and returns the surviving diagnostics sorted by
// position. Packages are analyzed in parallel over the shared loaded
// program: every pass is a pure reader of the type-checked packages,
// so the only synchronization needed is merging the per-package
// diagnostic slices.
func Run(pkgs []*Package, passes []*Pass, modPath string) []Diagnostic {
	wantStale := false
	for _, p := range passes {
		if p == StaleCheck {
			wantStale = true
		}
	}

	perPkg := make([][]Diagnostic, len(pkgs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, pkg *Package) {
			defer wg.Done()
			defer func() { <-sem }()
			perPkg[i] = runPackage(pkg, passes, modPath, wantStale)
		}(i, pkg)
	}
	wg.Wait()

	var diags []Diagnostic
	for _, pd := range perPkg {
		diags = append(diags, pd...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Pass < b.Pass
	})
	return diags
}

// runPackage analyzes one package with every pass, applies directive
// suppression, and — when the stalecheck pass is among those run —
// reports directives that no longer suppress anything.
func runPackage(pkg *Package, passes []*Pass, modPath string, wantStale bool) []Diagnostic {
	sup := collectDirectives(pkg)
	var pkgDiags []Diagnostic
	for _, pass := range passes {
		u := &Unit{
			Pass:    pass,
			Pkg:     pkg,
			ModPath: modPath,
			RelDir:  pkg.RelDir,
			report:  func(d Diagnostic) { pkgDiags = append(pkgDiags, d) },
		}
		pass.Run(u)
	}
	var out []Diagnostic
	for _, d := range pkgDiags {
		if !sup.suppresses(d) {
			out = append(out, d)
		}
	}
	// Malformed directives are findings in their own right: an
	// ignore without a reason documents nothing.
	out = append(out, sup.malformed...)
	if wantStale {
		out = append(out, staleDirectives(sup, passes)...)
	}
	return out
}

// relFile maps an absolute file name inside the package directory to
// its module-relative form used in diagnostics and suppression keys.
func (p *Package) relFile(file string) string {
	if base, ok := strings.CutPrefix(file, p.Dir+string(filepath.Separator)); ok {
		return path.Join(p.RelDir, base)
	}
	return file
}

// directivePrefix introduces a suppression comment:
// //lint:ignore <pass> <reason>. A trailing directive silences
// diagnostics of that pass on its own line; a standalone one silences
// the line directly below.
const directivePrefix = "lint:ignore"

// A directive is one parsed //lint:ignore comment: the pass it names,
// the line it suppresses, where the comment itself sits, and whether
// it actually suppressed anything this run (stalecheck's input).
type directive struct {
	pass string
	file string
	line int // suppressed line
	// pos is the comment's own location, where staleness is reported.
	posLine, posCol int
	used            bool
}

type suppressions struct {
	// byFile maps file → suppressed line → pass → directive.
	byFile    map[string]map[int]map[string]*directive
	all       []*directive
	malformed []Diagnostic
}

func collectDirectives(pkg *Package) *suppressions {
	s := &suppressions{byFile: map[string]map[int]map[string]*directive{}}
	for _, f := range pkg.Files {
		// codeCols records the leftmost non-comment token column per
		// line, to tell a trailing directive (code before it on the
		// line: suppresses that line) from a standalone one (alone on
		// its line: suppresses the line below).
		codeCols := map[int]int{}
		mark := func(pos token.Pos) {
			p := pkg.Fset.Position(pos)
			if c, ok := codeCols[p.Line]; !ok || p.Column < c {
				codeCols[p.Line] = p.Column
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case nil, *ast.CommentGroup, *ast.Comment:
				return false
			}
			mark(n.Pos())
			if e := n.End(); e.IsValid() && e > n.Pos() {
				mark(e - 1)
			}
			return true
		})
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, directivePrefix))
				pos := pkg.Fset.Position(c.Pos())
				file := pkg.relFile(pos.Filename)
				if len(fields) < 2 {
					s.malformed = append(s.malformed, Diagnostic{
						Pass: "directive", File: file, Line: pos.Line, Col: pos.Column,
						Message: "malformed //lint:ignore directive: want `//lint:ignore <pass> <reason>`",
					})
					continue
				}
				lines := s.byFile[file]
				if lines == nil {
					lines = map[int]map[string]*directive{}
					s.byFile[file] = lines
				}
				// Trailing form (code earlier on the directive's line)
				// suppresses that line; standalone form suppresses only
				// the line below.
				line := pos.Line + 1
				if c, ok := codeCols[pos.Line]; ok && c < pos.Column {
					line = pos.Line
				}
				if lines[line] == nil {
					lines[line] = map[string]*directive{}
				}
				dir := &directive{
					pass: fields[0], file: file, line: line,
					posLine: pos.Line, posCol: pos.Column,
				}
				lines[line][dir.pass] = dir
				s.all = append(s.all, dir)
			}
		}
	}
	return s
}

func (s *suppressions) suppresses(d Diagnostic) bool {
	dir := s.byFile[d.File][d.Line][d.Pass]
	if dir == nil {
		return false
	}
	dir.used = true
	return true
}

// staleDirectives reports the //lint:ignore comments that suppressed
// nothing, so sanctions clean themselves up when the violation they
// covered is fixed. A directive is only judged when the pass it names
// actually ran (otherwise there was nothing to suppress by
// construction), and a directive naming a pass that does not exist is
// always stale.
func staleDirectives(sup *suppressions, passes []*Pass) []Diagnostic {
	ran := map[string]bool{}
	for _, p := range passes {
		ran[p.Name] = true
	}
	known := map[string]bool{}
	for _, p := range All() {
		known[p.Name] = true
	}
	var out []Diagnostic
	for _, dir := range sup.all {
		switch {
		case !known[dir.pass]:
			out = append(out, Diagnostic{
				Pass: StaleCheck.Name, File: dir.file, Line: dir.posLine, Col: dir.posCol,
				Message: fmt.Sprintf("//lint:ignore names unknown pass %q; it can never suppress anything — fix or delete it", dir.pass),
			})
		case ran[dir.pass] && !dir.used:
			out = append(out, Diagnostic{
				Pass: StaleCheck.Name, File: dir.file, Line: dir.posLine, Col: dir.posCol,
				Message: fmt.Sprintf("//lint:ignore %s suppresses no diagnostic; the violation it sanctioned is gone — delete the stale directive", dir.pass),
			})
		}
	}
	return out
}
