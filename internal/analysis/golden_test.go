package analysis

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// sharedLoader caches one Loader across tests: external imports and
// fixture packages load once.
var sharedLoader = sync.OnceValues(func() (*Loader, error) {
	return NewLoader(".")
})

// loadFixture loads testdata/src/<name>, optionally overriding the
// package's module-relative directory so path-scoped rules see the
// fixture where the test wants it to live.
func loadFixture(t *testing.T, name, relDir string) *Package {
	t.Helper()
	ldr, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := ldr.Load(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	if pkg == nil {
		t.Fatalf("fixture %s has no Go files", name)
	}
	if relDir != "" {
		pkg.RelDir = relDir
	}
	return pkg
}

// want is one expected diagnostic, parsed from a fixture comment of
// the form `// want "substring of the message"`.
type want struct {
	file string // base name
	line int
	sub  string
}

func parseWants(t *testing.T, fixture string) []want {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			marker := `// want "`
			i := strings.Index(text, marker)
			if i < 0 {
				continue
			}
			rest := text[i+len(marker):]
			j := strings.LastIndex(rest, `"`)
			if j < 0 {
				t.Fatalf("%s:%d: unterminated want comment", e.Name(), line)
			}
			wants = append(wants, want{file: e.Name(), line: line, sub: rest[:j]})
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return wants
}

// checkGolden runs one pass over a fixture and asserts its diagnostics
// match the fixture's want comments exactly (by file, line, and
// message substring).
func checkGolden(t *testing.T, pass *Pass, fixture, relDir string) {
	t.Helper()
	checkGoldenPasses(t, []*Pass{pass}, fixture, relDir)
}

// checkGoldenPasses is checkGolden over a pass combination, for passes
// (stalecheck) whose output depends on which other passes ran.
func checkGoldenPasses(t *testing.T, passes []*Pass, fixture, relDir string) {
	t.Helper()
	ldr, _ := sharedLoader()
	pkg := loadFixture(t, fixture, relDir)
	diags := Run([]*Package{pkg}, passes, ldr.ModPath)
	wants := parseWants(t, fixture)

	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if !matched[i] && filepath.Base(d.File) == w.file && d.Line == w.line && strings.Contains(d.Message, w.sub) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: expected diagnostic containing %q, got none", w.file, w.line, w.sub)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
	}
}

func TestClockCheckGolden(t *testing.T)  { checkGolden(t, ClockCheck, "clockbad", "") }
func TestSinkErrGolden(t *testing.T)     { checkGolden(t, SinkErr, "sinkbad", "internal/wal/sinkbad") }
func TestLockCheckGolden(t *testing.T)   { checkGolden(t, LockCheck, "lockbad", "") }
func TestAtomicCheckGolden(t *testing.T) { checkGolden(t, AtomicCheck, "atomicbad", "") }
func TestRandCheckGolden(t *testing.T)   { checkGolden(t, RandCheck, "randbad", "") }
func TestPhysCheckGolden(t *testing.T)   { checkGolden(t, PhysCheck, "physbad", "internal/storagex") }
func TestWalOrderGolden(t *testing.T)    { checkGolden(t, WalOrder, "walbad", "internal/lsm/walbad") }
func TestGoExitGolden(t *testing.T)      { checkGolden(t, GoExit, "goexitbad", "") }

// TestClockCheckContextGolden loads its fixture as a package of
// internal/core, where clockcheck also bans context deadlines.
func TestClockCheckContextGolden(t *testing.T) {
	checkGolden(t, ClockCheck, "ctxclockbad", "internal/core/ctxclockbad")
}

// TestOneThreadGolden loads its fixture as a package of internal/core,
// where goexit bans every go statement and clockcheck the blocking half
// of clock.Clock.
func TestOneThreadGolden(t *testing.T) {
	checkGoldenPasses(t, []*Pass{GoExit, ClockCheck}, "threadbad", "internal/core/threadbad")
}

// TestOneThreadBackfillGolden loads the same fixture as a package of
// internal/backfill, whose controller the simulator hosts too.
func TestOneThreadBackfillGolden(t *testing.T) {
	checkGoldenPasses(t, []*Pass{GoExit, ClockCheck}, "threadbad", "internal/backfill/threadbad")
}

// TestStaleCheckGolden runs clockcheck alongside stalecheck, so the
// fixture's used directive is distinguishable from its stale one.
func TestStaleCheckGolden(t *testing.T) {
	checkGoldenPasses(t, []*Pass{ClockCheck, StaleCheck}, "staledir", "")
}

// TestPhysCheckExemptDirs proves the violating fixture is silent in
// the sanctioned homes for os file I/O.
func TestPhysCheckExemptDirs(t *testing.T) {
	ldr, _ := sharedLoader()
	for _, relDir := range []string{"internal/physical/fs", "cmd/mvtool", "examples/demo"} {
		pkg := loadFixture(t, "physbad", relDir)
		if diags := Run([]*Package{pkg}, []*Pass{PhysCheck}, ldr.ModPath); len(diags) != 0 {
			t.Errorf("relDir %s: want 0 diagnostics, got %v", relDir, diags)
		}
	}
	loadFixture(t, "physbad", "internal/analysis/testdata/src/physbad")
}

// TestWalOrderOutOfScope proves walorder ignores packages outside the
// storage engine: the same violating fixture is silent elsewhere.
func TestWalOrderOutOfScope(t *testing.T) {
	ldr, _ := sharedLoader()
	pkg := loadFixture(t, "walbad", "internal/transport")
	if diags := Run([]*Package{pkg}, []*Pass{WalOrder}, ldr.ModPath); len(diags) != 0 {
		t.Errorf("want 0 diagnostics out of scope, got %v", diags)
	}
	loadFixture(t, "walbad", "internal/analysis/testdata/src/walbad")
}

// TestStaleCheckSkipsUnranPasses proves a directive for a pass that
// did NOT run is never judged stale: without the pass, there is no way
// to know whether it would have suppressed something.
func TestStaleCheckSkipsUnranPasses(t *testing.T) {
	ldr, _ := sharedLoader()
	pkg := loadFixture(t, "staledir", "")
	diags := Run([]*Package{pkg}, []*Pass{StaleCheck}, ldr.ModPath)
	for _, d := range diags {
		if strings.Contains(d.Message, "suppresses no diagnostic") {
			t.Errorf("clockcheck did not run, its directives must not be judged: %v", d)
		}
	}
}

// TestClockCheckExemptDirs proves the same violating fixture is silent
// when mounted under the exempt directories.
func TestClockCheckExemptDirs(t *testing.T) {
	ldr, _ := sharedLoader()
	for _, relDir := range []string{"cmd/mvtool", "examples/demo", "internal/clock"} {
		pkg := loadFixture(t, "clockbad", relDir)
		if diags := Run([]*Package{pkg}, []*Pass{ClockCheck}, ldr.ModPath); len(diags) != 0 {
			t.Errorf("relDir %s: want 0 diagnostics, got %v", relDir, diags)
		}
	}
	// Restore: other tests load the same cached fixture package.
	loadFixture(t, "clockbad", "internal/analysis/testdata/src/clockbad")
}

// TestSuppression proves //lint:ignore silences exactly one diagnostic
// in both the trailing and the preceding-line form: of the three
// time.Now calls in the fixture, exactly the unannotated one survives.
func TestSuppression(t *testing.T) {
	checkGolden(t, ClockCheck, "ignored", "")
	ldr, _ := sharedLoader()
	pkg := loadFixture(t, "ignored", "")
	diags := Run([]*Package{pkg}, []*Pass{ClockCheck}, ldr.ModPath)
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 unsuppressed diagnostic, got %d: %v", len(diags), diags)
	}
}

// TestMalformedDirective proves a reasonless //lint:ignore is itself
// reported and suppresses nothing.
func TestMalformedDirective(t *testing.T) {
	ldr, _ := sharedLoader()
	pkg := loadFixture(t, "malformed", "")
	diags := Run([]*Package{pkg}, []*Pass{ClockCheck}, ldr.ModPath)
	var gotDirective, gotClock bool
	for _, d := range diags {
		switch {
		case d.Pass == "directive" && strings.Contains(d.Message, "malformed"):
			gotDirective = true
		case d.Pass == "clockcheck":
			gotClock = true
		}
	}
	if !gotDirective || !gotClock || len(diags) != 2 {
		t.Fatalf("want the malformed-directive diagnostic plus the unsuppressed clockcheck one, got %v", diags)
	}
}

// TestModuleClean is `make lint` in test form: the whole module must
// analyze with zero unsuppressed diagnostics, so a change that breaks
// an invariant fails go test even before the CI lint job runs.
func TestModuleClean(t *testing.T) {
	ldr, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := ldr.LoadAll()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	var typeErrs int
	for _, pkg := range pkgs {
		typeErrs += len(pkg.TypeErrs)
	}
	if typeErrs > 0 {
		// Degraded type information must not fail the suite with
		// false positives; the CI lint job still runs mvlint -v.
		t.Logf("note: %d type-check errors across the module; analysis is degraded", typeErrs)
	}
	diags := Run(pkgs, All(), ldr.ModPath)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(pkgs) < 20 {
		t.Errorf("suspiciously few packages analyzed: %d", len(pkgs))
	}
}

// TestDiagnosticString pins the CLI's one-line format.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Pass: "clockcheck", File: "a/b.go", Line: 3, Col: 7, Message: "msg"}
	if got, wantStr := d.String(), "a/b.go:3:7: msg (clockcheck)"; got != wantStr {
		t.Fatalf("got %q want %q", got, wantStr)
	}
}

// TestByName covers the pass-subset flag parsing.
func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != 9 {
		t.Fatalf("ByName(\"\") = %v, %v; want the 9 passes", all, err)
	}
	two, err := ByName("clockcheck, sinkerr")
	if err != nil || len(two) != 2 || two[0] != ClockCheck || two[1] != SinkErr {
		t.Fatalf("ByName subset = %v, %v", two, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(nope): want error")
	}
	names := map[string]bool{}
	for _, p := range All() {
		if p.Name == "" || p.Doc == "" || p.Run == nil {
			t.Fatalf("pass %+v incomplete", p)
		}
		if names[p.Name] {
			t.Fatalf("duplicate pass name %s", p.Name)
		}
		names[p.Name] = true
	}
}

func ExampleDiagnostic() {
	fmt.Println(Diagnostic{Pass: "sinkerr", File: "wal.go", Line: 1, Col: 1, Message: "error discarded"})
	// Output: wal.go:1:1: error discarded (sinkerr)
}
