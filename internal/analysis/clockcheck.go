package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// bannedTime is the set of package-level time functions that read or
// schedule against the process wall clock. Each has an equivalent on
// the injected clock.Clock (Now/Sleep/After/AfterFunc/Ticker), and
// Since/Until are Now in disguise.
var bannedTime = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"Since":     true,
	"Until":     true,
}

// simExecuted are the directories whose code runs inside the
// deterministic simulator as well as in production. There a context
// deadline (context.WithTimeout/WithDeadline and their Cause variants)
// is a wall-clock timer too; the equivalent is context.WithCancel
// cancelled from clock.Clock.AfterFunc.
var simExecuted = []string{"internal/core", "internal/coord", "internal/backfill"}

// oneThread are the directories whose code the simulator hosts whole, on
// its single thread of control: core.Manager, the lock service under it
// and the backfill controller over it. There nothing may start a goroutine (goexit flags the go
// statement) or wait on the clock in a way only a goroutine can deliver:
// Clock.After and Clock.Ticker hand back channels, Clock.Sleep blocks
// the caller. The equivalent is Clock.AfterFunc arming a wake, and a
// park through coord.Coordinator.Park.
var oneThread = []string{"internal/core", "internal/locks", "internal/backfill"}

// blockingClock is the part of clock.Clock oneThread may not call.
var blockingClock = map[string]bool{"After": true, "Sleep": true, "Ticker": true}

// ClockCheck enforces the clock-injection rule the deterministic
// simulator depends on: outside internal/clock (which wraps the real
// clock), cmd/ (operator tools) and examples/, no code may consult
// package time for the current time or for scheduling. Components take
// a clock.Clock and default it with clock.Or; wall-clock-only drivers
// say so explicitly with clock.Wall. A single raw time.Now in a
// sim-reachable path makes replay traces diverge between runs — the
// exact bug class the MV_SEED machinery exists to prevent. In the
// packages the simulator executes (simExecuted) a context deadline is
// the same bypass in disguise — a propagation was once abandoned on the
// wall clock while its back-off ran on the injected one — and is
// flagged too; and in the packages it hosts on one thread (oneThread)
// so is a blocking call on the injected clock itself.
var ClockCheck = &Pass{
	Name: "clockcheck",
	Doc:  "raw time.Now/Sleep/After/... outside internal/clock, cmd/ and examples/; context.WithTimeout/WithDeadline in internal/core, internal/coord and internal/backfill; Clock.After/Sleep/Ticker in internal/core, internal/locks and internal/backfill",
	Run:  runClockCheck,
}

func runClockCheck(u *Unit) {
	if u.InDirs("internal/clock", "cmd", "examples") {
		return
	}
	ctxDeadlines, parksOnly := u.InDirs(simExecuted...), u.InDirs(oneThread...)
	for _, file := range u.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if name, ok := u.pkgFunc(file, sel, "context"); ok && ctxDeadlines &&
				(strings.HasPrefix(name, "WithTimeout") || strings.HasPrefix(name, "WithDeadline")) {
				u.Reportf(sel.Pos(), "context.%s arms a wall-clock timer the injected clock cannot see; use context.WithCancel cancelled from clock.Clock.AfterFunc so the deadline runs on the clock the simulator drives", name)
			}
			if m, ok := u.Pkg.Info.Uses[sel.Sel].(*types.Func); ok && parksOnly && blockingClock[m.Name()] &&
				m.Pkg() != nil && m.Pkg().Path() == u.ModPath+"/internal/clock" {
				u.Reportf(sel.Pos(), "Clock.%s blocks its caller on the clock, which cannot be hosted on one thread of control; arm a wake with Clock.AfterFunc and park through coord.Coordinator.Park", m.Name())
			}
			// Flagging the selector (not just calls) also catches
			// function values like `now = time.Now`.
			if name, ok := u.pkgFunc(file, sel, "time"); ok && bannedTime[name] {
				u.Reportf(sel.Pos(), "time.%s bypasses the injected clock; use clock.Clock (clock.Wall where wall time is intended) so simulated runs stay deterministic", name)
			}
			return true
		})
	}
}
