//go:build race

// Package race reports whether the race detector is compiled in. Its
// instrumentation allocates, so tests that pin allocation counts skip
// themselves under it; the plain `go test ./...` job enforces them.
package race

// Enabled is true when the build has -race.
const Enabled = true
