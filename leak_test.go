package vstore_test

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// noGoroutineOutlivesClose fails the test if a goroutine with a frame in
// this module, started while the test ran, is still alive once the
// test's cleanups have run. Call it before opening the DB: cleanups run
// last-registered first, so the check comes after the DB's Close.
func noGoroutineOutlivesClose(t *testing.T) {
	t.Helper()
	before := storeGoroutines()
	t.Cleanup(func() {
		var leaked []string
		// A goroutine that Close has ended may still be on its way out.
		for limit := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			leaked = leaked[:0]
			for id, stack := range storeGoroutines() {
				if _, old := before[id]; !old {
					leaked = append(leaked, stack)
				}
			}
			if len(leaked) == 0 || time.Now().After(limit) {
				break
			}
		}
		if len(leaked) > 0 {
			t.Errorf("%d goroutines outlived DB.Close:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
		}
	})
}

// storeGoroutines returns the stacks of the goroutines other than the
// caller that run a function of this module, by goroutine ID.
func storeGoroutines() map[string]string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[string]string{}
	for i, g := range strings.Split(string(buf), "\n\n") {
		if i == 0 || !(strings.Contains(g, "\nvstore/") || strings.Contains(g, "\nvstore.")) {
			continue // the caller, or no frame of this module
		}
		out[strings.Fields(g)[1]] = g
	}
	return out
}
