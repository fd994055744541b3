// Package locks is a keyed table of the row grant core's ledger gives
// propagation rounds (wait.Turns). Nothing in the store uses it: the
// benchmark's micro rungs time an exclusive grant through it, and it
// goes when they do.
package locks

import (
	"sync"

	"vstore/internal/wait"
)

// Manager is one table of row grants keyed by string. A key's grant
// stays once made.
type Manager struct {
	mu   sync.Mutex
	rows map[string]*wait.Turns
}

// NewManager returns an empty table.
func NewManager() *Manager { return &Manager{rows: map[string]*wait.Turns{}} }

// Lock takes key exclusively, blocking the calling goroutine, and
// returns its release function.
func (m *Manager) Lock(key string) (release func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.rows[key]
	if t == nil {
		t = &wait.Turns{}
		m.rows[key] = t
	}
	return t.Take(&m.mu, true, wait.OnChannel)
}
