package sim

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"vstore/internal/coord"
	"vstore/internal/core"
	"vstore/internal/model"
	"vstore/internal/node"
	"vstore/internal/ring"
	"vstore/internal/transport"
)

// Every wait on pending propagations runs on the scheduler's one thread
// of control: a session read after the session's own Put, a
// bounded-staleness wait that is met and one that runs out, and Quiesce
// each park on the registry's ledger through the coordinator and are
// woken, in virtual time, by the propagation they wait for or by their
// deadline. (The session read used to select on channels, which panics
// or hangs here.)
func TestSimLedgerWaits(t *testing.T) {
	cfg := Config{Seed: 1, DropProb: -1}.withDefaults()
	s := NewScheduler(cfg.Seed, 1)
	fab := NewFabric(s, cfg)
	ids := []transport.NodeID{0, 1, 2, 3}
	rg := ring.New(ids, 16)
	delay := time.Duration(0) // of the next propagation to start
	reg := core.NewRegistry(core.Options{Clock: simClock{s}, PropagationDelay: func() time.Duration { return delay }})
	if err := reg.Define(core.Def{Name: viewTable, Base: baseTable, ViewKeyColumn: vkCol, Materialized: []string{matCol}}); err != nil {
		t.Fatal(err)
	}
	var m *core.Manager
	for _, id := range ids {
		n := node.New(node.Options{ID: id})
		fab.Register(id, n)
		co := coord.New(id, rg, fab, coord.Options{N: cfg.N, HintReplayInterval: -1})
		n.SetPlacement(co.ReplicasFor)
		if mgr := core.NewManager(reg, co); id == 0 {
			m = mgr
		}
	}
	put := func(sess *core.Session, row, key string, d time.Duration) {
		delay = d // sampled once the propagation starts, after this process parks
		if err := m.Put(context.Background(), baseTable, row, []model.ColumnUpdate{model.Update(vkCol, []byte(key), int64(s.Now()+1))}, 2, sess); err != nil {
			s.Fail(fmt.Errorf("put %s=%s: %w", row, key, err))
		}
	}
	timed := func(what string, wait func() error) time.Duration {
		start := s.Now()
		if err := wait(); err != nil {
			s.Fail(fmt.Errorf("%s: %w", what, err))
		}
		return s.Now() - start
	}
	var session, met, ranOut, quiesce time.Duration
	var rows []core.ViewRow
	s.Go(0, "ledger-waits", func() {
		ctx := context.Background()
		sess := m.Session()
		put(sess, "r1", "k1", 20*time.Millisecond)
		session = timed("session read", func() error { return sess.WaitView(ctx, viewTable) })
		var err error
		if rows, err = m.GetView(ctx, viewTable, "k1", nil); err != nil {
			s.Fail(err)
		}

		// The old propagation is older than the bound, the young one is
		// not: the wait is met once the old one ends, well before its
		// deadline.
		put(nil, "r2", "k2", 70*time.Millisecond)
		s.Sleep(70 * time.Millisecond)
		put(nil, "r3", "k3", 300*time.Millisecond)
		met = timed("staleness wait", func() error {
			if !m.AwaitStaleness(ctx, viewTable, 50*time.Millisecond) {
				return errors.New("bound not met")
			}
			return nil
		})
		// Only the young one is left, now older than a 20ms bound: the
		// wait runs out at its deadline.
		s.Sleep(100 * time.Millisecond)
		ranOut = timed("staleness wait", func() error {
			if m.AwaitStaleness(ctx, viewTable, 20*time.Millisecond) {
				return errors.New("bound met with a propagation pending past it")
			}
			return nil
		})
		quiesce = timed("Quiesce", func() error { return m.Quiesce(ctx) })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	t.Logf("waits: session read %v, staleness met %v, ran out %v, Quiesce %v", session, met, ranOut, quiesce)
	if session < 20*time.Millisecond || len(rows) != 1 || rows[0].BaseKey != "r1" {
		t.Fatalf("session read waited %v and then read %v; want the propagation's 20ms delay waited out and r1 under k1", session, rows)
	}
	if met <= 0 || met >= 50*time.Millisecond {
		t.Fatalf("the met staleness wait took %v, want it parked until the old propagation ended, inside its 50ms budget", met)
	}
	if ranOut != 20*time.Millisecond {
		t.Fatalf("the staleness wait that ran out took %v, want its 20ms deadline", ranOut)
	}
	if quiesce <= 0 || m.PendingPropagations() != 0 || reg.Pending() != 0 {
		t.Fatalf("Quiesce waited %v and left %d propagations pending", quiesce, reg.Pending())
	}
}
