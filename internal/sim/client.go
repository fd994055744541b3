package sim

// The simulated client-put path: the workload generator and the client
// side of Algorithm 1. This is the one place the simulator has a
// coordinator stamp a dot — the twin of the root package's client.go,
// and like it the only file dotcheck lets call StampDot.

import (
	"context"
	"fmt"
	"time"

	"vstore/internal/coord"
	"vstore/internal/core"
	"vstore/internal/model"
	"vstore/internal/transport"
	"vstore/internal/wal"
)

func (w *world) runClient(id int) {
	cfg := w.cfg
	rnd := w.s.Rand()
	meanGap := int64(cfg.Duration) / int64(cfg.OpsPerClient)
	for op := 0; op < cfg.OpsPerClient; op++ {
		w.s.Sleep(time.Duration(rnd.Int63n(meanGap) + 1))
		row := rnd.Intn(cfg.BaseRows)
		if cfg.SkewedWrites && rnd.Intn(10) < 7 && cfg.BaseRows > 2 {
			row = rnd.Intn(2) // hot keys r0/r1
		}
		bk := fmt.Sprintf("r%d", row)
		coordID := transport.NodeID(rnd.Intn(cfg.Nodes))
		// Dense timestamps force LWW collisions and tie-breaking.
		ts := int64(rnd.Intn(cfg.Clients*cfg.OpsPerClient)) + 1
		var u model.ColumnUpdate
		switch r := rnd.Intn(10); {
		case r < 5:
			u = model.Update(vkCol, []byte(fmt.Sprintf("k%d", rnd.Intn(cfg.ViewKeys))), ts)
		case r < 6:
			u = model.Deletion(vkCol, ts)
		default:
			u = model.Update(matCol, []byte(fmt.Sprintf("v%d-%d", id, op)), ts)
		}
		w.putWithRetry(coordID, bk, u)
	}
}

// putWithRetry is the client side of Algorithm 1: the coordinator's
// combined Get-then-Put (coord.PutWithPreRead, what Manager.Put sends),
// retried with the same cell until acknowledged (so the final base state
// is exactly the acknowledged updates), then an asynchronous propagation.
func (w *world) putWithRetry(coordID transport.NodeID, bk string, u model.ColumnUpdate) {
	w.pendingOps[bk]++
	// Stamped once, before the retry loop, where production stamps it:
	// retries resend the same causal event, so a replica applying the
	// second attempt over the first sees its own dot already in the
	// context and counts no phantom sibling.
	u.Cell.Dot, u.Cell.Ctx = w.coords[coordID].StampDot(baseTable, bk)
	w.dotSeqs[coordID] = u.Cell.Dot.Seq
	updates := []model.ColumnUpdate{u}
	var vers *coord.VersionCollector
	backoff := 2 * time.Millisecond
	for attempt := 0; ; attempt++ {
		if attempt > 5000 {
			w.s.Fail(fmt.Errorf("client write to %s (col %s, ts %d) still unacked after %d attempts", bk, u.Column, u.Cell.TS, attempt))
			w.pendingOps[bk]--
			return
		}
		// The client talks to whichever incarnation of its coordinator is
		// up. A failed attempt's pre-images stay in the pool: it may have
		// landed where replies were lost, and the retry pre-reads itself.
		co, epoch := w.coords[coordID], w.epochs[coordID]
		cs, err := co.PutWithPreRead(context.Background(), baseTable, bk, updates, w.majority(), []string{vkCol})
		vers = carry(cs[vkCol], vers)
		if err != nil || w.epochs[coordID] != epoch { // no quorum, or the coordinator died under the request
			w.s.Backoff(&backoff, 20*time.Millisecond)
			continue
		}
		// Durable mode, the Algorithm-1 ordering the WAL enforces:
		// the propagation intent is logged at the coordinator after
		// the quorum write succeeds and before the client sees the
		// ack, so a coordinator crash from here on leaves a
		// replayable record, never a silently stale view. A failed
		// intent append (injected ENOSPC, a crashed coordinator log)
		// therefore means the write is NOT acknowledged: the client
		// retries the whole operation — the resend carries the same
		// dot, so replicas treat it as the same causal event — and a
		// fresh intent id is allocated on the next attempt.
		var intentID uint64
		if w.durable {
			st := w.storages[coordID]
			intentID = st.NextIntentID()
			if err := st.LogIntentStart(wal.Intent{ID: intentID, Table: baseTable, Row: bk, Updates: updates}); err != nil {
				w.s.Record("intent-log-fail", fmt.Sprintf("base=%s col=%s ts=%d: %v", bk, u.Column, u.Cell.TS, err))
				w.s.Backoff(&backoff, 20*time.Millisecond)
				continue
			}
		}
		w.report.Acked++
		w.acked = append(w.acked, core.BaseUpdate{BaseKey: bk, Column: u.Column, Cell: u.Cell})
		w.pendingOps[bk]--
		w.s.Record("put-ack", fmt.Sprintf("base=%s col=%s ts=%d attempt=%d", bk, u.Column, u.Cell.TS, attempt))
		var delay time.Duration
		if w.cfg.MaxPropDelay > 0 {
			delay = time.Duration(w.s.Rand().Int63n(int64(w.cfg.MaxPropDelay)))
		}
		w.startPropagations(delay, "propagate", co, bk, u, vers, epoch, func() {
			if w.durable {
				_ = w.storages[coordID].LogIntentDone(intentID) // stays pending; next restart retries
			}
		})
		return
	}
}
