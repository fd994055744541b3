package sim

// The simulated client: the workload generator and the client side of
// Algorithm 1 over the node's real core.Manager.

import (
	"context"
	"fmt"
	"time"

	"vstore/internal/core"
	"vstore/internal/model"
	"vstore/internal/transport"
)

func (w *world) runClient(id int) {
	cfg := w.cfg
	if cfg.hotRows > 0 {
		// A back-to-back writer, the k-th of its row: fresh keys, rising
		// timestamps, and a coordinator none of the row's other writers use.
		row, k, writers := id%cfg.hotRows, id/cfg.hotRows, cfg.Clients/cfg.hotRows
		bk, coordID := fmt.Sprintf("r%d", row), transport.NodeID((row+k)%cfg.Nodes)
		for op := 0; op < cfg.OpsPerClient; op++ {
			ts := int64(op*writers + k + 1)
			w.put(coordID, bk, model.Update(vkCol, []byte(fmt.Sprintf("h%d-%d", id, op)), ts))
		}
		return
	}
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
		w.put(coordID, bk, u)
	}
}

// put is one client write: Manager.Put — the combined Get-then-Put, the
// intent logged before the ack, the asynchronous propagations — re-issued
// with the same cell until acknowledged, so the final base state is
// exactly the acknowledged updates. An attempt fails without a quorum,
// when the intent could not be logged (injected storage fault) or when
// its coordinator was crash-restarted under it; the client then talks to
// whichever incarnation of the node is up.
func (w *world) put(coordID transport.NodeID, bk string, u model.ColumnUpdate) {
	w.pendingOps[bk]++
	acct := w.s.openAccount(classUnacked)
	w.s.chargeTo(acct)
	cellKey := string(model.EncodeKey(bk, u.Column))
	w.issued[cellKey] = append(w.issued[cellKey], u.Cell)
	what := fmt.Sprintf("base=%s col=%s ts=%d", bk, u.Column, u.Cell.TS)
	updates := []model.ColumnUpdate{u}
	backoff := 2 * time.Millisecond
	for attempt := 0; ; attempt++ {
		if attempt > 5000 {
			w.s.Fail(fmt.Errorf("client write to %s (col %s, ts %d) still unacked after %d attempts", bk, u.Column, u.Cell.TS, attempt))
			break
		}
		if err := w.mgrs[coordID].Put(context.Background(), baseTable, bk, updates, w.cfg.N/2+1, nil); err != nil {
			w.s.Record("put-fail", fmt.Sprintf("%s attempt=%d: %v", what, attempt, err))
			w.s.Backoff(&backoff, 20*time.Millisecond)
			continue
		}
		w.report.Acked++
		// A write quorum of the row's replicas must hold the write or a
		// newer cell now, before anti-entropy could hide a replica that
		// acked without applying; a hint at the coordinator does not count.
		acked := core.BaseUpdate{BaseKey: bk, Column: u.Column, Cell: u.Cell}
		if _, held := w.holding(acked); len(held) < w.cfg.N/2+1 {
			w.s.Fail(fmt.Errorf("acknowledged write %v to %s.%s held at ack time only by %v, fewer than a write quorum", u.Cell, bk, u.Column, held))
		}
		acct.class = w.classify(bk, u)
		w.acked = append(w.acked, acked)
		w.s.Record("put-ack", fmt.Sprintf("%s attempt=%d", what, attempt))
		break
	}
	w.pendingOps[bk]--
}
