package sim

// The simulated client-put path: the workload generator and the client
// side of Algorithm 1. This is the one place the simulator mints dots —
// the twin of the root package's client.go, and like it the only file
// dotcheck lets stamp a cell.

import (
	"fmt"
	"time"

	"vstore/internal/core"
	"vstore/internal/dvv"
	"vstore/internal/model"
	"vstore/internal/transport"
	"vstore/internal/wal"
)

func (w *world) runClient(p *Proc, id int) {
	cfg := w.cfg
	rnd := w.s.Rand()
	meanGap := int64(cfg.Duration) / int64(cfg.OpsPerClient)
	for op := 0; op < cfg.OpsPerClient; op++ {
		p.Sleep(time.Duration(rnd.Int63n(meanGap) + 1))
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
		w.putWithRetry(p, coordID, bk, u)
	}
}

// putWithRetry is the client side of Algorithm 1: a quorum base-table
// write carrying a pre-read of the view-key column, retried with the
// same cell until acknowledged (so the final base state is exactly the
// set of acknowledged updates), then an asynchronous propagation.
func (w *world) putWithRetry(p *Proc, coordID transport.NodeID, bk string, u model.ColumnUpdate) {
	w.pendingOps[bk]++
	// Stamp the write once, before the retry loop: retries resend the
	// same causal event, so a replica applying the second attempt over
	// the first sees its own dot already in the context and counts no
	// phantom sibling. The context is the coordinator's self entry —
	// per-coordinator sequence numbers are contiguous, so a later dot
	// from the same coordinator subsumes all its earlier ones.
	w.dotSeqs[coordID]++
	u.Cell.Dot = dvv.Dot{Node: uint32(coordID), Seq: w.dotSeqs[coordID]}
	u.Cell.Ctx = dvv.VV{uint32(coordID): w.dotSeqs[coordID]}
	vers := &versionSet{}
	req := transport.PutReq{Table: baseTable, Row: bk, Updates: []model.ColumnUpdate{u}, ReturnVersionsOf: []string{vkCol}}
	replicas := w.replicas(baseTable, bk)
	quorum := len(replicas)/2 + 1
	backoff := 2 * time.Millisecond
	for attempt := 0; ; attempt++ {
		if attempt > 5000 {
			w.s.Fail(fmt.Errorf("client write to %s (col %s, ts %d) still unacked after %d attempts", bk, u.Column, u.Cell.TS, attempt))
			w.pendingOps[bk]--
			return
		}
		if acks := w.broadcastPut(p, coordID, replicas, req, vers); acks < quorum {
			p.Backoff(&backoff, 20*time.Millisecond)
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
		var epoch int
		intentLogged := false
		if w.durable {
			st := w.storages[coordID]
			epoch = w.epochs[coordID]
			intentID = st.NextIntentID()
			if err := st.LogIntentStart(wal.Intent{ID: intentID, Table: baseTable, Row: bk, Updates: []model.ColumnUpdate{u}}); err != nil {
				w.s.Record("intent-log-fail", fmt.Sprintf("base=%s col=%s ts=%d: %v", bk, u.Column, u.Cell.TS, err))
				p.Backoff(&backoff, 20*time.Millisecond)
				continue
			}
			intentLogged = true
		}
		w.report.Acked++
		w.acked = append(w.acked, core.BaseUpdate{BaseKey: bk, Column: u.Column, Cell: u.Cell})
		w.pendingOps[bk]--
		w.s.Record("put-ack", fmt.Sprintf("base=%s col=%s ts=%d attempt=%d", bk, u.Column, u.Cell.TS, attempt))
		var delay time.Duration
		if w.cfg.MaxPropDelay > 0 {
			delay = time.Duration(w.s.Rand().Int63n(int64(w.cfg.MaxPropDelay)))
		}
		w.startPropagations(delay, "propagate", coordID, bk, u, vers, epoch, func() {
			if intentLogged {
				_ = w.storages[coordID].LogIntentDone(intentID) // stays pending; next restart retries
			}
		})
		return
	}
}
