// Package walbad exercises walorder: every memtable apply on a
// durable path must be dominated by a WAL append in the CFG. The
// golden test mounts it at internal/lsm/walbad so the pass is in
// scope.
package walbad

import (
	"vstore/internal/lsm"
	"vstore/internal/memtable"
	"vstore/internal/model"
	"vstore/internal/wal"
)

// applyOnly never appends: a crash loses the write.
func applyOnly(mem *memtable.Memtable, c model.Cell) {
	mem.Apply([]byte("k"), c) // want "not dominated by a WAL append"
}

// logThenApply is the invariant in its straight-line form.
func logThenApply(log *wal.Log, mem *memtable.Memtable, c model.Cell) error {
	if err := log.Append([]byte("rec")); err != nil {
		return err
	}
	mem.Apply([]byte("k"), c)
	return nil
}

// applyThenLog is the ordering bug: the append comes after.
func applyThenLog(log *wal.Log, mem *memtable.Memtable, c model.Cell) error {
	mem.Apply([]byte("k"), c) // want "not dominated by a WAL append"
	return log.Append([]byte("rec"))
}

// onePath appends on only one branch; the merge point is not
// dominated.
func onePath(log *wal.Log, mem *memtable.Memtable, c model.Cell, fast bool) {
	if !fast {
		_ = log.Append([]byte("rec"))
	}
	mem.Apply([]byte("k"), c) // want "not dominated by a WAL append"
}

// guarded is the durability-guard idiom: the nil check generates the
// append fact on both paths, because the skipping path is memory-only
// mode with no log to order against.
func guarded(log *wal.Log, mem *memtable.Memtable, c model.Cell) {
	if log != nil {
		_ = log.Append([]byte("rec"))
	}
	mem.Apply([]byte("k"), c)
}

// logHelper appends through a helper; the one-hop summary classifies
// its callers' calls as appends.
func logHelper(log *wal.Log) {
	_ = log.Append([]byte("rec"))
}

func viaHelper(log *wal.Log, mem *memtable.Memtable, c model.Cell) {
	logHelper(log)
	mem.Apply([]byte("k"), c)
}

// applyHelper applies without appending; the summary makes calls to it
// count as applies, so callers own the ordering.
func applyHelper(mem *memtable.Memtable, c model.Cell) {
	//lint:ignore walorder fixture helper: callers are summarized and must order the append themselves
	mem.Apply([]byte("h"), c)
}

func viaApplyHelper(mem *memtable.Memtable, c model.Cell) {
	applyHelper(mem, c) // want "not dominated by a WAL append"
}

func viaApplyHelperGood(log *wal.Log, mem *memtable.Memtable, c model.Cell) {
	_ = log.Append([]byte("rec"))
	applyHelper(mem, c)
}

// rowApplyOnly writes a row's cells — the loop every store write runs
// — without logging any of them.
func rowApplyOnly(mem *memtable.Memtable, cells []model.Cell) {
	for _, c := range cells {
		mem.Apply([]byte("k"), c) // want "not dominated by a WAL append"
	}
}

// rowLogThenApply logs and applies cell by cell: per cell, a guarded
// append that can end the row early, then the apply, whose pre-image
// the caller keeps.
func rowLogThenApply(log *wal.Log, mem *memtable.Memtable, cells, old []model.Cell) error {
	for i, c := range cells {
		if log != nil {
			if err := log.Append([]byte("rec")); err != nil {
				return err
			}
		}
		old[i], _ = mem.Apply([]byte("k"), c)
	}
	return nil
}

// rowHandleApplyOnly resolves the row once and applies each cell
// through its handle, logging none of them.
func rowHandleApplyOnly(mem *memtable.Memtable, cells []model.Cell) {
	h := mem.Row([]byte("\x01r"))
	for _, c := range cells {
		h.Apply([]byte("\x01rk"), c) // want "not dominated by a WAL append"
	}
}

// rowHandleLogThenApply is the same loop with a guarded append per
// cell.
func rowHandleLogThenApply(log *wal.Log, mem *memtable.Memtable, cells []model.Cell) error {
	h := mem.Row([]byte("\x01r"))
	for _, c := range cells {
		if log != nil {
			if err := log.Append([]byte("rec")); err != nil {
				return err
			}
		}
		h.Apply([]byte("\x01rk"), c)
	}
	return nil
}

// rowBatchAppliedFirst applies a row's cells and only then logs them as
// one record: the append dominates none of the applies.
func rowBatchAppliedFirst(p lsm.Persist, mem *memtable.Memtable, es []model.Entry) error {
	h := mem.Row([]byte("\x01r"))
	for _, e := range es {
		h.Apply(e.Key, e.Cell) // want "not dominated by a WAL append"
	}
	return p.AppendMutations(es)
}

// rowBatchLogThenApply is lsm.Store.ApplyRow's shape: the whole row
// logged as one record behind its durability guard, then every cell
// applied through the row handle.
func rowBatchLogThenApply(p lsm.Persist, mem *memtable.Memtable, es []model.Entry) error {
	if p != nil {
		if err := p.AppendMutations(es); err != nil {
			return err
		}
	}
	h := mem.Row([]byte("\x01r"))
	for _, e := range es {
		h.Apply(e.Key, e.Cell)
	}
	return nil
}
