package wal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"vstore/internal/model"
)

// Record types. The first payload byte tags the record; everything
// after is type-specific, uvarint-framed fields.
const (
	// recMutation logs one applied cell: uvarint keyLen + key, then the
	// cell (model.AppendCell).
	// The table is implicit — mutation logs are per-table directories.
	recMutation byte = 1
	// recIntentStart logs an acknowledged Put whose view propagation
	// has been enqueued but not yet completed: uvarint id, table, row,
	// uvarint updateCount + (column, cell) pairs.
	recIntentStart byte = 2
	// recIntentDone marks an intent's propagation complete: uvarint id.
	recIntentDone byte = 3
)

// ErrBadRecord reports a structurally invalid record payload — frame
// CRCs passed, so this is a logic-level corruption, not a torn write.
var ErrBadRecord = errors.New("wal: malformed record")

// Intent is one logged propagation intent: the base-table Put whose
// derived view updates must eventually be applied. Recovery re-runs
// Algorithm 2 for every intent with a start but no done record; the
// propagation machinery is idempotent (LWW cells carry the base
// write's timestamps), so double replay converges to the same state.
type Intent struct {
	ID      uint64
	Table   string
	Row     string
	Updates []model.ColumnUpdate
}

// readCell decodes one cell with model's codec, reporting a malformed
// one as ErrBadRecord.
func readCell(data []byte) (model.Cell, []byte, error) {
	c, rest, err := model.ReadCell(data)
	if err != nil {
		return model.Cell{}, nil, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	return c, rest, nil
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func readBytes(data []byte) ([]byte, []byte, error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 || uint64(len(data)-sz) < n {
		return nil, nil, ErrBadRecord
	}
	return data[sz : sz+int(n)], data[sz+int(n):], nil
}

func encodeMutation(key []byte, c model.Cell) []byte {
	buf := make([]byte, 0, len(key)+len(c.Value)+24)
	buf = append(buf, recMutation)
	buf = appendBytes(buf, key)
	return model.AppendCell(buf, c)
}

func decodeMutation(p []byte) (model.Entry, error) {
	key, rest, err := readBytes(p)
	if err != nil {
		return model.Entry{}, err
	}
	c, rest, err := readCell(rest)
	if err != nil {
		return model.Entry{}, err
	}
	if len(rest) != 0 {
		return model.Entry{}, ErrBadRecord
	}
	return model.Entry{Key: append([]byte(nil), key...), Cell: c}, nil
}

func encodeIntentStart(it Intent) []byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, recIntentStart)
	buf = binary.AppendUvarint(buf, it.ID)
	buf = appendBytes(buf, []byte(it.Table))
	buf = appendBytes(buf, []byte(it.Row))
	buf = binary.AppendUvarint(buf, uint64(len(it.Updates)))
	for _, u := range it.Updates {
		buf = appendBytes(buf, []byte(u.Column))
		buf = model.AppendCell(buf, u.Cell)
	}
	return buf
}

func decodeIntentStart(p []byte) (Intent, error) {
	var it Intent
	id, sz := binary.Uvarint(p)
	if sz <= 0 {
		return it, ErrBadRecord
	}
	it.ID = id
	table, rest, err := readBytes(p[sz:])
	if err != nil {
		return it, err
	}
	it.Table = string(table)
	row, rest, err := readBytes(rest)
	if err != nil {
		return it, err
	}
	it.Row = string(row)
	n, sz := binary.Uvarint(rest)
	if sz <= 0 {
		return it, ErrBadRecord
	}
	rest = rest[sz:]
	// Each update costs several bytes; a count beyond the remaining
	// payload is corrupt — reject before it sizes an allocation.
	if n > uint64(len(rest)) {
		return it, ErrBadRecord
	}
	it.Updates = make([]model.ColumnUpdate, 0, n)
	for i := uint64(0); i < n; i++ {
		col, r, err := readBytes(rest)
		if err != nil {
			return it, err
		}
		cell, r, err := readCell(r)
		if err != nil {
			return it, err
		}
		rest = r
		it.Updates = append(it.Updates, model.ColumnUpdate{Column: string(col), Cell: cell})
	}
	if len(rest) != 0 {
		return it, ErrBadRecord
	}
	return it, nil
}

func encodeIntentDone(id uint64) []byte {
	buf := make([]byte, 0, 10)
	buf = append(buf, recIntentDone)
	return binary.AppendUvarint(buf, id)
}

func decodeIntentDone(p []byte) (uint64, error) {
	id, sz := binary.Uvarint(p)
	if sz <= 0 || len(p) != sz {
		return 0, ErrBadRecord
	}
	return id, nil
}

func recordType(p []byte) (byte, []byte, error) {
	if len(p) == 0 {
		return 0, nil, ErrBadRecord
	}
	switch p[0] {
	case recMutation, recIntentStart, recIntentDone:
		return p[0], p[1:], nil
	}
	return 0, nil, fmt.Errorf("%w: unknown type %d", ErrBadRecord, p[0])
}
