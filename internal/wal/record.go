package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"vstore/internal/model"
)

// Record types. The first payload byte tags the record; everything
// after is type-specific, uvarint-framed fields.
const (
	// recMutation logs one applied cell: uvarint keyLen + key, then the
	// cell (model.AppendCell). Stores logged every cell this way before
	// they logged whole rows (recMutations); nothing writes it any
	// more, but replay still decodes it, so older WAL tails open.
	// The table is implicit — mutation logs are per-table directories.
	recMutation byte = 1
	// recIntentStart logs an acknowledged Put whose view propagation
	// has been enqueued but not yet completed: uvarint id, table, row,
	// uvarint updateCount + (column, cell) pairs.
	recIntentStart byte = 2
	// recIntentDone marks an intent's propagation complete: uvarint id.
	recIntentDone byte = 3
	// recMutations logs the cells of one store write — a row, or a
	// piece of a replicated batch — as a unit: uvarint count, then
	// count (key, cell) pairs coded as in recMutation. Replay applies
	// all of them or, when the record is torn, none.
	recMutations byte = 4
)

// minEntryBytes is the fewest bytes one (key, cell) pair or intent
// update encodes to: a key length, a timestamp, a flag and a value
// length of one byte each. A count claiming more pairs than the
// remaining payload can hold is corrupt.
const minEntryBytes = 4

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

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readBytes(data []byte) ([]byte, []byte, error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 || uint64(len(data)-sz) < n {
		return nil, nil, ErrBadRecord
	}
	return data[sz : sz+int(n)], data[sz+int(n):], nil
}

// appendMutations appends the recMutations record of es to buf.
func appendMutations(buf []byte, es []model.Entry) []byte {
	buf = append(buf, recMutations)
	buf = binary.AppendUvarint(buf, uint64(len(es)))
	for _, e := range es {
		buf = appendBytes(buf, e.Key)
		buf = model.AppendCell(buf, e.Cell)
	}
	return buf
}

func decodeMutation(p []byte) (model.Entry, error) {
	e, rest, err := readEntry(p)
	if err != nil {
		return model.Entry{}, err
	}
	if len(rest) != 0 {
		return model.Entry{}, ErrBadRecord
	}
	return e, nil
}

// decodeMutations appends the entries of a recMutations payload to dst.
// On error dst's new entries are unspecified; the caller drops them.
func decodeMutations(p []byte, dst []model.Entry) ([]model.Entry, error) {
	n, sz := binary.Uvarint(p)
	if sz <= 0 || n > uint64(len(p)-sz)/minEntryBytes {
		return dst, ErrBadRecord
	}
	rest := p[sz:]
	dst = slices.Grow(dst, int(n))
	for i := uint64(0); i < n; i++ {
		e, r, err := readEntry(rest)
		if err != nil {
			return dst, err
		}
		dst = append(dst, e)
		rest = r
	}
	if len(rest) != 0 {
		return dst, ErrBadRecord
	}
	return dst, nil
}

// readEntry decodes one (key, cell) pair from the front of data,
// copying the key and value out of it.
func readEntry(data []byte) (model.Entry, []byte, error) {
	key, rest, err := readBytes(data)
	if err != nil {
		return model.Entry{}, nil, err
	}
	c, rest, err := readCell(rest)
	if err != nil {
		return model.Entry{}, nil, err
	}
	return model.Entry{Key: append([]byte(nil), key...), Cell: c}, rest, nil
}

// appendIntentStart appends the recIntentStart record of it to buf.
func appendIntentStart(buf []byte, it Intent) []byte {
	buf = append(buf, recIntentStart)
	buf = binary.AppendUvarint(buf, it.ID)
	buf = appendString(buf, it.Table)
	buf = appendString(buf, it.Row)
	buf = binary.AppendUvarint(buf, uint64(len(it.Updates)))
	for _, u := range it.Updates {
		buf = appendString(buf, u.Column)
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
	// A count beyond what the remaining payload can hold is corrupt —
	// reject it before it sizes an allocation.
	if n > uint64(len(rest))/minEntryBytes {
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

// appendIntentDone appends the recIntentDone record of id to buf.
func appendIntentDone(buf []byte, id uint64) []byte {
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
	case recMutation, recIntentStart, recIntentDone, recMutations:
		return p[0], p[1:], nil
	}
	return 0, nil, fmt.Errorf("%w: unknown type %d", ErrBadRecord, p[0])
}
