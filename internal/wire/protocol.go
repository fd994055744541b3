// Package wire exposes a vstore cluster over TCP with a compact
// length-prefixed binary protocol, so the store can run as a real
// network service (cmd/mvserver) with remote clients (mvctl -addr,
// mvctl load, or the Client type here).
//
// The server embeds the whole multi-node cluster in one process and
// speaks the *client* API over the wire; each connection is routed to
// one coordinator node, mirroring the paper's "an application client
// connects to any server in the system". Distributing the nodes
// themselves across processes would additionally require the external
// lock service the paper sketches for propagation concurrency control
// (Section IV-F); see DESIGN.md.
//
// Frame layout, both directions:
//
//	uint32 (big endian)  payload length
//	byte                 opcode (request) / status (response)
//	payload              opcode-specific, see the encoder/decoder
//
// Strings and byte slices are uvarint-length-prefixed; integers are
// varint/uvarint.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Opcodes.
const (
	OpPut byte = iota + 1
	OpGet
	OpGetRow
	OpDelete
	OpGetView
	OpQueryIndex
	OpCreateTable
	OpCreateView
	OpCreateIndex
	OpSessionBegin
	OpSessionEnd
	OpQuiesce
	OpStats
	OpPing
	OpPruneView
	OpRebuildView
	OpCreateJoinView
	OpMultiGet
)

// Response statuses.
const (
	StatusOK  byte = 0
	StatusErr byte = 1
)

// MaxFrame bounds a frame payload (16 MiB), protecting both sides from
// corrupt length prefixes.
const MaxFrame = 16 << 20

// ErrFrameTooLarge is returned for oversized frames.
var ErrFrameTooLarge = errors.New("wire: frame exceeds limit")

// WriteFrame writes one frame.
func WriteFrame(w io.Writer, kind byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = kind
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame.
func ReadFrame(r io.Reader) (kind byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[4], payload, nil
}

// Encoder builds a frame payload.
type Encoder struct {
	buf []byte
}

// Bytes returns the accumulated payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) *Encoder {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	e.buf = append(e.buf, s...)
	return e
}

// Blob appends a length-prefixed byte slice.
func (e *Encoder) Blob(b []byte) *Encoder {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(b)))
	e.buf = append(e.buf, b...)
	return e
}

// Uint appends a uvarint.
func (e *Encoder) Uint(v uint64) *Encoder {
	e.buf = binary.AppendUvarint(e.buf, v)
	return e
}

// Int appends a varint.
func (e *Encoder) Int(v int64) *Encoder {
	e.buf = binary.AppendVarint(e.buf, v)
	return e
}

// Bool appends a byte flag.
func (e *Encoder) Bool(v bool) *Encoder {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
	return e
}

// ErrCorrupt is returned when a payload cannot be decoded.
var ErrCorrupt = errors.New("wire: corrupt payload")

// Decoder consumes a frame payload.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder wraps a payload.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decoding error.
func (d *Decoder) Err() error { return d.err }

// Done reports whether the payload was fully and cleanly consumed.
func (d *Decoder) Done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.b))
	}
	return nil
}

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = ErrCorrupt
	}
}

// Uint reads a uvarint.
func (d *Decoder) Uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Int reads a varint.
func (d *Decoder) Int() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.Blob()) }

// Blob reads a length-prefixed byte slice.
func (d *Decoder) Blob() []byte {
	n := d.Uint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)) < n {
		d.fail()
		return nil
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

// Bool reads a byte flag.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.b) == 0 {
		d.fail()
		return false
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v != 0
}
