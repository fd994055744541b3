package sstable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"vstore/internal/bloom"
	"vstore/internal/model"
	"vstore/internal/physical"
)

// On-disk sstable file format. A file is an immutable run written once
// by a memtable flush, a compaction, or a snapshot, and read back in
// full at recovery:
//
//	magic "VSST" + version byte (1)
//	uvarint blockCount
//	per block: uvarint payloadLen, uint32 crc32(payload), payload
//	  where payload is the entry-run codec (uvarint count + entries)
//	filter section: uvarint len, uint32 crc32, bloom.Filter.Marshal bytes
//	bounds: uvarint minKeyLen + minKey, uvarint maxKeyLen + maxKey
//	trailing magic "TSSV"
//
// Every section carries its own CRC so corruption is detected at the
// block level; the bloom filter and min/max bounds are persisted so PR
// 2's run pruning works immediately after recovery without a rebuild
// pass over the entries.

var (
	fileMagic    = []byte{'V', 'S', 'S', 'T'}
	fileTrailer  = []byte{'T', 'S', 'S', 'V'}
	fileVersion  = byte(1)
	crcTable     = crc32.MakeTable(crc32.Castagnoli)
	maxBlockSize = uint64(64 << 20)
)

// blockEntries is the number of cells per data block. Blocks bound the
// blast radius of a bad CRC and keep encode buffers small.
const blockEntries = 512

// EncodeFile serializes the table into the on-disk file format.
func (t *Table) EncodeFile() []byte {
	nblocks := (len(t.entries) + blockEntries - 1) / blockEntries
	buf := make([]byte, 0, t.dataBytes+int64(len(t.entries))*6+int64(t.filter.SizeBytes())+64)
	buf = append(buf, fileMagic...)
	buf = append(buf, fileVersion)
	buf = binary.AppendUvarint(buf, uint64(nblocks))
	var scratch []byte
	for b := 0; b < nblocks; b++ {
		lo := b * blockEntries
		hi := lo + blockEntries
		if hi > len(t.entries) {
			hi = len(t.entries)
		}
		scratch = appendEntries(scratch[:0], t.entries[lo:hi])
		buf = binary.AppendUvarint(buf, uint64(len(scratch)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(scratch, crcTable))
		buf = append(buf, scratch...)
	}
	fb := t.filter.Marshal()
	buf = binary.AppendUvarint(buf, uint64(len(fb)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(fb, crcTable))
	buf = append(buf, fb...)
	buf = binary.AppendUvarint(buf, uint64(len(t.minKey)))
	buf = append(buf, t.minKey...)
	buf = binary.AppendUvarint(buf, uint64(len(t.maxKey)))
	buf = append(buf, t.maxKey...)
	buf = append(buf, fileTrailer...)
	return buf
}

// DecodeFile parses a file produced by EncodeFile back into a table,
// reusing the persisted bloom filter instead of re-hashing every key.
func DecodeFile(data []byte) (*Table, error) {
	if len(data) < len(fileMagic)+1 || !bytes.Equal(data[:len(fileMagic)], fileMagic) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := data[len(fileMagic)]; v != fileVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	data = data[len(fileMagic)+1:]
	nblocks, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, fmt.Errorf("%w: block count", ErrCorrupt)
	}
	data = data[sz:]
	var entries []model.Entry
	for b := uint64(0); b < nblocks; b++ {
		payload, rest, err := readChecked(data, fmt.Sprintf("block %d", b))
		if err != nil {
			return nil, err
		}
		data = rest
		blk, err := UnmarshalEntries(payload)
		if err != nil {
			return nil, fmt.Errorf("%w: block %d entries", ErrCorrupt, b)
		}
		entries = append(entries, blk...)
	}
	fb, rest, err := readChecked(data, "filter")
	if err != nil {
		return nil, err
	}
	data = rest
	var filter *bloom.Filter
	if len(fb) > 0 {
		if filter, err = bloom.Unmarshal(fb); err != nil {
			return nil, fmt.Errorf("%w: filter", ErrCorrupt)
		}
	}
	minKey, data, err := readPrefixed(data)
	if err != nil {
		return nil, err
	}
	maxKey, data, err := readPrefixed(data)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(data, fileTrailer) {
		return nil, fmt.Errorf("%w: bad trailer", ErrCorrupt)
	}
	if filter == nil {
		// Empty tables persist a zero-length filter section; rebuild a
		// trivial one so lookups stay nil-safe.
		return Build(entries), nil
	}
	t := buildWithFilter(entries, filter)
	// Persisted bounds must agree with the decoded run; a mismatch
	// means the file was spliced from different tables.
	if !bytes.Equal(t.minKey, minKey) || !bytes.Equal(t.maxKey, maxKey) {
		return nil, fmt.Errorf("%w: bounds mismatch", ErrCorrupt)
	}
	return t, nil
}

// readChecked consumes a uvarint-length + crc32 + payload section.
func readChecked(data []byte, what string) (payload, rest []byte, err error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 || n > maxBlockSize || uint64(len(data)-sz-4) < n {
		return nil, nil, fmt.Errorf("%w: %s length", ErrCorrupt, what)
	}
	data = data[sz:]
	want := binary.LittleEndian.Uint32(data)
	payload = data[4 : 4+n]
	if crc32.Checksum(payload, crcTable) != want {
		return nil, nil, fmt.Errorf("%w: %s checksum", ErrCorrupt, what)
	}
	return payload, data[4+n:], nil
}

func readPrefixed(data []byte) (b, rest []byte, err error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 || uint64(len(data)-sz) < n {
		return nil, nil, fmt.Errorf("%w: key bounds", ErrCorrupt)
	}
	return data[sz : sz+int(n)], data[sz+int(n):], nil
}

// WriteTo atomically persists the table at name on backend b: the
// write is all-or-nothing across a crash (physical.Backend's
// WriteFileAtomic contract), so a half-written run is never visible
// under its final name.
func WriteTo(b physical.Backend, name string, t *Table) error {
	return b.WriteFileAtomic(name, t.EncodeFile())
}

// ReadFrom loads a table persisted with WriteTo.
func ReadFrom(b physical.Backend, name string) (*Table, error) {
	data, err := b.ReadFile(name)
	if err != nil {
		return nil, err
	}
	return DecodeFile(data)
}
