// Package wal implements the durability subsystem: per-node,
// per-table segmented write-ahead logs, durable sstable runs tracked
// by an atomically-rewritten MANIFEST, and a propagation-intent log
// that lets crash recovery re-enqueue view maintenance work that was
// acknowledged but not yet applied.
//
// The paper's prototype inherits all of this from Cassandra's commit
// log and sstables; this package is the stdlib-only substitution. The
// correctness contract is the one the paper leans on: no base Put and
// no propagation intent is acknowledged before it is logged, and
// everything logged survives a crash (modulo the configured fsync
// policy) so views converge after restart instead of staying
// permanently stale.
//
// All storage goes through physical.Backend, so the same WAL code runs
// against the real filesystem (physical/fs), an in-memory store
// (physical/mem), or a fault injector (physical/faulty).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vstore/internal/clock"
	"vstore/internal/metrics"
	"vstore/internal/physical"
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs before every append returns (group commit: one
	// fsync may cover a cohort of concurrent appends).
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background ticker; a crash can lose up
	// to one interval of acknowledged writes (Cassandra's "periodic").
	SyncInterval
	// SyncOff never fsyncs during operation (the OS still writes pages
	// back); only Close and explicit Sync calls reach the disk.
	SyncOff
)

// String names the policy for logs and span attributes.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	}
	return "unknown"
}

const (
	// DefaultSegmentBytes is the rotation threshold for WAL segments.
	DefaultSegmentBytes = 4 << 20
	// DefaultSyncInterval is the flush cadence under SyncInterval.
	DefaultSyncInterval = 50 * time.Millisecond
	// maxRecordBytes bounds a single record's payload: Append refuses a
	// larger one, and replay treats a larger length in a segment as
	// corruption (or a torn tail).
	maxRecordBytes = 64 << 20
	// frameHeader is u32 payload length + u32 CRC32-C of the payload.
	frameHeader = 8

	segSuffix = ".wal"
)

// Options configures one Log.
type Options struct {
	SegmentBytes int64
	Policy       SyncPolicy
	Interval     time.Duration
	Clock        clock.Clock
	// Metrics receives OpWALAppend / OpWALSync latencies; nil disables.
	Metrics *metrics.LatencySet
}

func (o *Options) fill() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.Interval <= 0 {
		o.Interval = DefaultSyncInterval
	}
	o.Clock = clock.Or(o.Clock)
}

// Log is one segmented append-only log. Records are length-prefixed
// and CRC-checksummed; segments are numbered files that rotate at
// SegmentBytes and are deleted once the state they cover has been
// flushed to a durable sstable run.
type Log struct {
	b    physical.Backend // rooted at the log's directory
	opts Options

	mu   sync.Mutex // serializes appends and rotation
	f    physical.File
	seq  uint64 // active segment number
	size int64  // bytes written to the active segment

	// Group-commit state. A single leader fsyncs at a time; followers
	// whose appended offset is covered by a completed sync return
	// without touching the disk.
	sc struct {
		sync.Mutex
		cond    *sync.Cond
		syncing bool
		seq     uint64 // watermark: segment...
		synced  int64  // ...and offset known durable
	}

	stopTick func() bool
	closed   bool
}

// OpenLog opens the log rooted at backend b (the backend is the log's
// directory — namespace with physical.Sub) and starts a fresh active
// segment after any existing ones. Existing segments are never
// appended to — their tails may be torn — so replay and truncation
// stay segment-granular.
func OpenLog(b physical.Backend, opts Options) (*Log, error) {
	opts.fill()
	segs, err := listSegments(b)
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	if n := len(segs); n > 0 {
		next = segs[n-1].seq + 1
	}
	l := &Log{b: b, opts: opts}
	l.sc.cond = sync.NewCond(&l.sc.Mutex)
	if err := l.openSegment(next); err != nil {
		return nil, err
	}
	if opts.Policy == SyncInterval {
		l.startTicker()
	}
	return l, nil
}

func (l *Log) startTicker() {
	tick := l.opts.Clock.Ticker(l.opts.Interval)
	done := make(chan struct{})
	l.stopTick = func() bool {
		tick.Stop()
		close(done)
		return true
	}
	go func() {
		for {
			select {
			case <-tick.C():
				//lint:ignore sinkerr a failed background group-commit sync is sticky and surfaced by the next policy-driven Sync
				l.Sync()
			case <-done:
				return
			}
		}
	}()
}

func (l *Log) openSegment(seq uint64) error {
	f, err := l.b.Create(segName(seq))
	if err != nil {
		return err
	}
	l.f, l.seq, l.size = f, seq, 0
	return nil
}

func segName(seq uint64) string {
	return fmt.Sprintf("%016x%s", seq, segSuffix)
}

// ErrRecordTooLarge reports an append of a payload above the record
// cap: replay would take its frame for a torn or corrupt one.
var ErrRecordTooLarge = errors.New("wal: record larger than the cap")

// Append frames and writes one record, rotating the segment when the
// size threshold is crossed, then applies the sync policy. The record
// is durable when Append returns under SyncAlways. A payload above
// maxRecordBytes is refused with ErrRecordTooLarge.
func (l *Log) Append(payload []byte) error {
	if len(payload) > maxRecordBytes {
		return recordTooLarge(len(payload))
	}
	frame := make([]byte, frameHeader+len(payload))
	copy(frame[frameHeader:], payload)
	return l.appendFrame(frame)
}

// beginFrame empties buf and reserves a frame header at its front; the
// caller appends the record's payload after it and hands the frame to
// appendFrame, so a record is encoded once, into a reused buffer.
func beginFrame(buf []byte) []byte {
	return append(buf[:0], make([]byte, frameHeader)...)
}

func recordTooLarge(n int) error {
	return fmt.Errorf("%w: %d bytes, cap %d", ErrRecordTooLarge, n, maxRecordBytes)
}

// appendFrame is Append of the payload frame[frameHeader:], which it
// frames in place: it fills the header and writes frame as it is. The
// log does not keep frame.
func (l *Log) appendFrame(frame []byte) error {
	payload := frame[frameHeader:]
	if len(payload) > maxRecordBytes {
		return recordTooLarge(len(payload))
	}
	start := l.opts.Clock.Now()
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return os.ErrClosed
	}
	if l.f == nil {
		// A previous rotation closed the old segment but failed to open
		// the next one; retry here so one transient storage fault does
		// not wedge the log for good.
		if err := l.reopenLocked(); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	if l.size > 0 && l.size+int64(len(frame)) > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	f, seq := l.f, l.seq
	if _, err := f.Append(frame); err != nil {
		l.mu.Unlock()
		return err
	}
	l.size += int64(len(frame))
	end := l.size
	l.mu.Unlock()

	l.opts.Metrics.Observe(metrics.OpWALAppend, l.opts.Clock.Now().Sub(start))
	if l.opts.Policy != SyncAlways {
		return nil
	}
	return l.groupSync(f, seq, end)
}

// groupSync makes (seq, end) durable, electing at most one fsync
// leader at a time; followers covered by a completed sync return
// immediately.
func (l *Log) groupSync(f physical.File, seq uint64, end int64) error {
	s := &l.sc
	s.Lock()
	for {
		if s.seq > seq || (s.seq == seq && s.synced >= end) {
			s.Unlock()
			return nil
		}
		if !s.syncing {
			break
		}
		s.cond.Wait()
	}
	s.syncing = true
	s.Unlock()

	start := l.opts.Clock.Now()
	err := f.Sync()
	l.opts.Metrics.Observe(metrics.OpWALSync, l.opts.Clock.Now().Sub(start))

	s.Lock()
	s.syncing = false
	if err == nil && (seq > s.seq || (seq == s.seq && end > s.synced)) {
		s.seq, s.synced = seq, end
	}
	s.cond.Broadcast()
	s.Unlock()
	return err
}

// Sync forces the active segment to disk regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	if l.closed || l.f == nil {
		// Nothing open (closed, or a failed rotation pending reopen):
		// there are no unsynced appends to cover.
		l.mu.Unlock()
		return nil
	}
	f, seq, end := l.f, l.seq, l.size
	l.mu.Unlock()
	return l.groupSync(f, seq, end)
}

// rotateLocked finishes the active segment (final fsync unless the
// policy is off — interval syncs only cover the active file) and
// starts the next one. Callers hold l.mu.
func (l *Log) rotateLocked() error {
	s := &l.sc
	s.Lock()
	for s.syncing {
		s.cond.Wait()
	}
	s.syncing = true
	s.Unlock()

	old := l.f
	var err error
	if l.opts.Policy != SyncOff {
		err = old.Sync()
	}
	if cerr := old.Close(); err == nil {
		err = cerr
	}
	// The old handle is gone either way, so always move on to a fresh
	// segment: leaving l.f pointing at a closed file would wedge the
	// log forever after one transient fault. If the create fails too,
	// l.f goes nil and the next Append retries it via reopenLocked.
	if oerr := l.openSegment(l.seq + 1); oerr != nil {
		l.f, l.seq, l.size = nil, l.seq+1, 0
		if err == nil {
			err = oerr
		}
	}

	s.Lock()
	s.syncing = false
	if err == nil {
		// The outgoing segment is fully durable; advance the watermark
		// so its waiters (and any pre-rotation cohort) are covered.
		s.seq, s.synced = l.seq, 0
	}
	s.cond.Broadcast()
	s.Unlock()
	return err
}

// reopenLocked restores the active segment after a rotation that
// closed the old file but failed before the new one existed. Callers
// hold l.mu. A backend that managed to create the file before its
// failure surfaces fs.ErrExist here; skipping to the next number keeps
// the log live (replay tolerates the resulting empty segment).
func (l *Log) reopenLocked() error {
	err := l.openSegment(l.seq)
	if err != nil && errors.Is(err, fs.ErrExist) {
		err = l.openSegment(l.seq + 1)
	}
	return err
}

// Rotate manually finishes the active segment and starts a new one.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return os.ErrClosed
	}
	return l.rotateLocked()
}

// SegmentSeq returns the active segment number.
func (l *Log) SegmentSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// DropBefore deletes all segments numbered below seq — the truncation
// step once a flush has made the covered state durable elsewhere.
func (l *Log) DropBefore(seq uint64) (int, error) {
	segs, err := listSegments(l.b)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, s := range segs {
		if s.seq >= seq {
			break
		}
		if err := l.b.Remove(s.name); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}

// Close finishes the log: stops the interval ticker, fsyncs the active
// segment (clean shutdown is durable even under SyncOff) and closes
// it.
func (l *Log) Close() error {
	return l.close(true)
}

// Abandon closes file handles without the final fsync, modeling a
// crash for the simulator: whatever the policy had synced (plus
// whatever the OS happened to write back) is all recovery gets.
func (l *Log) Abandon() error {
	return l.close(false)
}

func (l *Log) close(sync bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.stopTick != nil {
		l.stopTick()
	}
	if l.f == nil { // failed rotation left no active segment
		return nil
	}
	var err error
	if sync {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- Replay ----------------------------------------------------------------

// ReplayStats summarizes one ReplayDir pass.
type ReplayStats struct {
	Segments int
	Records  int
	Bytes    int64
	// TornTail reports that the final segment ended in a truncated or
	// corrupt record, which replay drops (the write it framed was never
	// acknowledged under the durability contract).
	TornTail bool
}

// ReplayDir streams every intact record of every segment under b,
// oldest first, into fn. A torn or corrupt tail of the *final* segment
// stops replay cleanly; corruption anywhere else is an error, since
// records after it were acknowledged and would be silently lost. A
// backend with no segments replays zero records.
func ReplayDir(b physical.Backend, fn func(payload []byte) error) (ReplayStats, error) {
	var st ReplayStats
	segs, err := listSegments(b)
	if err != nil {
		return st, err
	}
	for i, seg := range segs {
		last := i == len(segs)-1
		data, err := b.ReadFile(seg.name)
		if err != nil {
			return st, err
		}
		st.Segments++
		off := 0
		for off < len(data) {
			rest := data[off:]
			if len(rest) < frameHeader {
				if !last {
					return st, fmt.Errorf("wal: truncated frame in non-final segment %s", seg.name)
				}
				st.TornTail = true
				break
			}
			n := binary.LittleEndian.Uint32(rest)
			want := binary.LittleEndian.Uint32(rest[4:])
			if n > maxRecordBytes || len(rest)-frameHeader < int(n) {
				if !last {
					return st, fmt.Errorf("wal: truncated record in non-final segment %s", seg.name)
				}
				st.TornTail = true
				break
			}
			payload := rest[frameHeader : frameHeader+int(n)]
			if crc32.Checksum(payload, crcTable) != want {
				if !last {
					return st, fmt.Errorf("wal: checksum mismatch in non-final segment %s", seg.name)
				}
				st.TornTail = true
				break
			}
			if err := fn(payload); err != nil {
				return st, err
			}
			st.Records++
			st.Bytes += int64(n)
			off += frameHeader + int(n)
		}
		if st.TornTail {
			break
		}
	}
	return st, nil
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

type segment struct {
	name string
	seq  uint64
}

func listSegments(b physical.Backend) ([]segment, error) {
	names, err := b.List("")
	if err != nil {
		return nil, err
	}
	segs := make([]segment, 0, len(names))
	for _, name := range names {
		if strings.HasSuffix(name, "/") || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 16, 64)
		if err != nil {
			continue
		}
		segs = append(segs, segment{name: name, seq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}
