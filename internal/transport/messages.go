package transport

import (
	"vstore/internal/model"
	"vstore/internal/ring"
	"vstore/internal/trace"
)

// NodeID aliases the ring's node identifier.
type NodeID = ring.NodeID

// Request is implemented by every message a coordinator can send to a
// storage node. The marker method keeps the set closed.
type Request interface{ isRequest() }

// Response is implemented by every reply.
type Response interface{ isResponse() }

// PutReq applies column updates to one row of a table on the receiving
// replica. If ReturnVersionsOf is non-empty, the replica atomically
// reads those columns' current cells *before* applying the updates and
// returns them — this is the combined "Get-then-Put" of Algorithm 1
// that collects view-key versions for update propagation.
type PutReq struct {
	Table            string
	Row              string
	Updates          []model.ColumnUpdate
	ReturnVersionsOf []string
	// Span, when non-nil, is the coordinator-side trace span this
	// request belongs to; the handling replica attaches its own child.
	// In-process transport only — a wire codec would carry trace IDs.
	Span *trace.Span
}

// PutResp acknowledges a PutReq.
type PutResp struct {
	// Old holds the pre-images of ReturnVersionsOf, aligned with it (a
	// never-written column's is NullCell); nil when no pre-read was
	// requested, so such a reply boxes without allocating.
	Old []model.Cell
}

// GetReq reads columns of one row. If AllColumns is set, every cell of
// the row is returned, as a RowResp (needed by view reads, which do not
// know the qualified column names in advance); otherwise the named
// columns come back as a GetResp.
type GetReq struct {
	Table      string
	Row        string
	Columns    []string
	AllColumns bool
	Span       *trace.Span
}

// GetResp carries the replica's local cells of the named columns,
// aligned with GetReq.Columns: a never-written column's is NullCell.
// Tombstones and their timestamps are included: the coordinator needs
// them for LWW resolution and read repair.
type GetResp struct {
	Cells []model.Cell
}

// RowResp carries every cell a replica holds of a row, for a GetReq
// with AllColumns set: sorted by column name, each entry's Key the
// name. Tombstones are included, as in GetResp. The entries may alias
// the replica's storage and must not be modified.
type RowResp struct {
	Cells []model.Entry
}

// GetDigestReq is the digest-read variant of GetReq: instead of
// shipping the cells, the replica answers with a 64-bit digest of
// them (model.RowDigest). Quorum reads fetch the full row from one
// replica and digests from the rest; matching digests prove the
// replicas would have contributed identical cells, so the full row
// already IS the quorum-merged result.
type GetDigestReq struct {
	Table      string
	Row        string
	Columns    []string
	AllColumns bool
	Span       *trace.Span
}

// GetDigestResp carries the digest of the cells a GetReq with the
// same parameters would have returned.
type GetDigestResp struct {
	Digest uint64
}

// RowRead names one row (and column selection) inside a MultiGetReq.
type RowRead struct {
	Row        string
	Columns    []string
	AllColumns bool
}

// MultiGetReq reads several rows of one table in a single request —
// the batched lookup view-maintenance chain walks use to resolve all
// likely chain hops in one round trip instead of one RPC per hop.
type MultiGetReq struct {
	Table string
	Rows  []RowRead
	Span  *trace.Span
}

// RowCells is one row of a MultiGetResp: for a read of named columns,
// Cells aligned with them, as in GetResp; for a whole-row read,
// Entries sorted by column name, as in RowResp.
type RowCells struct {
	Cells   []model.Cell
	Entries []model.Entry
}

// MultiGetResp carries the replica's local cells for each requested
// row, index-aligned with MultiGetReq.Rows.
type MultiGetResp struct {
	Rows []RowCells
}

// ApplyEntriesReq force-applies raw entries to a table's local store.
// Used by read repair, hinted handoff replay and anti-entropy — paths
// that replay already-timestamped cells rather than perform new writes.
type ApplyEntriesReq struct {
	Table   string
	Entries []model.Entry
}

// AckResp is the empty success reply.
type AckResp struct{}

// IndexQueryReq asks a node to consult its local fragment of a native
// secondary index: "which rows that you store have Column = Value?"
// The node returns, for each match, the row key, the locally stored
// cell of the indexed column (so the coordinator can re-validate), and
// the requested read columns.
type IndexQueryReq struct {
	Table       string
	Column      string
	Value       []byte
	ReadColumns []string
}

// IndexMatch is one row found in a node-local index fragment; Cells
// are the read columns' cells, aligned with IndexQueryReq.ReadColumns.
type IndexMatch struct {
	Row         string
	IndexedCell model.Cell
	Cells       []model.Cell
}

// IndexQueryResp carries a node's local index matches.
type IndexQueryResp struct {
	Matches []IndexMatch
}

// DigestReq asks for the anti-entropy digest of a table: per-bucket
// hashes of the node's content, bucketed by ring hash of the storage
// key. Buckets is the leaf count of the Merkle tree. When For is a
// valid node (>= 0), the digest covers only rows replicated on both
// the receiving node and For, so that two replicas comparing digests
// do not perpetually differ over rows they do not share.
type DigestReq struct {
	Table   string
	Buckets int
	For     NodeID
}

// DigestResp returns the leaf hashes of the node's Merkle tree.
type DigestResp struct {
	Leaves []uint64
}

// BucketFetchReq retrieves every entry of a table whose key falls into
// the given bucket, so differing buckets found by digest comparison
// can be reconciled. For restricts the result to rows shared with that
// node, like DigestReq.For.
type BucketFetchReq struct {
	Table   string
	Bucket  int
	Buckets int
	For     NodeID
}

// BucketFetchResp carries the bucket's entries.
type BucketFetchResp struct {
	Entries []model.Entry
}

func (PutReq) isRequest()          {}
func (GetReq) isRequest()          {}
func (GetDigestReq) isRequest()    {}
func (MultiGetReq) isRequest()     {}
func (ApplyEntriesReq) isRequest() {}
func (IndexQueryReq) isRequest()   {}
func (DigestReq) isRequest()       {}
func (BucketFetchReq) isRequest()  {}

func (PutResp) isResponse()         {}
func (GetResp) isResponse()         {}
func (RowResp) isResponse()         {}
func (GetDigestResp) isResponse()   {}
func (MultiGetResp) isResponse()    {}
func (AckResp) isResponse()         {}
func (IndexQueryResp) isResponse()  {}
func (DigestResp) isResponse()      {}
func (BucketFetchResp) isResponse() {}
