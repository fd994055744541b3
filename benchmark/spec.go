package main

// metricDef declares one metric the benchmark prints. BENCHMARK.json
// at the root of the repository lists the same names and units, plus
// the direction and regression bound of each end-to-end metric; a test
// keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the store sees. Every workload
// reports every one of them, from its untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},           // open + load + quiesce, median of `setups`
	{"ops_per_s", "1/s"},       // operations completed per second of the window
	{"op_mean_us", "us"},       // mean latency of the workload's primary operation
	{"op_p99_us", "us"},        // its 99th percentile
	{"allocs_per_op", "count"}, // process heap allocations per operation in the window
	{"cpu_us_per_op", "us"},    // process CPU time (user+system) per operation in the window
}

// perLayer are the metrics of single layers, from the traced run. The
// prefix is the module. A workload that does not exercise a layer
// reports 0 for it, which is itself the evidence that the layer is
// bypassed there.
var perLayer = []metricDef{
	// client: the public API's own share (option handling, dot stamping,
	// result conversion, latency bookkeeping).
	{"client.getview_us", "us"},
	{"client.getview_self_us", "us"},
	{"client.getview_p50_us", "us"},
	{"client.getview_p99_us", "us"},
	{"client.get_p50_us", "us"},
	{"client.put_us", "us"},
	{"client.put_self_us", "us"},
	{"client.put_p50_us", "us"},
	{"client.put_p99_us", "us"},
	{"client.allocs_per_getview", "count"},
	{"client.allocs_per_put", "count"},
	// session: read-your-writes pairs (the paper's Figure 7).
	{"session.ryw_p50_us", "us"},
	{"session.ryw_p99_us", "us"},
	{"session.wait_mean_us", "us"},
	// core: view manager, propagation, chains.
	{"core.getview_us", "us"},
	{"core.getview_self_us", "us"},
	{"core.put_us", "us"},
	{"core.put_self_us", "us"},
	{"core.attempts_per_propagation", "ratio"},
	{"core.noop_ratio", "ratio"},
	{"core.chain_hops_per_propagation", "ratio"},
	{"core.chain_hops_saved_per_propagation", "ratio"},
	{"core.async_transport_calls_per_put", "ratio"},
	{"core.pending_max", "count"},
	{"core.drain_s", "s"},
	{"core.propagations_dropped", "count"},
	{"core.read_spins_per_read", "ratio"},
	{"core.view_lag_mean_ms", "ms"},
	{"locks.lock_uncontended_ns", "ns"},
	{"locks.lock_contended_ns", "ns"},
	{"propagate.dispatch_ns", "ns"},
	// coord: quorum rounds.
	{"coord.get_us", "us"},
	{"coord.get_self_us", "us"},
	{"coord.digest_read_ratio", "ratio"},
	{"coord.digest_mismatch_ratio", "ratio"},
	{"coord.read_repairs_per_kop", "ratio"},
	{"coord.transport_calls_per_get", "ratio"},
	{"coord.put_us", "us"},
	{"coord.preread_us", "us"},
	{"coord.put_self_us", "us"},
	{"coord.transport_calls_per_put", "ratio"},
	{"coord.multiget_rows_per_call", "ratio"},
	{"coord.quorum_fails", "count"},
	{"coord.hints_stored", "count"},
	// transport: the fabric between coordinator and node.
	{"transport.callsync_self_ns", "ns"},
	{"transport.call_async_self_ns", "ns"},
	{"transport.calls_per_op.get", "ratio"},
	{"transport.calls_per_op.getdigest", "ratio"},
	{"transport.calls_per_op.multiget", "ratio"},
	{"transport.calls_per_op.put", "ratio"},
	// node: request handlers.
	{"node.get_us", "us"},
	{"node.get_self_us", "us"},
	{"node.put_us", "us"},
	{"node.put_self_us", "us"},
	{"node.requests_per_op", "ratio"},
	// lsm, memtable, sstable: the storage engine.
	{"lsm.getrow_us", "us"},
	{"lsm.getcolumns_us", "us"},
	{"lsm.apply_us", "us"},
	{"lsm.runs_per_table", "count"},
	{"lsm.runs_pruned_per_read", "ratio"},
	{"lsm.flushes", "count"},
	{"lsm.compactions", "count"},
	{"memtable.get_ns", "ns"},
	{"memtable.apply_ns", "ns"},
	{"sstable.get_hit_ns", "ns"},
	{"sstable.get_miss_ns", "ns"},
	{"sstable.encode_mb_per_s", "MB/s"},
	{"sstable.decode_mb_per_s", "MB/s"},
	{"sstable.bytes_per_entry", "bytes"},
	// wal and physical: durability. The first three wal metrics and all
	// physical ones are non-zero on durable_lifecycle only.
	{"wal.append_mean_us", "us"},
	{"wal.sync_mean_us", "us"},
	{"wal.syncs", "count"},
	{"wal.log_append_ns", "ns"},
	{"wal.log_append_always_us", "us"},
	{"wal.replay_records_per_s", "1/s"},
	{"wal.bytes_per_record", "bytes"},
	{"physical.appends_per_put", "ratio"},
	{"physical.append_bytes_per_put", "bytes"},
	{"physical.syncs_per_s", "1/s"},
	{"physical.sync_mean_us", "us"},
	{"physical.atomic_writes", "count"},
	{"physical.write_amp", "ratio"},
	{"physical.disk_bytes_per_user_byte", "ratio"},
	{"recovery.open_s", "s"},
	{"recovery.records_replayed", "count"},
	{"backfill.rows_per_s", "1/s"},
	{"backfill.coord_rounds_per_row", "ratio"},
	{"backfill.allocs_per_row", "count"},
	{"backfill.bytes_per_row", "bytes"},
	{"backfill.checkpoint_writes", "count"},
	{"backfill.read_p99_us_during", "us"},
	// wire and model: no workload crosses TCP; kept for the codec work.
	{"wire.encode_getview_ns", "ns"},
	{"wire.decode_getview_ns", "ns"},
	{"wire.frame_roundtrip_ns", "ns"},
	{"wire.tcp_getview_p50_us", "us"},
	{"wire.allocs_per_roundtrip", "count"},
	{"model.encodekey_ns", "ns"},
	{"model.rowdigest_ns", "ns"},
	{"model.merge_ns", "ns"},
	// trace: the harness's own cost and consistency.
	{"trace.overhead_ratio", "ratio"},
	{"trace.ladder_closure", "ratio"},
	{"trace.spans", "count"},
}

// guarded are the per-layer metrics -compare judges like end-to-end
// ones, on the workloads that measure them steadily, with the share of
// the first set's median each may worsen by. They are what a user of
// the store sees on some workloads only — the medians, the latency of a
// session's write-then-read pair, view staleness, bytes written per
// user byte, restart time, backfill rate — so the driver's one list,
// which every workload prints in full and with no zero, cannot hold
// them. A time carries 0.25 like every end-to-end time (README.md,
// Calibration); the one count 10 %, or twice its calibrated spread.
var guarded = []struct {
	name      string
	workloads []string
	bound     float64
}{
	{"client.getview_p50_us", []string{"view_read", "durable_lifecycle"}, 0.25},
	{"client.put_p50_us", []string{"view_write", "durable_lifecycle"}, 0.25},
	{"session.ryw_p50_us", []string{"view_write"}, 0.25},
	{"core.view_lag_mean_ms", []string{"durable_lifecycle"}, 0.25},
	{"physical.write_amp", []string{"durable_lifecycle"}, 0.15},
	{"recovery.open_s", []string{"durable_lifecycle"}, 0.25},
	{"backfill.rows_per_s", []string{"durable_lifecycle"}, 0.25},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("benchmark: undeclared metric " + name)
}
