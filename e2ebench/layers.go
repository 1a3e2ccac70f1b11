package main

// perLayer derives the per-layer metrics of the traced leg: self times
// from the span trees, counts from the obs deltas around the leg, the
// paper's cost units from the calibration pass, and the tracing
// overhead from the untraced leg that ran just before. A layer that
// does no work on the workload reports 0.
func perLayer(put func(string, float64, string), w spec, untraced, traced phase,
	dl map[string]float64, rt0, rt1 runtimeSnap, wc cost) {
	m := traced.merged()
	reads, writes := float64(len(m.read)), float64(len(m.write))
	ops := reads + writes
	self := selfTimes(m.traces)
	perRead := func(us float64) float64 { return ratio(us, reads) }
	hist := func(name string) float64 { // mean of an obs latency histogram, µs
		return 1e6 * ratio(dl[name+"_sum"], dl[name+"_count"])
	}

	put("pascalr.plan_cache_hit_ratio", ratio(dl["pascal_engine_plan_cache_hits_total"],
		dl["pascal_engine_plan_cache_hits_total"]+dl["pascal_engine_plan_cache_misses_total"]), "ratio")
	residual := self["call-read"]
	if w.openLoop {
		residual = self["server"] // the call span itself is client time
	}
	put("pascalr.residual_us", perRead(residual), "us")
	put("parser.parse_us", perRead(self["parse"]), "us")
	put("calculus.check_us", perRead(self["check"]), "us")
	put("normalize.standardize_us", perRead(self["standardize"]), "us")
	put("optimizer.optimize_us", perRead(self["optimize"]), "us")
	put("engine.compile_us", perRead(self["compile"]), "us")
	put("engine.collection_us", perRead(self["collection"]), "us")
	put("engine.scan_us", perRead(self["scan"]), "us")
	put("engine.deferred_join_us", perRead(self["deferred-join"]), "us")
	put("engine.tuples_read_per_op", wc.tuples, "count")
	put("engine.index_probes_per_op", wc.probes, "count")
	put("engine.comparisons_per_op", wc.cmps, "count")

	put("colbatch.rows_per_op", wc.batchRows, "count")
	put("colbatch.batches_per_op", wc.batches, "count")
	put("colbatch.selectivity", ratio(wc.selected, wc.filterRows), "ratio")

	put("algebra.combination_us", perRead(self["combination"]), "us")
	put("algebra.join_us", perRead(self["join"]), "us")
	put("algebra.ref_tuples_per_op", wc.refs, "count")
	put("algebra.peak_ref_tuples", wc.peakRefs, "count")
	put("algebra.hash_joins_per_op", wc.hashJoins, "count")

	put("sched.jobs_per_op", wc.jobs, "count")
	put("sched.job_busy_us_per_op", 1e6*ratio(dl["pascal_sched_job_seconds_sum"], ops), "us")
	put("sched.async_jobs", dl["pascal_sched_async_jobs_total"], "count")

	// Write latency minus the fsync time per write. Over the wire the
	// server's exec dispatch time stands in for the benchmark's latency.
	fsyncUS := 1e6 * dl["pascal_storage_wal_fsync_seconds_sum"]
	writeUS := m.writeUS
	if w.openLoop {
		writeUS = 1e6 * dl["pascal_server_op_exec_seconds_sum"]
	}
	put("relation.write_apply_us", ratio(writeUS-fsyncUS, writes), "us")

	appends := dl["pascal_storage_wal_appends_total"]
	user := float64(m.userBytes)
	put("storage.wal_appends_per_write", ratio(appends, writes), "count")
	put("storage.wal_bytes_per_user_byte", ratio(dl["pascal_storage_wal_bytes_total"], user), "ratio")
	put("storage.fsyncs_per_write", ratio(dl["pascal_storage_wal_fsyncs_total"], writes), "count")
	put("storage.fsync_us", hist("pascal_storage_wal_fsync_seconds"), "us")
	put("storage.records_per_commit", ratio(appends, dl["pascal_storage_group_commit_batches_total"]), "count")
	put("storage.memtable_spills", dl["pascal_storage_memtable_spills_total"], "count")
	put("storage.compactions", dl["pascal_storage_compactions_total"], "count")
	put("storage.compaction_bytes_per_user_byte", ratio(dl["pascal_storage_compaction_bytes_total"], user), "ratio")
	put("storage.checkpoint_ms", hist("pascal_storage_checkpoint_seconds")/1e3, "ms")
	put("storage.sstable_reads_per_op", ratio(dl["pascal_storage_sstable_reads_total"], reads), "count")
	hits, misses := dl["pascal_storage_block_cache_hits_total"], dl["pascal_storage_block_cache_misses_total"]
	put("storage.block_cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	put("storage.block_cache_evictions", dl["pascal_storage_block_cache_evictions_total"], "count")
	skips := dl["pascal_storage_bloom_skips_total"]
	put("storage.bloom_skip_ratio", ratio(skips, skips+dl["pascal_storage_bloom_hits_total"]), "ratio")

	put("server.op_query_us", hist("pascal_server_op_query_seconds"), "us")
	put("server.op_exec_stmt_us", hist("pascal_server_op_exec_stmt_seconds"), "us")
	put("server.op_fetch_us", hist("pascal_server_op_fetch_seconds"), "us")
	put("server.op_exec_us", hist("pascal_server_op_exec_seconds"), "us")
	// The benchmark's own TraceLastQuery round trips are not the workload's.
	frames := dl["pascal_server_frames_total"] - dl["pascal_server_op_last_trace_seconds_count"]
	put("server.frames_per_op", ratio(frames, ops), "count")
	wire := 0.0
	if w.openLoop {
		dispatch := 0.0
		for _, op := range []string{"query", "exec_stmt", "fetch", "exec"} {
			dispatch += dl["pascal_server_op_"+op+"_seconds_sum"]
		}
		wire = ratio(m.callUS-1e6*dispatch, ops)
	}
	put("client.wire_us", wire, "us")
	put("client.late_us", quantile(sortedCopy(m.late), 0.99), "us")

	put("runtime.gc_cpu_frac", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "ratio")
	put("runtime.gc_cycles_per_kop", 1e3*ratio(float64(rt1.numGC-rt0.numGC), ops), "count")

	u := float64(untraced.ops()) / untraced.elapsed.Seconds()
	t := ops / traced.elapsed.Seconds()
	put("obs.trace_overhead_frac", ratio(u-t, u), "ratio")
}

// ratio is a/b, or 0 when b is 0: a layer that did no work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
