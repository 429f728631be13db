package main

// layerMetric names one per-layer metric; the table is the per_layer list
// of BENCHMARK.json (the smoke test holds the two equal). A traced run
// prints every row; a row a workload does not exercise reads 0.
type layerMetric struct{ name, unit string }

var perLayer = []layerMetric{
	// Reported on every workload, not gated.
	{"op_p99_us", "us"},
	{"alloc_kb_per_op", "KB"},
	{"peak_heap_mb", "MB"},
	{"trace.overhead_frac", "ratio"},
	{"scaling_eff", "ratio"},

	{"linalg.iters_per_step", "count"},
	{"linalg.solve_us_per_step", "us"},
	{"linalg.spmv_us_per_step", "us"},
	{"linalg.dot_us_per_step", "us"},
	{"linalg.spmv_flops_per_step", "count"},
	{"linalg.spmv_bytes_per_step", "B"},
	{"hydro.self_us_per_step", "us"},
	{"mesh.halo_us_per_step", "us"},
	{"mesh.halo_msgs_per_step", "count"},
	{"mesh.halo_bytes_per_step", "B"},
	{"mpi.allreduce_us_per_step", "us"},
	{"mpi.allreduce_calls_per_step", "count"},
	{"cca.getport_ns", "ns"},
	{"cca.port_overhead_ratio", "ratio"},
	{"assembly.mesh_decompose_ms", "ms"},

	{"mpi.proc.send_frames_per_op", "count"},
	{"mpi.proc.send_bytes_per_op", "B"},
	{"mpi.allreduce_1m_us", "us"},
	{"mpi.alltoall_256k_us", "us"},
	{"transport.shm_rtt_8b_us", "us"},
	{"transport.shm_rtt_1m_us", "us"},
	{"transport.shm.ring_stalls_per_op", "count"},

	{"transport.tcp_rtt_us", "us"},
	{"transport.frames_per_flush", "count"},
	{"transport.bytes_sent_per_op", "B"},
	{"orb.marshal_us", "us"},
	{"orb.inproc_call_us", "us"},
	{"orb.remote_call_us", "us"},
	{"orb.over_wire_us", "us"},
	{"dist.supervised_call_us", "us"},
	{"dist.supervision_us", "us"},
	{"orb.supervised.retries", "count"},
	{"orb.supervised.redials", "count"},
	{"orb.server.shed", "count"},
	{"assembly.ccl_compile_ms", "ms"},

	{"distcoll.frame_hit_ratio", "ratio"},
	{"distcoll.epoch_hit_ratio", "ratio"},
	{"distcoll.advance_us", "us"},
	{"distcoll.pull_miss_us", "us"},
	{"distcoll.pull_hit_us", "us"},
	{"distcoll.chunks_per_pull", "count"},
	{"collective.plan_us", "us"},
	{"machine.memcpy_gb_per_s", "GB/s"},
	{"transport.tcp_stream_floor_us", "us"},
}
