package main

// The names, units and bounds here are the ones BENCHMARK.json declares;
// bench_test.go fails when the two drift apart.

type workloadDef struct {
	Name  string
	Procs int // GOMAXPROCS of the workload's child process
	// IdleRounds marks a workload whose router runs task rounds while it
	// waits, so that how many it runs depends on timing.
	IdleRounds bool
	// InKernel marks a workload whose time goes to system calls and to
	// sleeping while frames sit in the kernel. The host probe, run just
	// after its goroutine wakes, reads the wake-up and not the host
	// (hostref.go), so its timings are the plain quiet decile.
	InKernel bool
	Why      string
}

var workloadDefs = []workloadDef{
	{"fwd-base", 1, false, false, "Fig 1 IP router, no passes, scalar, in memory: graph interpretation (elements, core dispatch, packet) does nearly all the work"},
	{"fwd-opt", 1, false, false, "same router after the paper's All chain at Burst 32: the optimiser's output and the batch path do the work, per-hop dispatch little"},
	{"fwd-mixed", 1, false, false, "firewalled router with Fuse+All+FlowCache under Zipf flows, three sizes and 10% labelled exceptions: cache misses, big copies, ICMP/ARP slow paths"},
	{"sock-udp", 2, true, true, "a short path over two real UDP loopback sockets: socket, pump, ring and adapter are nearly all the time, the element graph is noise"},
	{"ctl-churn", 1, false, false, "64-tenant plane under swap/delete/create/handler churn beside traffic: lang, opt, classifier, mgmt and core.Splice do the work"},
}

type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ns_per_pkt", "ns/pkt", "lower", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"allocs_per_pkt", "1/pkt", "lower", 0.02},
	{"rss_mb", "MB", "lower", 0.10},
}

var perLayerDefs = []metricDef{
	{"lang.parse_us", "us", "lower", 0},
	{"lang.unparse_us", "us", "lower", 0},
	{"lang.parse_allocs", "count", "lower", 0},

	{"opt.xform_us", "us", "lower", 0},
	{"opt.fastclassifier_us", "us", "lower", 0},
	{"opt.devirtualize_us", "us", "lower", 0},
	{"opt.undead_us", "us", "lower", 0},
	{"opt.fuse_us", "us", "lower", 0},
	{"opt.flowcache_install_us", "us", "lower", 0},
	{"opt.share_us", "us", "lower", 0},
	{"opt.elements_before", "count", "lower", 0},
	{"opt.elements_after", "count", "lower", 0},
	{"opt.xform_replacements", "count", "higher", 0},
	{"opt.undead_removed", "count", "higher", 0},

	{"classifier.compile_us", "us", "lower", 0},
	{"classifier.match_ns", "ns", "lower", 0},
	{"classifier.match_steps", "count", "lower", 0},
	{"classifier.fdd_nodes", "count", "lower", 0},

	{"core.build_us", "us", "lower", 0},
	{"core.idle_round_ns", "ns", "lower", 0},
	{"core.hop_ns", "ns", "lower", 0},
	{"core.hotswap_us", "us", "lower", 0},
	{"core.syncdo_wait_us", "us", "lower", 0},
	{"core.round_self_ns_per_pkt", "ns/pkt", "lower", 0},

	{"elements.hops_per_pkt", "count", "lower", 0},
	{"elements.model_cycles_per_pkt", "count", "lower", 0},
	{"elements.drops_share", "share", "lower", 0},
	{"elements.simple_ns_per_pkt", "ns/pkt", "lower", 0},
	{"elements.fwd_path_ns_per_pkt", "ns/pkt", "lower", 0},
	{"elements.lpm_lookup_ns", "ns", "lower", 0},
	{"elements.queue_highwater", "count", "lower", 0},
	{"elements.flowcache_hit_share", "share", "higher", 0},
	{"elements.flowcache_entries", "count", "lower", 0},
	{"elements.flowcache_invalidated", "count", "lower", 0},

	{"packet.new_kill_ns", "ns", "lower", 0},
	{"packet.new_kill_allocs", "count", "lower", 0},
	{"packet.clone_kill_ns", "ns", "lower", 0},
	{"packet.new_kill_1500_ns", "ns", "lower", 0},

	{"io.inject_ns_per_pkt", "ns/pkt", "lower", 0},
	{"io.rx_wait_us", "us", "lower", 0},
	{"io.recv_ns_per_pkt", "ns/pkt", "lower", 0},
	{"io.adapter_rx_ns_per_pkt", "ns/pkt", "lower", 0},
	{"io.send_ns_per_pkt", "ns/pkt", "lower", 0},
	{"io.adapter_tx_ns_per_pkt", "ns/pkt", "lower", 0},
	{"io.rx_dropped", "count", "lower", 0},
	{"io.pcap_read_ns_per_frame", "ns", "lower", 0},
	{"io.pcap_write_ns_per_frame", "ns", "lower", 0},

	{"mgmt.create_warm_us", "us", "lower", 0},
	{"mgmt.create_cold_us", "us", "lower", 0},
	{"mgmt.swap_us", "us", "lower", 0},
	{"mgmt.delete_us", "us", "lower", 0},
	{"mgmt.handler_write_us", "us", "lower", 0},
	{"mgmt.handler_read_us", "us", "lower", 0},
	{"mgmt.report_us", "us", "lower", 0},
	{"mgmt.http_swap_us", "us", "lower", 0},
	{"mgmt.cache_hit_share", "share", "higher", 0},
	{"mgmt.shared_programs", "count", "lower", 0},
	{"mgmt.resident_nodes", "count", "lower", 0},
	{"mgmt.allocs_per_op", "count", "lower", 0},

	{"bench.harness_ns_per_pkt", "ns/pkt", "lower", 0},
	{"bench.trace_overhead_share", "share", "lower", 0},
	{"bench.layer_sum_share", "share", "higher", 0},
	{"bench.host_slowdown", "share", "lower", 0},
	{"bench.raw_ns_per_pkt", "ns/pkt", "lower", 0},
	{"bench.noisy_block_share", "share", "lower", 0},
	{"bench.op_tail_us", "us", "lower", 0},
	{"bench.gc_cycles", "count", "lower", 0},
	{"bench.gc_pause_ms", "ms", "lower", 0},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
