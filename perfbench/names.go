package main

import "strings"

// endToEndNames are the metrics of an untraced run (--trace 0).
var endToEndNames = []string{
	"setup_s", "jobs_per_s", "latency_p50_ms", "latency_p99_ms",
	"cpu_ms_per_job", "alloc_kb_per_job", "peak_heap_mb",
}

// perLayerNames are the metrics of a traced run (--trace 1). Every traced
// run reports all of them; a layer a workload does not use reads 0.
var perLayerNames = []string{
	"error_rate",
	"trace.overhead_ratio",
	"pointsto.solve_ms_per_job", "pointsto.propagations", "pointsto.budget_exceeded",
	"core.exec_ms_per_job", "core.steps", "core.steps_per_ms", "core.heap_flushes",
	"core.env_flushes", "core.counterfactuals", "core.cf_aborts", "core.flush_capped_runs",
	"core.exec_tree_over_bytecode",
	"dom.handlers_ms_per_job", "dom.handlers_ran",
	"specialize.ms_per_job", "specialize.clones", "specialize.staticized",
	"specialize.unrolled_iterations", "specialize.evals_eliminated",
	"ast.print_ms_per_job",
	"parser.ms_per_job", "ir.lower_ms_per_job", "ir.instrs",
	"progcache.compile_ms_per_job", "progcache.hit_ratio",
	"facts.render_ms_per_job", "facts.rendered", "facts.determinate_ratio",
	"factcache.self_ms_per_job", "factcache.hit_ratio", "factcache.hit_ms_p50",
	"factcache.miss_ms_p50", "factcache.stores", "factcache.skips_eval", "factcache.fn_unchanged",
	"server.encode_ms_per_job", "server.queue_wait_ms_p99", "server.request_ms_p50",
	"server.response_kb", "server.shed",
	"loadgen.offered_rps", "loadgen.late_ms_p99",
	"runtime.gc_cycles_per_job", "runtime.gc_pause_ms",
}

// countNames are the per-layer metrics that count work. They are summed
// over a fixed prefix of the seeded job sequence, so each must repeat
// exactly across runs at the same seed.
var countNames = []string{
	"pointsto.propagations", "pointsto.budget_exceeded",
	"core.steps", "core.heap_flushes", "core.env_flushes", "core.counterfactuals",
	"core.cf_aborts", "core.flush_capped_runs", "dom.handlers_ran",
	"specialize.clones", "specialize.staticized", "specialize.unrolled_iterations",
	"specialize.evals_eliminated", "ir.instrs", "progcache.hit_ratio",
	"facts.rendered", "facts.determinate_ratio", "factcache.hit_ratio",
	"factcache.stores", "factcache.skips_eval", "factcache.fn_unchanged",
}

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case name == "setup_s":
		return "s"
	case name == "jobs_per_s":
		return "1/s"
	case name == "peak_heap_mb":
		return "MiB"
	case name == "alloc_kb_per_job":
		return "KiB"
	case name == "server.response_kb":
		return "KiB"
	case name == "loadgen.offered_rps":
		return "1/s"
	case name == "core.steps_per_ms":
		return "1/ms"
	case strings.HasSuffix(name, "_ms") || strings.Contains(name, "_ms_") || strings.Contains(name, ".ms_"):
		return "ms"
	case strings.HasSuffix(name, "_per_job"):
		return "1/job"
	case strings.HasSuffix(name, "_ratio") || strings.HasSuffix(name, "_rate") || strings.HasSuffix(name, "_over_bytecode"):
		return "ratio"
	}
	return "count"
}
