package main

// metricDef names one reported metric. BENCHMARK.json at the root of
// the repository lists the same metrics; TestBenchmarkJSON keeps the
// two from drifting apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the time service sees. Every workload
// reports every one of them; README.md says what the operation is on
// each workload (a request, a sync round, or a simulated event). The
// latency of one operation is per-layer (lat.p50_us, tail.lat_p99_us):
// every workload is a closed loop, where it is the number in flight
// divided by ops_per_s, and gating both gated one quantity twice.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", higher, 0.25},
	{"e_us", "us", lower, 0.10},
	{"setup_s", "s", lower, 0.25},
}

// perLayer is measured in the traced pass, from outside each package.
// A workload reports 0 for a layer that is not on its path.
var perLayer = []metricDef{
	{Name: "wire.request_rt_ns", Unit: "ns", Better: lower},
	{Name: "wire.response_rt_ns", Unit: "ns", Better: lower},
	{Name: "wire.hlc_rt_ns", Unit: "ns", Better: lower},
	{Name: "wire.allocs_per_rt", Unit: "count", Better: lower},
	{Name: "udptime.responder.ns_per_req", Unit: "ns", Better: lower},
	{Name: "udptime.tickcache.now_ns", Unit: "ns", Better: lower},
	{Name: "udptime.sysclock.now_ns", Unit: "ns", Better: lower},
	{Name: "udptime.batchserver.reqs_per_batch", Unit: "count", Better: higher},
	{Name: "udptime.server.malformed", Unit: "count", Better: lower},
	{Name: "udptime.loadgen.timeouts", Unit: "count", Better: lower},
	{Name: "udptime.loadgen.strays", Unit: "count", Better: lower},
	{Name: "udptime.loadgen.p999_us", Unit: "us", Better: lower},
	{Name: "udptime.probe.uncontained_pct", Unit: "%", Better: lower},
	{Name: "udptime.probe.worst_lag_us", Unit: "us", Better: lower},
	{Name: "udptime.batchserver.rtt1_us", Unit: "us", Better: lower},
	{Name: "udptime.server.rtt1_us", Unit: "us", Better: lower},
	{Name: "udptime.batchserver.ns_per_req", Unit: "ns", Better: lower},
	{Name: "udptime.server.ns_per_req", Unit: "ns", Better: lower},
	{Name: "udptime.batchserver.unattributed_ns_per_req", Unit: "ns", Better: lower},
	{Name: "udptime.server.unattributed_ns_per_req", Unit: "ns", Better: lower},
	{Name: "udptime.client.query_us", Unit: "us", Better: lower},
	{Name: "udptime.client.allocs_per_query", Unit: "count", Better: lower},
	{Name: "udptime.client.querymany_us", Unit: "us", Better: lower},
	{Name: "udptime.syncim_us", Unit: "us", Better: lower},
	{Name: "udptime.sync.charge_p50_us", Unit: "us", Better: lower},
	{Name: "udptime.sync.inconsistent_rounds", Unit: "count", Better: lower},
	{Name: "hlc.now_ns", Unit: "ns", Better: lower},
	{Name: "hlc.update_ns", Unit: "ns", Better: lower},
	{Name: "interval.intersect8_ns", Unit: "ns", Better: lower},
	{Name: "interval.marzullo64_ns", Unit: "ns", Better: lower},
	{Name: "core.im_sync8_ns", Unit: "ns", Better: lower},
	{Name: "core.mm_sync8_ns", Unit: "ns", Better: lower},
	{Name: "sim.ns_per_event", Unit: "ns", Better: lower},
	{Name: "shard.ns_per_event_1", Unit: "ns", Better: lower},
	{Name: "shard.ns_per_event_2", Unit: "ns", Better: lower},
	{Name: "shard.ns_per_event_heap1e3", Unit: "ns", Better: lower},
	{Name: "shard.ns_per_event_heap1e5", Unit: "ns", Better: lower},
	{Name: "shard.windows", Unit: "count", Better: lower},
	{Name: "shard.merged_events", Unit: "count", Better: lower},
	{Name: "shard.events_per_window", Unit: "count", Better: higher},
	{Name: "scale.new_s", Unit: "s", Better: lower},
	{Name: "scale.ns_per_event", Unit: "ns", Better: lower},
	{Name: "scale.events", Unit: "count", Better: lower},
	{Name: "scale.resets", Unit: "count", Better: higher},
	{Name: "scale.inconsistencies", Unit: "count", Better: lower},
	{Name: "scale.bytes_per_node", Unit: "B", Better: lower},
	{Name: "scale.live_heap_mb", Unit: "MB", Better: lower},
	{Name: "scale.chunk_ns_per_event_p50", Unit: "ns", Better: lower},
	{Name: "scale.chunk_ns_per_event_max", Unit: "ns", Better: lower},
	{Name: "scale.read_metrics_ms", Unit: "ms", Better: lower},
	{Name: "service.new_ms", Unit: "ms", Better: lower},
	{Name: "service.ns_per_event", Unit: "ns", Better: lower},
	{Name: "service.events", Unit: "count", Better: lower},
	{Name: "service.sync_rounds", Unit: "count", Better: higher},
	{Name: "service.resets", Unit: "count", Better: higher},
	{Name: "service.snapshot_us", Unit: "us", Better: lower},
	{Name: "service.e_growth_ppm", Unit: "ppm", Better: lower},
	{Name: "obs.loghist_observe_ns", Unit: "ns", Better: lower},
	{Name: "obs.counter_inc_ns", Unit: "ns", Better: lower},
	{Name: "proc.cpu_util", Unit: "cores", Better: higher},
	{Name: "proc.allocs_per_op", Unit: "count", Better: lower},
	{Name: "proc.gc_cycles", Unit: "count", Better: lower},
	{Name: "proc.wall_s", Unit: "s", Better: lower},
	{Name: "lat.p50_us", Unit: "us", Better: lower},
	{Name: "tail.lat_p99_us", Unit: "us", Better: lower},
	{Name: "trace.overhead_pct", Unit: "%", Better: lower},
}
