package campaign

import (
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Metrics is the campaign engine's instrument set, built over a
// telemetry.Registry and attached to a run via Config.Metrics. All
// accounting is out-of-band by construction: the engine flushes a
// shard's counters after its simulator has finished — from the
// worker goroutine, never from inside the event loop — so attaching
// Metrics cannot move an event, consume a PRNG draw, or change a
// dataset byte. TestTelemetryOutOfBand pins that by byte-comparing
// instrumented and uninstrumented merged datasets.
//
// Metric families (Prometheus names; see DESIGN.md §12 for the naming
// scheme):
//
//	repro_campaign_shards_running            gauge    shards currently executing
//	repro_campaign_shards_completed_total    counter  shards finished, by result
//	repro_campaign_traces_completed_total    counter  traces merged into datasets
//	repro_campaign_shard_duration_seconds    histogram per-shard wall clock
//	repro_sim_events_total                   counter  events executed
//	repro_sim_phantom_events_total           counter  phantom boundaries run as events
//	repro_sim_replayed_boundaries_total      counter  boundaries replayed lazily
//	repro_sim_worlds_total{op}               counter  shard worlds, op ∈ {instantiate, reset}
//	repro_aqm_enqueued_total{discipline}     counter  packets admitted (incl. phantoms)
//	repro_aqm_dequeued_total{discipline}     counter  packets handed to transmitters
//	repro_aqm_ce_marked_total{discipline}    counter  congestion actions resolved by CE mark
//	repro_aqm_dropped_total{discipline,cause} counter drops, cause ∈ {not-ect, tail}
//	repro_aqm_backlog_packets{discipline}    gauge    last sampled backlog (packets)
//	repro_aqm_backlog_avg_packets{discipline} gauge   mean backlog an arrival observed
//
// One Metrics may be shared by many concurrent campaigns (the control
// plane attaches the server-wide set to every job): every instrument
// write is atomic, and per-shard flushes are deltas over fresh shard
// worlds, so concurrent runs simply sum.
type Metrics struct {
	reg *telemetry.Registry

	shardsRunning *telemetry.Gauge
	shardsDone    *telemetry.Counter
	shardsFailed  *telemetry.Counter
	tracesDone    *telemetry.Counter
	shardSeconds  *telemetry.Histogram

	events        *telemetry.Counter
	phantomEvents *telemetry.Counter
	replayed      *telemetry.Counter

	worldsInstantiated *telemetry.Counter
	worldsReset        *telemetry.Counter
}

// NewMetrics registers the campaign instrument set on reg and returns
// the handle to attach via Config.Metrics. Registration is idempotent,
// so multiple NewMetrics on one registry share instruments.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	m := &Metrics{
		reg: reg,
		shardsRunning: reg.Gauge("repro_campaign_shards_running",
			"Shards currently executing across all campaigns."),
		shardsDone: reg.Counter("repro_campaign_shards_completed_total",
			"Shards completed.", telemetry.Label{Name: "result", Value: "ok"}),
		shardsFailed: reg.Counter("repro_campaign_shards_completed_total",
			"Shards completed.", telemetry.Label{Name: "result", Value: "error"}),
		tracesDone: reg.Counter("repro_campaign_traces_completed_total",
			"Traces completed and merged into datasets."),
		shardSeconds: reg.Histogram("repro_campaign_shard_duration_seconds",
			"Per-shard wall-clock execution time.", telemetry.DurationBuckets()),
		events: reg.Counter("repro_sim_events_total",
			"Simulator events executed."),
		phantomEvents: reg.Counter("repro_sim_phantom_events_total",
			"Phantom cross-traffic boundaries dispatched as scheduler events."),
		replayed: reg.Counter("repro_sim_replayed_boundaries_total",
			"Phantom cross-traffic boundaries replayed arithmetically (lazy drive)."),
		worldsInstantiated: reg.Counter("repro_sim_worlds_total",
			"Shard worlds, by how the executor obtained them.", telemetry.Label{Name: "op", Value: "instantiate"}),
		worldsReset: reg.Counter("repro_sim_worlds_total",
			"Shard worlds, by how the executor obtained them.", telemetry.Label{Name: "op", Value: "reset"}),
	}
	// Pre-register the bottleneck discipline so a scrape shows the
	// full surface (as zeros) before the first congested shard
	// completes.
	m.aqmCounters("red")
	return m
}

// aqmCounters returns one discipline's instrument tuple, registering
// it on first use.
func (m *Metrics) aqmCounters(discipline string) (enq, deq, ce, dropNotECT, dropTail *telemetry.Counter, backlog, avgBacklog *telemetry.Gauge) {
	lab := telemetry.Label{Name: "discipline", Value: discipline}
	enq = m.reg.Counter("repro_aqm_enqueued_total",
		"Packets admitted by AQM queues, phantoms included.", lab)
	deq = m.reg.Counter("repro_aqm_dequeued_total",
		"Packets handed to bottleneck transmitters.", lab)
	ce = m.reg.Counter("repro_aqm_ce_marked_total",
		"Congestion actions resolved by CE-marking an ECT packet.", lab)
	dropNotECT = m.reg.Counter("repro_aqm_dropped_total",
		"Packets dropped by AQM queues, by cause.", lab,
		telemetry.Label{Name: "cause", Value: "not-ect"})
	dropTail = m.reg.Counter("repro_aqm_dropped_total",
		"Packets dropped by AQM queues, by cause.", lab,
		telemetry.Label{Name: "cause", Value: "tail"})
	backlog = m.reg.Gauge("repro_aqm_backlog_packets",
		"Backlog (packets) at the last shard-completion sample.", lab)
	avgBacklog = m.reg.Gauge("repro_aqm_backlog_avg_packets",
		"Mean backlog an arriving packet observed, last completed shard.", lab)
	return
}

// shardStarted is the engine-side hook: a worker picked up a shard.
func (m *Metrics) shardStarted() {
	if m == nil {
		return
	}
	m.shardsRunning.Add(1)
}

// worldAcquired accounts how a shard got its world: the executor's
// previous world reset (the blueprint's adopted spare included), or a
// new one instantiated from the blueprint. It runs before the shard's
// simulation starts.
func (m *Metrics) worldAcquired(reset bool) {
	switch {
	case m == nil:
	case reset:
		m.worldsReset.Inc()
	default:
		m.worldsInstantiated.Inc()
	}
}

// shardFailed accounts a shard whose simulation errored.
func (m *Metrics) shardFailed() {
	if m == nil {
		return
	}
	m.shardsRunning.Add(-1)
	m.shardsFailed.Inc()
}

// shardFinished flushes one completed shard: its execution stats and
// its world's AQM queue ground truth. The shard's simulator has
// stopped, so every read here is of quiescent state.
func (m *Metrics) shardFinished(st ShardStats, w *topology.World) {
	if m == nil {
		return
	}
	m.shardsRunning.Add(-1)
	m.shardsDone.Inc()
	m.tracesDone.Add(uint64(st.Traces))
	m.shardSeconds.Observe(st.Elapsed.Seconds())
	m.events.Add(st.Events)
	m.phantomEvents.Add(st.PhantomEvents)
	m.replayed.Add(st.ReplayedBoundaries)
	for _, bn := range w.Bottlenecks {
		q := bn.Queue
		qs := q.Stats()
		enq, deq, ce, dropNotECT, dropTail, backlog, avgBacklog := m.aqmCounters(q.Name())
		enq.Add(qs.Enqueued)
		deq.Add(qs.Dequeued)
		ce.Add(qs.CEMarked)
		dropNotECT.Add(qs.NotECTDropped)
		dropTail.Add(qs.TailDropped)
		backlog.Set(float64(q.Len()))
		avgBacklog.Set(qs.AvgBacklog())
	}
}
