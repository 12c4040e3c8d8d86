//! The names every later issue uses: workloads, end-to-end metrics with
//! their bounds, and per-layer metrics. `BENCHMARK.json` repeats the
//! part of these tables the acceptance driver reads, and a test holds
//! the two together.

use crate::json::Json;
use crate::stats;

/// How long the timed reps of one run last by default; `BENCHMARK.json`
/// carries the same number as `run_seconds`.
pub const RUN_SECONDS: u64 = 10;

/// The six workloads. Names are fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReplayNogc,
    ReplaySaio,
    ReplaySaga,
    ServeInproc,
    NetLockstep,
    NetPipelined,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::ReplayNogc,
        Workload::ReplaySaio,
        Workload::ReplaySaga,
        Workload::ServeInproc,
        Workload::NetLockstep,
        Workload::NetPipelined,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayNogc => "replay_nogc",
            Workload::ReplaySaio => "replay_saio",
            Workload::ReplaySaga => "replay_saga",
            Workload::ServeInproc => "serve_inproc",
            Workload::NetLockstep => "net_lockstep",
            Workload::NetPipelined => "net_pipelined",
        }
    }

    /// Why the workload exists, in one line (`BENCHMARK.json` repeats it).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ReplayNogc => "OO7 Medium-shaped trace replayed with collection off: decode, engine dispatch and store apply do all the work, gc/core/net none; the mutator floor at a size that is not toy",
            Workload::ReplaySaio => "OO7 Small conn-9 under saio:10%: selection, Cheney copy and oracle reconcile are about 80% of wall, so collector and store-reconcile work shows here and not in replay_nogc",
            Workload::ReplaySaga => "same trace under saga:5%:fgs-hb: overwrite-clock triggers, 402 collections instead of 252, exercises the core estimator; a change that helps one cadence and hurts the other shows",
            Workload::ServeInproc => "engine::serve, 2 sessions on 2 shards, batch 8, saio:10%: a served store's engine work with no wire; isolates the mutex/condvar handshake and background GC worker",
            Workload::NetLockstep => "loopback NetServer, 1 shard, 1 connection, one 8-op turn in flight: latency-bound, a turn is almost all syscalls, wakeups and thread handoff; GC on, so the tail is the GC turn",
            Workload::NetPipelined => "same server, 2 shards, 2 connections from one thread, window 4 kept full, 128-op turns: throughput-bound, large frames, codec and apply dominate; bypasses per-turn latency",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How far a metric's median may worsen before it counts as a
/// regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the baseline's median.
    Share(f64),
    /// An absolute amount, in the metric's own unit.
    Absolute(f64),
}

/// An end-to-end metric's fixed description.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// Defined, and never zero, on every workload. Only these can be
    /// registered in `BENCHMARK.json`, whose contract wants every metric
    /// from every workload; the rest are gated by `compare` on the
    /// workloads they apply to.
    pub every_workload: bool,
}

/// The end-to-end metrics. `setup_s` and `ops_per_s` carry a wider
/// bound than the 20 % and 10 % the issue proposed: on the host this was
/// built on, ten runs at ten seeds spread (quartile to quartile) over up
/// to 6.5 % of their median in `ops_per_s`, and over 16 % while the
/// machine sat in a slow stretch — its speed shifts by that much for
/// tens of seconds at a time, for a fixed instruction stream — and a
/// bound inside the noise rejects changes at random.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Share(0.25),
        every_workload: true,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: Bound::Share(0.25),
        every_workload: true,
    },
    EndToEnd {
        name: "turn_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: Bound::Share(0.10),
        every_workload: false,
    },
    EndToEnd {
        name: "turn_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: Bound::Share(0.15),
        every_workload: false,
    },
    EndToEnd {
        name: "policy_err_pp",
        unit: "pp",
        better: Better::Lower,
        bound: Bound::Absolute(0.05),
        every_workload: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: Bound::Share(0.10),
        every_workload: true,
    },
    EndToEnd {
        name: "failed_ops_pct",
        unit: "%",
        better: Better::Lower,
        bound: Bound::Absolute(0.0),
        every_workload: false,
    },
];

/// Per-layer metrics, `(name, unit, which way is better)`; the layer is
/// the crate named before the dot. Every traced run prints all of them,
/// 0 where the workload gives the layer no work. They have no bound: the
/// counts marked "exact" in the README should not move at all on a
/// change that claims only speed.
pub const PER_LAYER: [(&str, &str, Better); 45] = [
    ("oo7.generate_ms", "ms", Better::Lower),
    ("tracefile.encode_ns_per_event", "ns", Better::Lower),
    ("tracefile.decode_ns_per_event", "ns", Better::Lower),
    ("tracefile.bytes_per_event", "B", Better::Lower),
    ("store.apply_ns_per_event", "ns", Better::Lower),
    ("engine.dispatch_ns_per_event", "ns", Better::Lower),
    ("sim.replay_ns_per_event", "ns", Better::Lower),
    ("gc.collections", "count", Better::Lower),
    ("store.app_io_pages", "count", Better::Lower),
    ("store.gc_io_pages", "count", Better::Lower),
    ("store.db_size_mb", "MiB", Better::Lower),
    ("gc.reclaimed_bytes_per_gc_io", "B", Better::Higher),
    ("core.clamp_hits", "count", Better::Lower),
    ("core.estimator_err_pct", "%", Better::Lower),
    ("core.policy_err_pp", "pp", Better::Lower),
    ("store.buffer_hit_rate", "%", Better::Higher),
    ("gc.collect_ms", "ms", Better::Lower),
    ("gc.pause_p50_us", "us", Better::Lower),
    ("gc.pause_p95_us", "us", Better::Lower),
    ("gc.pause_max_us", "us", Better::Lower),
    ("store.oracle_recompute_ms", "ms", Better::Lower),
    ("engine.gc_wall_share_pct", "%", Better::Lower),
    ("gc.collect_ms_w2", "ms", Better::Lower),
    ("sched.packets", "count", Better::Lower),
    ("sched.steals", "count", Better::Lower),
    ("sched.worker_busy_ms", "ms", Better::Lower),
    ("core.decide_ns", "ns", Better::Lower),
    ("engine.workload_gen_ns_per_op", "ns", Better::Lower),
    ("engine.apply_ops_ns_per_op", "ns", Better::Lower),
    ("engine.sync_ns_per_turn", "ns", Better::Lower),
    ("engine.gc_stall_ms", "ms", Better::Lower),
    ("net.turn_p50_us", "us", Better::Lower),
    ("net.turn_p99_us", "us", Better::Lower),
    ("net.ack_rtt_p50_us", "us", Better::Lower),
    ("net.handoff_us_per_turn", "us", Better::Lower),
    ("net.codec_ns_per_turn", "ns", Better::Lower),
    ("net.bytes_per_op", "B", Better::Lower),
    ("net.wakeups_per_turn", "count", Better::Lower),
    ("net.partial_io", "count", Better::Lower),
    ("net.max_queue_depth", "count", Better::Lower),
    ("net.busy_rejections", "count", Better::Lower),
    ("net.turn_p999_us", "us", Better::Lower),
    ("net.round_p99_us", "us", Better::Lower),
    ("net.warm_ratio", "ratio", Better::Lower),
    ("trace_overhead_pct", "%", Better::Lower),
];

/// One measured metric: the reported value with the quartiles and the
/// sample count behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Metric {
    /// A metric that is a single reading.
    pub fn single(name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// A metric reported as the median of per-rep values.
    pub fn median_of(name: &str, unit: &str, values: &[f64]) -> Metric {
        let (q1, value, q3) = stats::quartiles(values);
        Metric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            value,
            q1,
            q3,
            n: values.len(),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("value", Json::Num(self.value)),
            ("unit", Json::str(&*self.unit)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("n", Json::Num(self.n as f64)),
        ])
    }

    pub fn from_json(name: &str, doc: &Json) -> Option<Metric> {
        let num = |key| doc.get(key).and_then(Json::as_f64);
        Some(Metric {
            name: name.to_owned(),
            unit: doc.get("unit")?.as_str()?.to_owned(),
            value: num("value")?,
            q1: num("q1")?,
            q3: num("q3")?,
            n: num("n")? as usize,
        })
    }
}

fn unit_of_end_to_end(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not an end-to-end metric"))
        .unit
}

/// An end-to-end metric reported as the median of per-rep values.
pub fn end_to_end_median(name: &str, values: &[f64]) -> Metric {
    Metric::median_of(name, unit_of_end_to_end(name), values)
}

/// An end-to-end metric that is a single reading.
pub fn end_to_end(name: &str, value: f64) -> Metric {
    Metric::single(name, unit_of_end_to_end(name), value)
}
