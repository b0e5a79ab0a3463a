//! One measured run of a workload: the calls into each crate (timed, and
//! recorded as spans when tracing), counter snapshots at every `run_for`
//! slice boundary, and the metrics read out at the end.

use std::time::Instant;

use wattdb_common::{KeyRange, NodeId, TableId};
use wattdb_core::api::WattDb;
use wattdb_core::{Decision, Outcome, Phase};
use wattdb_energy::Scorecard;
use wattdb_query::AggFunc;
use wattdb_sim::CostCategory;

use crate::host;
use crate::latency;
use crate::spans::Spans;
use crate::workload::{Workload, SLICE};

/// Slices between response-histogram snapshots: the monitoring period, at
/// which the telemetry timeline exports `txn.response_ms.p95`.
const SNAPSHOT_SLICES: u32 = 5;
/// A snapshot's p95 counts only with at least 500 samples above it. With
/// fewer, the warm-up of `oltp-steady` (cold buffer pool) set the ceiling
/// on some seeds and not on others: 124–166 ms over ten seeds.
const MIN_SAMPLES: u64 = 10_000;

/// Counters at a `run_for` slice boundary.
struct SliceSnapshot {
    sim_s: f64,
    host_s: f64,
    events: u64,
    committed: u64,
}

struct PlanRecord {
    plan_s: f64,
    launch_s: f64,
    moves: usize,
    bytes: u64,
    max_heat_ratio: f64,
}

/// A metric as printed: name, value, unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Everything one run yields.
pub struct RunResult {
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub fingerprint: Fingerprint,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    pub samples: u64,
    /// One JSON line per slice boundary.
    pub slices_jsonl: String,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub events: u64,
    pub commits: u64,
    pub timeline_fnv64: u64,
}

pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

pub struct Run {
    spans: Spans,
    /// Host clocks at the start of the measured run.
    started: Instant,
    started_cpu_s: f64,
    started_wait_s: f64,
    slices: Vec<SliceSnapshot>,
    /// Cumulative response-histogram counts, every `SNAPSHOT_SLICES`.
    snapshots: Vec<Vec<u64>>,
    plans: Vec<PlanRecord>,
    scans: Vec<(f64, usize)>,
    build_s: f64,
    start_s: f64,
}

impl Run {
    /// Set up the workload (`build`, then `start_*`) inside a new root
    /// span; the measured run begins when this returns.
    pub fn setup(mut spans: Spans, workload: Workload, seed: u64) -> (Self, WattDb) {
        spans.open("workload");
        let cpu0 = host::cpu_s();
        let (mut db, _) = spans.time("build", || workload.build(seed));
        let cpu1 = host::cpu_s();
        spans.time("start", || workload.start(&mut db));
        let (build_s, start_s) = (cpu1 - cpu0, host::cpu_s() - cpu1);
        let run = Self {
            spans,
            started: Instant::now(),
            started_cpu_s: host::cpu_s(),
            started_wait_s: host::wait_s(),
            slices: Vec::new(),
            snapshots: Vec::new(),
            plans: Vec::new(),
            scans: Vec::new(),
            build_s,
            start_s,
        };
        (run, db)
    }

    /// Advance one slice and snapshot the counters at its boundary.
    pub fn slice(&mut self, db: &mut WattDb) {
        self.spans.time("run_for", || db.run_for(SLICE));
        self.slices.push(SliceSnapshot {
            sim_s: db.now().as_secs_f64(),
            host_s: host::cpu_s() - self.started_cpu_s,
            events: db.events_executed(),
            committed: db.completed(),
        });
        if (self.slices.len() as u32).is_multiple_of(SNAPSHOT_SLICES) {
            let cdf = db.with_cluster(|c| latency::cumulative(&c.metrics.response_hist));
            self.snapshots.push(cdf);
        }
    }

    /// Plan a heat-aware scale-out and launch it.
    pub fn scale_out(&mut self, db: &mut WattDb, sources: &[NodeId], targets: &[NodeId]) {
        let (plan, plan_s) = self
            .spans
            .time("plan_scale_out", || db.plan_scale_out(sources, targets));
        let ((), launch_s) = self
            .spans
            .time("rebalance_planned", || db.rebalance_planned(&plan, targets));
        let initial = plan.initial_max_heat;
        self.plans.push(PlanRecord {
            plan_s,
            launch_s,
            moves: plan.moves.len(),
            bytes: plan.bytes_planned,
            max_heat_ratio: if initial > 0.0 {
                plan.predicted_max_heat() / initial
            } else {
                0.0
            },
        });
    }

    /// Keep slicing until no rebalance is in flight, at most `limit` slices.
    pub fn await_rebalance(&mut self, db: &mut WattDb, limit: u32) {
        for _ in 0..limit {
            if !db.rebalancing() {
                return;
            }
            self.slice(db);
        }
    }

    pub fn scan(&mut self, db: &mut WattDb, table: TableId, range: KeyRange, agg: AggFunc) {
        let (report, secs) = self.spans.time("scan", || db.scan(table, range, Some(agg)));
        self.scans.push((secs, report.segments));
    }

    /// Close the measured run and read out every metric. `setup_s` is this
    /// run's own set-up; `run.py` reports the median over it and batches
    /// of set-ups timed in processes of their own.
    pub fn finish(mut self, db: &WattDb, workload: Workload) -> (RunResult, Spans) {
        let host_s = host::cpu_s() - self.started_cpu_s;
        let wait_s = host::wait_s() - self.started_wait_s;
        let wall_s = self.started.elapsed().as_secs_f64();
        let (export, export_s) = self
            .spans
            .time("export_timeline_string", || db.export_timeline_string());
        let (card, score_s) = self.spans.time("score_jsonl", || {
            wattdb_energy::score_jsonl(&export, &workload.phases(), db.rated_peak_watts())
        });
        // Walking every version chain is a full scan of the store: traced
        // runs only.
        let dead_versions = if self.spans.enabled() {
            let ((versions, live), _) = self
                .spans
                .time("version_stats", || db.with_cluster(|c| c.version_stats()));
            Some(versions.saturating_sub(live))
        } else {
            None
        };
        self.spans.close();

        let sim_s = db.now().as_secs_f64();
        let fingerprint = Fingerprint {
            events: db.events_executed(),
            commits: db.with_cluster(|c| c.metrics.response_hist.count()),
            timeline_fnv64: fnv64(export.as_bytes()),
        };
        let mut checks = Vec::new();
        let card = match card {
            Ok(card) => Some(card),
            Err(e) => {
                checks.push(Check {
                    name: "timeline_scores",
                    ok: false,
                    detail: format!("export does not parse: {e:?}"),
                });
                None
            }
        };
        let view = db.with_cluster(|c| View::read(db, c));

        let committed = view.committed as f64;
        // Rebalances that resize the cluster: every one but the autopilot's
        // heat-skew rebalances in place. Those fire on about 40 % of seeds
        // of diurnal-elastic (one of 16–22 s), which made the sum bimodal;
        // they are reported per layer.
        let secs = |in_place: bool| {
            view.rebalances
                .iter()
                .filter(|r| r.in_place == in_place)
                .fold(0.0, |a, r| a + r.secs)
        };
        let moved_bytes: u64 = view
            .rebalances
            .iter()
            .filter(|r| !r.in_place)
            .map(|r| r.bytes)
            .sum();
        let attempts = view.physical + view.aborted;
        // Client requests: each commits, is still in flight at the end, or
        // was given up after its retries (an aborted attempt is retried
        // with the same operations, and its response time runs on).
        let given_up = view
            .requests
            .checked_sub(view.physical + view.in_flight)
            .unwrap_or(u64::MAX);
        // The scorecard's `p95_ceiling_ms`: the highest p95 the run's
        // histogram showed at any window close, interpolated instead of
        // read at the bucket bound.
        let worst_p95 = self
            .snapshots
            .iter()
            .filter(|cdf| cdf.last().copied().unwrap_or(0) >= MIN_SAMPLES)
            .map(|cdf| latency::quantile_ms(cdf, 0.95))
            .fold(0.0, f64::max);
        let e2e = vec![
            metric("setup_s", self.build_s + self.start_s, "s"),
            metric("wall_per_sim_s", host_s / sim_s, "s/s"),
            metric("txn_per_wall_s", committed / host_s, "1/s"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
            metric("committed_tps", committed / sim_s, "1/s"),
            metric("resp_p50_ms", latency::quantile_ms(&view.cdf, 0.50), "ms"),
            metric("resp_p99_ms", latency::quantile_ms(&view.cdf, 0.99), "ms"),
            metric("resp_mean_ms", view.mean_ms, "ms"),
            metric(
                "wh_per_ktxn",
                ratio(view.joules / 3600.0, committed / 1000.0),
                "Wh",
            ),
            metric("mean_watts", view.joules / sim_s, "W"),
            metric(
                "proportionality",
                card.as_ref().map_or(0.0, |c| c.proportionality_rated),
                "ratio",
            ),
            metric("worst_window_p95_ms", worst_p95, "ms"),
            metric("rebalance_s", secs(false), "s"),
            metric("moved_mb", moved_bytes as f64 / 1e6, "MB"),
        ];

        let plans = |f: fn(&PlanRecord) -> f64| self.plans.iter().fold(0.0, |a, p| a + f(p));
        let scan_s = self.scans.iter().fold(0.0, |a, s| a + s.0);
        let commits = view.txn_commits as f64;
        let mut l = vec![
            metric("sim.events", view.events as f64, "count"),
            metric(
                "sim.host_us_per_event",
                ratio(host_s * 1e6, view.events as f64),
                "us",
            ),
            metric(
                "sim.slice_growth",
                self.slice_growth(workload.main_slices() as usize),
                "ratio",
            ),
            metric("sim.cpu_busy_s", view.cpu_busy_us as f64 / 1e6, "s"),
            metric("sim.cpu_wait_s", view.cpu_wait_us as f64 / 1e6, "s"),
            metric("sim.cpu_max_queue", view.cpu_max_queue as f64, "count"),
            // wall clock and CPU wait beside the on-CPU host time above
            metric("host.wall_s", wall_s, "s"),
            metric("host.cpu_s", host_s, "s"),
            metric("host.runqueue_wait_s", wait_s, "s"),
            metric("storage.load_ms", self.build_s * 1e3, "ms"),
            metric("storage.buffer_hit_ratio", view.buffer_hit_ratio, "ratio"),
            metric("storage.buffer_misses", view.buffer_misses as f64, "count"),
            metric("storage.evictions", view.evictions as f64, "count"),
            metric("storage.disk_reads", view.disk_reads as f64, "count"),
            metric("storage.disk_writes", view.disk_writes as f64, "count"),
            metric("storage.disk_wait_s", view.disk_wait_us as f64 / 1e6, "s"),
            metric("txn.lock_waits", view.lock_waits as f64, "count"),
            metric("txn.deadlocks", view.deadlocks as f64, "count"),
            metric(
                "txn.dead_versions",
                dead_versions.unwrap_or(0) as f64,
                "count",
            ),
            metric("txn.response_samples", view.physical as f64, "count"),
            metric("txn.aborts", view.aborted as f64, "count"),
            // Aborts ÷ attempts, both physical (not the weighted
            // `completed`). Per layer, not end to end: the workloads abort
            // 0–4 of 30 000+ attempts, so the share is often 0 and swings
            // without bound.
            metric(
                "txn.failed_share",
                ratio(view.aborted as f64, attempts as f64),
                "ratio",
            ),
            metric("wal.flushes", view.wal_flushes as f64, "count"),
            metric(
                "wal.commits_per_flush",
                ratio(commits, view.wal_flushes as f64),
                "ratio",
            ),
            metric(
                "wal.bytes_per_commit",
                ratio(view.wal_bytes as f64, commits),
                "B",
            ),
            metric("wal.records_retained", view.wal_records as f64, "count"),
            metric("net.tx_bytes", view.net_tx_bytes as f64, "B"),
            metric("net.tx_messages", view.net_tx_messages as f64, "count"),
            metric("net.wait_s", view.net_wait_us as f64 / 1e6, "s"),
            metric("replica.reads", view.replica_reads as f64, "count"),
            metric(
                "replica.read_share",
                ratio(view.replica_reads as f64, view.replica_read_total as f64),
                "ratio",
            ),
            metric(
                "replica.shipped_per_wal_byte",
                ratio(view.replica_shipped as f64, view.wal_bytes as f64),
                "ratio",
            ),
            // the benchmark's own scale-outs
            metric("planner.plan_us", plans(|p| p.plan_s) * 1e6, "us"),
            metric("planner.bytes_planned", plans(|p| p.bytes as f64), "B"),
            metric(
                "planner.max_heat_ratio",
                self.plans.first().map_or(0.0, |p| p.max_heat_ratio),
                "ratio",
            ),
            metric("migration.launch_us", plans(|p| p.launch_s) * 1e6, "us"),
            metric(
                "migration.segments_moved",
                view.segments_moved as f64,
                "count",
            ),
            metric(
                "migration.heat_moved_ratio",
                ratio(view.heat_moved, view.heat_planned),
                "ratio",
            ),
            metric("autopilot.scale_outs", view.scale_outs as f64, "count"),
            metric("autopilot.scale_ins", view.scale_ins as f64, "count"),
            metric(
                "autopilot.rebalances",
                view.autopilot_rebalances as f64,
                "count",
            ),
            metric("autopilot.rebalance_s", secs(true), "s"),
            metric("query.scans", self.scans.len() as f64, "count"),
            metric(
                "query.scan_ms",
                ratio(scan_s * 1e3, self.scans.len() as f64),
                "ms",
            ),
            metric("telemetry.export_ms", export_s * 1e3, "ms"),
            metric("telemetry.export_bytes", export.len() as f64, "B"),
            metric("energy.score_ms", score_s * 1e3, "ms"),
            metric(
                "energy.scorecard_p95_ceiling_ms",
                card.as_ref().map_or(0.0, |c| c.p95_ceiling_ms),
                "ms",
            ),
            metric(
                "energy.windows",
                card.as_ref().map_or(0.0, |c| c.windows as f64),
                "count",
            ),
        ];
        // modeled cause of response time, per phase
        for (phase, label) in [
            (Phase::Normal, "normal"),
            (Phase::Rebalancing, "rebalancing"),
        ] {
            let profile = db.with_cluster(|c| c.metrics.mean_profile(phase));
            for (cat, short) in CAUSES {
                let ms = profile.map_or(0.0, |p| p.get(cat).as_millis_f64());
                l.push(metric(format!("profile.{label}.{short}_ms"), ms, "ms"));
            }
        }

        checks.extend(self.checks(&view, workload, card.as_ref(), given_up));
        let result = RunResult {
            e2e,
            layers: l,
            fingerprint,
            checks,
            attempted: view.physical.saturating_add(given_up),
            failed: given_up,
            samples: view.physical,
            slices_jsonl: self
                .slices
                .iter()
                .map(|s| {
                    format!(
                        "{{\"sim_s\": {}, \"host_s\": {:.6}, \"events\": {}, \"committed\": {}}}\n",
                        s.sim_s, s.host_s, s.events, s.committed
                    )
                })
                .collect(),
        };
        (result, self.spans)
    }

    /// Host s per sim-s over the last tenth of the main horizon ÷ the first.
    fn slice_growth(&self, main: usize) -> f64 {
        let tenth = (main / 10).max(1);
        if self.slices.len() < main || main < 2 * tenth {
            return 0.0;
        }
        let host_at = |i: usize| {
            if i == 0 {
                0.0
            } else {
                self.slices[i - 1].host_s
            }
        };
        let first = host_at(tenth) - host_at(0);
        let last = host_at(main) - host_at(main - tenth);
        if first > 0.0 {
            last / first
        } else {
            0.0
        }
    }

    fn checks(
        &self,
        view: &View,
        workload: Workload,
        card: Option<&Scorecard>,
        given_up: u64,
    ) -> Vec<Check> {
        let mut out = vec![
            Check {
                name: "commits",
                ok: view.committed > 0 && view.physical > 0,
                detail: format!("{} modeled, {} physical", view.committed, view.physical),
            },
            Check {
                name: "failed_share_units",
                // `failed_share` counts physical transactions. Check both
                // counts against the txn layer's own: it commits every
                // physical transaction plus one system transaction per
                // migrated segment, and aborts every aborted attempt (plus
                // any mover system transaction caught in a deadlock).
                // Per-client runs weigh every commit 1.
                ok: view.physical + view.system_commits == view.txn_commits
                    && view.aborted <= view.txn_aborts
                    && (workload != Workload::SkewScaleout || view.physical == view.committed),
                detail: format!(
                    "{} physical + {} segment commits vs {} txn-layer commits; \
                     {} aborted vs {} txn-layer aborts; {} modeled commits",
                    view.physical,
                    view.system_commits,
                    view.txn_commits,
                    view.aborted,
                    view.txn_aborts,
                    view.committed
                ),
            },
            Check {
                name: "requests_resolve",
                // Every client request created a job: it committed, is in
                // flight, or was given up, which takes at least one abort.
                ok: given_up <= view.aborted,
                detail: format!(
                    "{} requests: {} committed, {} in flight; {} aborted attempts",
                    view.requests, view.physical, view.in_flight, view.aborted
                ),
            },
            Check {
                name: "replica_invariants",
                ok: view.replica_violation.is_none(),
                detail: view
                    .replica_violation
                    .clone()
                    .unwrap_or_else(|| "clean".into()),
            },
            Check {
                name: "rebalance_completes",
                // A rebalance the benchmark launched must finish; one the
                // autopilot starts late in the run may still be in flight.
                ok: !view.rebalances.is_empty() && (self.plans.is_empty() || !view.rebalancing),
                detail: format!(
                    "{} completed, in flight at end: {}",
                    view.rebalances.len(),
                    view.rebalancing
                ),
            },
        ];
        if let Some(card) = card {
            out.push(Check {
                name: "timeline_scores",
                ok: card.windows > 0 && card.committed > 0,
                detail: format!("{} windows, {} committed", card.windows, card.committed),
            });
        }
        if !self.plans.is_empty() {
            // The rebalances launched here move exactly their planned
            // segments (the autopilot launches none on these workloads).
            let planned: usize = self.plans.iter().map(|p| p.moves).sum();
            out.push(Check {
                name: "planned_segments_moved",
                ok: planned > 0 && view.segments_moved == planned as u64,
                detail: format!("{} moved of {planned} planned", view.segments_moved),
            });
        }
        if workload == Workload::SkewScaleout {
            out.push(Check {
                name: "working_set_fits",
                ok: view.evictions == 0,
                detail: format!("{} evictions", view.evictions),
            });
            out.push(Check {
                name: "scans_cover_segments",
                ok: self.scans.iter().all(|s| s.1 > 0),
                detail: format!("{} scans", self.scans.len()),
            });
        }
        out
    }
}

const CAUSES: [(CostCategory, &str); 6] = [
    (CostCategory::Cpu, "cpu"),
    (CostCategory::DiskIo, "disk"),
    (CostCategory::NetworkIo, "net"),
    (CostCategory::Locking, "lock"),
    (CostCategory::Latching, "latch"),
    (CostCategory::Logging, "log"),
];

/// One completed rebalance. `in_place` marks the autopilot's heat-skew
/// rebalances between the nodes already active.
struct Rebalance {
    secs: f64,
    bytes: u64,
    in_place: bool,
}

/// Counters read from the public state of each crate at the end of a run.
struct View {
    events: u64,
    committed: u64,
    physical: u64,
    aborted: u64,
    /// Client requests made (jobs created) and still in flight at the end.
    requests: u64,
    in_flight: u64,
    cdf: Vec<u64>,
    mean_ms: f64,
    joules: f64,
    rebalances: Vec<Rebalance>,
    rebalancing: bool,
    segments_moved: u64,
    heat_planned: f64,
    heat_moved: f64,
    cpu_busy_us: u64,
    cpu_wait_us: u64,
    cpu_max_queue: usize,
    buffer_hit_ratio: f64,
    buffer_misses: u64,
    evictions: u64,
    disk_reads: u64,
    disk_writes: u64,
    disk_wait_us: u64,
    lock_waits: u64,
    deadlocks: u64,
    txn_commits: u64,
    txn_aborts: u64,
    /// Segments migrated so far, finished rebalances and the one in flight:
    /// each commits one system transaction.
    system_commits: u64,
    wal_flushes: u64,
    wal_bytes: u64,
    wal_records: usize,
    net_tx_bytes: u64,
    net_tx_messages: u64,
    net_wait_us: u64,
    replica_reads: u64,
    replica_read_total: u64,
    replica_shipped: u64,
    replica_violation: Option<String>,
    scale_outs: usize,
    scale_ins: usize,
    autopilot_rebalances: usize,
}

impl View {
    fn read(db: &WattDb, c: &wattdb_core::Cluster) -> Self {
        let hist = &c.metrics.response_hist;
        let history = &c.metrics.rebalances;
        let mut buffer = wattdb_storage::BufferStats::default();
        let (mut disk_reads, mut disk_writes, mut disk_wait_us) = (0, 0, 0);
        let (mut cpu_busy_us, mut cpu_wait_us, mut cpu_max_queue) = (0, 0, 0);
        let (mut wal_flushes, mut wal_bytes, mut wal_records) = (0, 0, 0);
        let (mut net_tx_bytes, mut net_tx_messages, mut net_wait_us) = (0, 0, 0);
        for n in &c.nodes {
            let b = n.buffer.stats();
            buffer.hits += b.hits;
            buffer.misses += b.misses;
            buffer.remote_hits += b.remote_hits;
            buffer.evictions += b.evictions;
            for d in &n.disks {
                disk_reads += d.read_count();
                disk_writes += d.write_count();
                disk_wait_us += d.resource().borrow().stats().wait_us;
            }
            let cpu = n.cpu.borrow().stats();
            cpu_busy_us += cpu.service_us;
            cpu_wait_us += cpu.wait_us;
            cpu_max_queue = cpu_max_queue.max(cpu.max_queue);
            wal_flushes += n.log.flush_count();
            wal_bytes += n.log.flushed_bytes();
            wal_records += n.log.len();
            let nic = c.net.stats(n.id);
            net_tx_bytes += nic.tx_bytes;
            net_tx_messages += nic.tx_messages;
            net_wait_us += c.net.tx_resource(n.id).borrow().stats().wait_us
                + c.net.rx_resource(n.id).borrow().stats().wait_us;
        }
        let events = db.events();
        let applied = |pred: fn(&Decision) -> bool| {
            events
                .iter()
                .filter(|e| matches!(e.outcome, Outcome::Applied) && pred(&e.decision))
                .map(|e| e.at)
                .collect::<Vec<_>>()
        };
        let in_place = applied(|d| matches!(d, Decision::Rebalance { .. }));
        Self {
            events: db.events_executed(),
            committed: c.metrics.completed,
            physical: hist.count(),
            aborted: c.metrics.aborted,
            requests: c.next_job - 1,
            in_flight: c.jobs.len() as u64,
            cdf: latency::cumulative(hist),
            mean_ms: hist.mean().as_millis_f64(),
            joules: c.meter.total_energy().0,
            rebalances: history
                .iter()
                .map(|r| Rebalance {
                    secs: r.finished.since(r.started).as_secs_f64(),
                    bytes: r.bytes_moved,
                    in_place: in_place.contains(&r.started),
                })
                .collect(),
            rebalancing: c.mover.is_some(),
            segments_moved: history.iter().map(|r| r.segments_moved).sum(),
            heat_planned: history.iter().fold(0.0, |a, r| a + r.heat_planned),
            heat_moved: history.iter().fold(0.0, |a, r| a + r.heat_moved),
            cpu_busy_us,
            cpu_wait_us,
            cpu_max_queue,
            buffer_hit_ratio: buffer.hit_ratio(),
            buffer_misses: buffer.misses,
            evictions: buffer.evictions,
            disk_reads,
            disk_writes,
            disk_wait_us,
            lock_waits: c.txn.locks.wait_count(),
            deadlocks: c.txn.locks.deadlock_count(),
            txn_commits: c.txn.commit_count(),
            txn_aborts: c.txn.abort_count(),
            system_commits: history.iter().map(|r| r.segments_moved).sum::<u64>()
                + c.mover.as_ref().map_or(0, |m| m.segments_moved),
            wal_flushes,
            wal_bytes,
            wal_records,
            net_tx_bytes,
            net_tx_messages,
            net_wait_us,
            replica_reads: c.replica_reads,
            replica_read_total: c.replica_read_total,
            replica_shipped: c.replica_shipped_bytes(),
            replica_violation: c.check_replica_invariants(),
            scale_outs: applied(|d| matches!(d, Decision::ScaleOut { .. })).len(),
            scale_ins: applied(|d| matches!(d, Decision::ScaleIn { .. })).len(),
            autopilot_rebalances: in_place.len(),
        }
    }
}

/// Peak resident memory of this process (`VmHWM`), in MB (10⁶ bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// FNV-1a, 64 bit: a stable hash of the timeline export.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
