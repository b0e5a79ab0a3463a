//! The three closed-loop TPC-C workloads.
//!
//! Each one loads a different set of layers; `README.md` beside this
//! package records why each was chosen. All three export a telemetry
//! timeline (its hash is part of the determinism fingerprint) and end with
//! at least one completed rebalance, so every end-to-end metric is defined
//! on every workload.

use wattdb_common::{CostParams, NodeId, SimDuration, SimTime};
use wattdb_core::api::WattDb;
use wattdb_core::cluster::Scheme;
use wattdb_core::ClientBatching;
use wattdb_energy::PhaseSpan;
use wattdb_query::AggFunc;
use wattdb_tpcc::{DiurnalConfig, LoadTrace, TenantSpec, TpccConfig, TpccTable};

use crate::measure::Run;

/// Sim-time between counter snapshots: every `run_for` slice lasts this.
pub const SLICE: SimDuration = SimDuration::from_secs(1);
/// Longest a rebalance may run after its launch before the run gives up
/// waiting (the output check then reports it as incomplete).
const REBALANCE_LIMIT_SLICES: u32 = 300;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OltpSteady,
    DiurnalElastic,
    SkewScaleout,
}

/// `oltp-steady`: steady pooled OLTP, then one scale-out under that load.
const STEADY_SECS: u32 = 240;
const STEADY_CLIENTS: u32 = 100_000;
const STEADY_THINK: SimDuration = SimDuration::from_secs(10);

/// `diurnal-elastic`: one sine day per `DIURNAL_PERIOD`, two days, drain.
const DIURNAL_SECS: u32 = 240;
const DIURNAL_DRAIN_SECS: u32 = 5;
const DIURNAL_PERIOD: SimDuration = SimDuration::from_secs(120);
const DIURNAL_THINK: SimDuration = SimDuration::from_secs(2);

/// `skew-scaleout`: skewed per-client OLTP, a scan every 3 s, and a
/// planned scale-out at 60 s.
const SKEW_SECS: u32 = 180;
const SKEW_CLIENTS: u32 = 64;
const SKEW_THINK: SimDuration = SimDuration::from_millis(50);
const SKEW_HOT_FRACTION: f64 = 0.8;
const SKEW_HOT_WAREHOUSES: u32 = 2;
const SKEW_SCAN_EVERY: u32 = 3;
const SKEW_SCALE_OUT_AT: u32 = 60;

const WAREHOUSES: u32 = 8;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::OltpSteady,
        Workload::DiurnalElastic,
        Workload::SkewScaleout,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpSteady => "oltp-steady",
            Workload::DiurnalElastic => "diurnal-elastic",
            Workload::SkewScaleout => "skew-scaleout",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `WattDbBuilder::build`: configure the deployment and load TPC-C.
    pub fn build(self, seed: u64) -> WattDb {
        match self {
            Workload::OltpSteady => WattDb::builder()
                .nodes(6)
                .scheme(Scheme::Physiological)
                .warehouses(WAREHOUSES)
                .density(0.05)
                .segment_pages(16)
                .seed(seed)
                .initial_data_nodes(&nodes(0..3))
                .client_batching(ClientBatching::Pooled)
                .telemetry(true)
                .build(),
            Workload::DiurnalElastic => WattDb::builder()
                .nodes(4)
                .scheme(Scheme::Physiological)
                .warehouses(WAREHOUSES)
                .density(0.02)
                .segment_pages(8)
                .costs(heavy_costs())
                .seed(seed)
                .initial_data_nodes(&nodes(0..2))
                .client_batching(ClientBatching::Pooled)
                .monitoring(SimDuration::from_secs(5))
                .autopilot(true)
                .telemetry(true)
                .build(),
            Workload::SkewScaleout => {
                let tpcc = TpccConfig {
                    warehouses: WAREHOUSES,
                    density: 0.05,
                    ..TpccConfig::default()
                };
                // Room for the whole dataset on every node, with slack for
                // partly filled pages and the versions the run adds, so
                // nothing is ever evicted (checked).
                let frames = 16 * tpcc.logical_dataset_bytes() as usize / 8192;
                WattDb::builder()
                    .nodes(6)
                    .scheme(Scheme::Physiological)
                    .warehouses(WAREHOUSES)
                    .density(0.05)
                    .segment_pages(16)
                    .io_scale(50)
                    .replication(1)
                    .buffer_pages(frames)
                    .seed(seed)
                    .initial_data_nodes(&nodes(0..2))
                    .client_batching(ClientBatching::PerClient)
                    .telemetry(true)
                    .build()
            }
        }
    }

    /// `start_*`: spawn the closed-loop clients.
    pub fn start(self, db: &mut WattDb) {
        match self {
            Workload::OltpSteady => db.start_oltp(STEADY_CLIENTS, STEADY_THINK),
            Workload::DiurnalElastic => db.start_traced_oltp(diurnal_trace(), DIURNAL_THINK),
            Workload::SkewScaleout => db.start_oltp_skewed(
                SKEW_CLIENTS,
                SKEW_THINK,
                SKEW_HOT_FRACTION,
                SKEW_HOT_WAREHOUSES,
            ),
        }
    }

    /// Slices of the main horizon over which `sim.slice_growth` compares
    /// the first and last tenth.
    pub fn main_slices(self) -> u32 {
        match self {
            Workload::OltpSteady => STEADY_SECS,
            Workload::DiurnalElastic => DIURNAL_SECS,
            Workload::SkewScaleout => SKEW_SECS,
        }
    }

    /// Drive the started deployment through the whole workload.
    pub fn drive(self, db: &mut WattDb, run: &mut Run) {
        match self {
            Workload::OltpSteady => {
                for _ in 0..STEADY_SECS {
                    run.slice(db);
                }
                // Scale out once the long history has built up.
                run.scale_out(db, &nodes(0..3), &nodes(3..6));
                run.await_rebalance(db, REBALANCE_LIMIT_SLICES);
            }
            Workload::DiurnalElastic => {
                for _ in 0..DIURNAL_SECS {
                    run.slice(db);
                }
                db.stop_clients();
                for _ in 0..DIURNAL_DRAIN_SECS {
                    run.slice(db);
                }
            }
            Workload::SkewScaleout => {
                let order_line = TpccTable::OrderLine.table_id();
                for s in 1..=SKEW_SECS {
                    run.slice(db);
                    if s % SKEW_SCAN_EVERY == 0 {
                        // Rotate over the warehouses: hot and cold, both
                        // data nodes, before and after the move.
                        let wh = (s / SKEW_SCAN_EVERY) % WAREHOUSES;
                        run.scan(
                            db,
                            order_line,
                            wattdb_tpcc::warehouse_range(wh, wh + 1),
                            AggFunc::Sum,
                        );
                    }
                    if s == SKEW_SCALE_OUT_AT {
                        run.scale_out(db, &nodes(0..2), &nodes(2..4));
                    }
                }
                run.await_rebalance(db, REBALANCE_LIMIT_SLICES);
            }
        }
    }

    /// Trace phases for the scorecard's per-phase table (empty when the
    /// offered load is flat).
    pub fn phases(self) -> Vec<PhaseSpan> {
        match self {
            Workload::DiurnalElastic => diurnal_trace()
                .phase_spans()
                .into_iter()
                .map(|(label, start, end)| {
                    PhaseSpan::new(label, SimTime::ZERO + start, SimTime::ZERO + end)
                })
                .collect(),
            _ => Vec::new(),
        }
    }
}

fn nodes(ids: std::ops::Range<u16>) -> Vec<NodeId> {
    ids.map(NodeId).collect()
}

/// The diurnal trace of the energy scorecard: 40 → 800 modeled clients.
fn diurnal_trace() -> LoadTrace {
    LoadTrace::diurnal(DiurnalConfig {
        min_clients: 40,
        max_clients: 800,
        period: DIURNAL_PERIOD,
        phase: 0.0,
        step: SimDuration::from_secs(5),
        horizon: SimDuration::from_secs(DIURNAL_SECS as u64),
        tenant: TenantSpec::default(),
    })
}

/// ×40 per-operation CPU, as in the energy scorecard, so the diurnal peak
/// saturates two nodes and the CPU-threshold policy has a signal.
fn heavy_costs() -> CostParams {
    let mut costs = CostParams::default();
    costs.index_node_visit = costs.index_node_visit * 40;
    costs.record_read = costs.record_read * 40;
    costs.record_write = costs.record_write * 40;
    costs.log_append = costs.log_append * 40;
    costs.buffer_hit = costs.buffer_hit * 40;
    costs
}
