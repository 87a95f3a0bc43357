//! The three workloads: their inputs, generated from the seed, and how
//! each drives the program. README.md says why each was chosen.

use crate::engine::{self, EngineSpec};
use crate::pipeline::{self, Deployment};
use crate::trace::Tracer;
use crate::workload::{Input, Rep};
use msa_core::{AttrSet, DriftKind, DriftPlan};
use msa_stream::{PacketTraceBuilder, TraceProfile, UniformStreamBuilder, ZipfStreamBuilder};

/// The paper's Fig. 14 query set.
const QUERIES: [&str; 4] = ["AB", "BC", "BD", "CD"];

fn queries() -> Vec<AttrSet> {
    QUERIES
        .iter()
        .map(|q| AttrSet::parse_checked(q).expect("constant query names parse"))
        .collect()
}

/// `trace_ingest`: the calibrated packet trace, four times the paper's
/// length at the paper's group counts and packet rate.
const TRACE_LENGTH: f64 = 4.0;
const TRACE_EPOCH_MICROS: u64 = 1_000_000;
const TRACE: Deployment = Deployment {
    // Paper-scale M (Fig. 14 sweeps 20k–100k words).
    m_words: 40_000.0,
    durable: false,
    stats_prefix: 200_000,
};

/// `epochs_durable`: 200 one-second epochs over a uniform stream.
const DURABLE_EPOCHS: usize = 200;
const DURABLE_RECORDS_PER_EPOCH: usize = 1_000;
const DURABLE_GROUPS: usize = 300;
const DURABLE: Deployment = Deployment {
    m_words: 20_000.0,
    durable: true,
    stats_prefix: 20_000,
};

/// `drift_push`: seeded episodes a run takes turns on. Each episode's
/// replans leave it on plans of its own, and a close costs what its plan
/// costs, so one episode's percentiles jump with the plans it lands on;
/// several episodes per run average that out.
const DRIFT_EPISODES: u64 = 8;
/// `drift_push`: enough short epochs that the few replanning
/// boundaries sit beyond the p95 of close latency.
const DRIFT_EPOCHS: u64 = 256;
const DRIFT_EPOCH_MICROS: u64 = 250_000;
const DRIFT_RECORDS_PER_EPOCH: usize = 2_500;
const DRIFT_GROUPS: usize = 2_000;
const DRIFT_ZIPF: f64 = 1.1;
/// Attribute E, summed.
const DRIFT_VALUE_ATTR: u8 = 4;
const DRIFT: EngineSpec = EngineSpec {
    m_words: 20_000.0,
    stats_prefix: 20_000,
    // About twice the costliest epoch of these episodes on seeds 1–10
    // and 101–110 (134k–143k `c1`, see README.md): the guard is armed
    // but never trips.
    peak_budget: 300_000.0,
};

/// A workload the benchmark can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The packet trace through one serial shard.
    TraceIngest,
    /// One shard checkpointing every epoch into a store.
    EpochsDurable,
    /// Per-record pushes into the adaptive engine under drift.
    DriftPush,
}

/// Command-line names.
pub const NAMES: [(&str, Workload); 3] = [
    ("trace_ingest", Workload::TraceIngest),
    ("epochs_durable", Workload::EpochsDurable),
    ("drift_push", Workload::DriftPush),
];

impl Workload {
    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        NAMES.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        NAMES
            .iter()
            .find(|(_, w)| *w == self)
            .map_or("unknown", |(n, _)| n)
    }

    /// Whether the workload drives `MultiAggregator` (closing epochs
    /// with boundary pushes) rather than `ShardedExecutor`.
    pub fn is_engine(self) -> bool {
        self == Workload::DriftPush
    }

    /// Threads the workload runs: only the caller's, on which the one
    /// shard runs.
    pub fn threads(self) -> usize {
        pipeline::SHARDS
    }

    /// Generates the workload's inputs from `seed`: one, or one per
    /// episode on `drift_push`. A run's repetitions take turns on them.
    pub fn prepare(self, seed: u64) -> Vec<Input> {
        match self {
            Workload::TraceIngest => {
                let paper = TraceProfile::paper();
                let profile = TraceProfile {
                    records: (paper.records as f64 * TRACE_LENGTH) as usize,
                    duration_secs: paper.duration_secs * TRACE_LENGTH,
                    ..paper
                };
                let stream = PacketTraceBuilder::new(profile).seed(seed).build();
                vec![Input::new(
                    stream.records,
                    TRACE_EPOCH_MICROS,
                    queries(),
                    None,
                    seed,
                )]
            }
            Workload::EpochsDurable => {
                let stream = UniformStreamBuilder::new(4, DURABLE_GROUPS)
                    .records(DURABLE_RECORDS_PER_EPOCH * DURABLE_EPOCHS)
                    .duration_secs(DURABLE_EPOCHS as f64)
                    .seed(seed)
                    .build();
                vec![Input::new(stream.records, 1_000_000, queries(), None, seed)]
            }
            Workload::DriftPush => (0..DRIFT_EPISODES)
                .map(|k| drift_episode(seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))))
                .collect(),
        }
    }

    /// One repetition, traced when a tracer is given.
    pub fn run(self, input: &Input, tracer: Option<&mut Tracer>) -> Rep {
        match self {
            Workload::TraceIngest => pipeline::run(TRACE, input, tracer),
            Workload::EpochsDurable => pipeline::run(DURABLE, input, tracer),
            Workload::DriftPush => engine::run(DRIFT, input, tracer),
        }
    }
}

/// One `drift_push` episode: a Zipf stream whose hot set migrates over
/// its second quarter.
fn drift_episode(seed: u64) -> Input {
    let epoch_micros = DRIFT_EPOCH_MICROS;
    let stream = ZipfStreamBuilder::new(5, DRIFT_GROUPS, DRIFT_ZIPF)
        .records(DRIFT_RECORDS_PER_EPOCH * DRIFT_EPOCHS as usize)
        .duration_secs(DRIFT_EPOCHS as f64 * epoch_micros as f64 / 1e6)
        .seed(seed)
        .build();
    let drift = DriftPlan::new(
        seed,
        DriftKind::HotspotMigration {
            share_pct: 50,
            period_epochs: 8,
        },
        DRIFT_EPOCHS / 4,
        DRIFT_EPOCHS / 4,
    );
    let records = drift.apply_to_stream(&stream.records, epoch_micros);
    Input::new(
        records,
        epoch_micros,
        queries(),
        Some(DRIFT_VALUE_ATTR),
        seed,
    )
}
