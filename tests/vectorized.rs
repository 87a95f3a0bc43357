//! Differential vectorization battery: the chunked columnar LFTA path
//! versus the per-record reference semantics of [`Executor::process`].
//!
//! The same seeded trace is replayed record by record through
//! `process` and through [`Executor::offer_chunk`] across the matrix
//! {chunk sizes 1/7/64/1024} × {loss, dup, burst faults} × {guard}, and
//! the sharded deployment — whose feed is chunked — is replayed against
//! a per-shard oracle ({shard counts} × {faults} × {guard} × {crash
//! points}): clones of a never-run twin deployment's shards, each fed
//! its partition through `process`, folded the way
//! [`ShardedExecutor::finish`] folds. Every cell must be
//! **bit-identical** to its oracle:
//!
//! * identical [`RunReport`]s (every counter, cost trace and ledger);
//! * identical per-epoch HFTA result lists and per-group totals;
//! * identical guaranteed error-bound reports ([`BoundsReport`]);
//! * identical stored checkpoints: every shard's recovered snapshot and
//!   write-ahead log encode byte-for-byte alike;
//! * identical crash/recovery outcomes when a shard dies mid-chunk.
//!
//! Chunking is pure batching: the executor re-derives epoch boundaries
//! from the timestamp column, so no chunk size, shard count, fault or
//! crash point may shift a single PRNG draw, sequence number or WAL
//! entry. `MSA_SCALE` (0, 1] shrinks the trace and trims the matrix.
//!
//! [`BoundsReport`]: msa_core::BoundsReport

use msa_core::{
    AttrSet, BoundsReport, Burst, CostParams, CrashPlan, EvictionLog, Executor, FaultPlan,
    GuardPolicy, Record, RecordChunk, RunReport, ShardedExecutor, Snapshot, ValueSource,
};
use msa_gigascope::plan::{PhysicalPlan, PlanNode};
use msa_gigascope::Hfta;
use msa_stream::UniformStreamBuilder;

const EPOCH: u64 = 500_000;
const SEED: u64 = 0xC401;
const GUARD_BUDGET: f64 = 3_000.0;
const CHUNK_SIZES: [usize; 4] = [1, 7, 64, 1024];

fn s(x: &str) -> AttrSet {
    AttrSet::parse(x).unwrap()
}

fn scale() -> f64 {
    std::env::var("MSA_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(1.0)
        .clamp(0.01, 1.0)
}

fn shard_counts(scale: f64) -> Vec<usize> {
    if scale < 0.5 {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 4, 8]
    }
}

fn chunk_sizes(scale: f64) -> Vec<usize> {
    if scale < 0.5 {
        vec![1, 7, 1024]
    } else {
        CHUNK_SIZES.to_vec()
    }
}

/// AB phantom feeding A and B query tables (the differential plan).
fn phantom_plan() -> PhysicalPlan {
    PhysicalPlan::new(vec![
        PlanNode {
            attrs: s("AB"),
            parent: None,
            buckets: 64,
            is_query: false,
        },
        PlanNode {
            attrs: s("A"),
            parent: Some(0),
            buckets: 16,
            is_query: true,
        },
        PlanNode {
            attrs: s("B"),
            parent: Some(0),
            buckets: 16,
            is_query: true,
        },
    ])
    .unwrap()
}

fn stream(scale: f64) -> Vec<Record> {
    let records = ((6_000.0 * scale) as usize).max(800);
    UniformStreamBuilder::new(4, 120)
        .records(records)
        .duration_secs(6.0)
        .seed(SEED)
        .build()
        .records
}

fn fault_columns() -> Vec<(&'static str, Option<FaultPlan>)> {
    vec![
        ("no-fault", None),
        (
            "loss",
            Some(FaultPlan::new(0xC4F1).with_eviction_loss(0.10)),
        ),
        (
            "duplication",
            Some(FaultPlan::new(0xC4F2).with_eviction_duplication(0.05)),
        ),
        (
            "burst",
            Some(FaultPlan::new(0xC4F3).with_burst(Burst {
                start_epoch: 2,
                epochs: 2,
                amplification: 3,
                fresh_groups: false,
            })),
        ),
    ]
}

fn disturbed(base: &[Record], faults: &Option<FaultPlan>) -> Vec<Record> {
    match faults {
        Some(f) => f.apply_to_stream(base, EPOCH),
        None => base.to_vec(),
    }
}

fn build_serial(faults: &Option<FaultPlan>, guard_on: bool) -> Executor {
    let mut ex = Executor::new(phantom_plan(), CostParams::paper(), EPOCH, SEED)
        .with_value_source(ValueSource::Attr(2));
    if let Some(f) = faults {
        ex = ex.with_faults(f);
    }
    if guard_on {
        ex = ex.with_guard(GuardPolicy::new(GUARD_BUDGET));
    }
    ex
}

fn build_sharded(
    n: usize,
    faults: &Option<FaultPlan>,
    guard_on: bool,
    durable: bool,
) -> ShardedExecutor {
    let mut sx = ShardedExecutor::new(phantom_plan(), CostParams::paper(), EPOCH, SEED, n)
        .unwrap()
        .with_value_source(ValueSource::Attr(2));
    if let Some(f) = faults {
        sx = sx.with_faults(f);
    }
    if guard_on {
        sx = sx.with_guard(GuardPolicy::new(GUARD_BUDGET));
    }
    if durable {
        sx = sx.with_durability();
    }
    sx
}

/// The per-shard oracle of a deployment: `twin` is built like the
/// deployment under test but never run, so no store is shared. Each of
/// its fresh shards is cloned and fed its partition of `records`
/// record by record through [`Executor::process`].
fn shard_oracles(twin: &ShardedExecutor, records: &[Record]) -> Vec<Executor> {
    twin.partition(records)
        .iter()
        .enumerate()
        .map(|(k, part)| {
            let mut ex = twin.shard(k).clone();
            for r in part {
                ex.process(r);
            }
            ex
        })
        .collect()
}

/// Folds per-shard oracles the way [`ShardedExecutor::finish`] and
/// [`ShardedExecutor::bounds`] fold shards: reports with
/// [`RunReport::merge`], HFTAs with [`Hfta::merge_ordered`], bounds
/// with [`BoundsReport::merge`].
fn fold_oracles(oracles: Vec<Executor>) -> (RunReport, Hfta, BoundsReport) {
    let queries = oracles[0].queries().to_vec();
    let mut bounds = oracles[0].bounds();
    for ex in &oracles[1..] {
        bounds.merge(&ex.bounds());
    }
    if oracles.len() == 1 {
        let ex = oracles.into_iter().next().unwrap();
        let (report, hfta) = ex.finish();
        return (report, hfta, bounds);
    }
    let mut report: Option<RunReport> = None;
    let mut hftas = Vec::new();
    for ex in oracles {
        let (r, h) = ex.finish();
        match &mut report {
            Some(acc) => acc.merge(&r),
            None => report = Some(r),
        }
        hftas.push(h);
    }
    (
        report.unwrap(),
        Hfta::merge_ordered(queries, &hftas),
        bounds,
    )
}

/// Shard `k`'s stored checkpoint: the newest snapshot and its
/// write-ahead log, as a crash would leave them.
fn stored_artifacts(sx: &ShardedExecutor, k: usize) -> (Snapshot, EvictionLog) {
    executor_artifacts(sx.shard(k))
}

/// [`stored_artifacts`] of a single executor.
fn executor_artifacts(ex: &Executor) -> (Snapshot, EvictionLog) {
    let artifacts = ex
        .store_handle()
        .expect("a durable shard has a store")
        .recover_artifacts()
        .expect("the in-memory store reads back")
        .expect("every shard commits a genesis checkpoint");
    (artifacts.snapshot, artifacts.log)
}

/// Everything a cell can observe from a finished serial executor.
fn finish_serial(ex: Executor) -> (RunReport, Hfta, BoundsReport) {
    let bounds = ex.bounds();
    let (report, hfta) = ex.finish();
    (report, hfta, bounds)
}

/// Serial cells: {chunk size} × {fault} × {guard}, chunked through
/// [`Executor::offer_chunk`] versus the per-record oracle.
#[test]
fn serial_chunked_matches_scalar_oracle_bit_for_bit() {
    let scale = scale();
    let base = stream(scale);
    for (fname, faults) in fault_columns() {
        let records = disturbed(&base, &faults);
        for guard_on in [false, true] {
            let mut oracle = build_serial(&faults, guard_on);
            for r in &records {
                oracle.process(r);
            }
            let (want_report, want_hfta, want_bounds) = finish_serial(oracle);
            for &size in &chunk_sizes(scale) {
                let label = format!("chunk={size}/{fname}/guard={guard_on}");
                let mut chunked = build_serial(&faults, guard_on);
                for batch in records.chunks(size) {
                    chunked.offer_chunk(&RecordChunk::from_records(batch));
                }
                let (got_report, got_hfta, got_bounds) = finish_serial(chunked);
                assert_eq!(got_report, want_report, "{label}: report");
                assert_eq!(got_hfta.results(), want_hfta.results(), "{label}: results");
                assert_eq!(got_bounds, want_bounds, "{label}: bounds");
            }
        }
    }
}

/// Chunk boundaries may land anywhere — including mid-epoch. Feeding
/// the whole trace as one giant chunk exercises multi-epoch segmenting
/// inside a single `offer_chunk` call.
#[test]
fn one_giant_chunk_spans_every_epoch_boundary() {
    let base = stream(scale());
    let mut oracle = build_serial(&None, false);
    for r in &base {
        oracle.process(r);
    }
    let (want_report, want_hfta, _) = finish_serial(oracle);
    let mut chunked = build_serial(&None, false);
    chunked.offer_chunk(&RecordChunk::from_records(&base));
    let (got_report, got_hfta, _) = finish_serial(chunked);
    assert_eq!(got_report, want_report);
    assert_eq!(got_hfta.results(), want_hfta.results());
}

/// Sharded cells: {shards} × {fault} × {guard}. The deployment's
/// feed (batched partitioning, chunk ranges offered under
/// supervision) must merge to the exact outputs of the
/// per-shard oracle, and two threaded runs must agree bit-for-bit with
/// each other.
#[test]
fn sharded_chunked_matches_scalar_feed_across_matrix() {
    let scale = scale();
    let base = stream(scale);
    for (fname, faults) in fault_columns() {
        let records = disturbed(&base, &faults);
        for guard_on in [false, true] {
            for &n in &shard_counts(scale) {
                let label = format!("{n} shards/{fname}/guard={guard_on}");
                let twin = build_sharded(n, &faults, guard_on, false);
                let (want_report, want_hfta, want_bounds) =
                    fold_oracles(shard_oracles(&twin, &records));
                let run = || {
                    let mut sx = build_sharded(n, &faults, guard_on, false);
                    sx.run(&records);
                    let bounds = sx.bounds();
                    let (report, hfta) = sx.finish();
                    (report, hfta, bounds)
                };
                let (r1, h1, b1) = run();
                let (r2, h2, b2) = run();
                assert_eq!(r1, r2, "{label}: two threaded runs");
                assert_eq!(h1.results(), h2.results(), "{label}: two threaded runs");
                assert_eq!(b1, b2, "{label}: two threaded runs");
                assert_eq!(r1, want_report, "{label}: report vs per-shard oracle");
                assert_eq!(h1.results(), want_hfta.results(), "{label}: results");
                assert_eq!(b1, want_bounds, "{label}: bounds vs per-shard oracle");
            }
        }
    }
}

/// Crash cells: a shard dies at an armed point while fed chunked; its
/// durable artifacts must be byte-identical to the per-shard oracle's
/// crash run, and the recovered outputs to the no-crash baseline, whose
/// every stored checkpoint in turn equals the oracle's.
#[test]
fn crashed_chunked_shards_recover_identically_to_scalar() {
    let scale = scale();
    let base = stream(scale);
    for (fname, faults) in fault_columns() {
        let records = disturbed(&base, &faults);
        for &n in &shard_counts(scale) {
            let crash_shard = n - 1;
            let twin = build_sharded(n, &faults, false, true);
            let part_len = twin.partition(&records)[crash_shard].len() as u64;
            // No-crash durable baseline: every shard's stored checkpoint
            // equals its oracle's, byte for byte, and round-trips
            // through its encoding.
            let oracles = shard_oracles(&twin, &records);
            let mut baseline = build_sharded(n, &faults, false, true);
            baseline.run(&records);
            for (k, oracle) in oracles.iter().enumerate() {
                let (snap, log) = stored_artifacts(&baseline, k);
                let (want_snap, want_log) = executor_artifacts(oracle);
                assert_eq!(
                    snap.encode(),
                    want_snap.encode(),
                    "{n} shards/{fname}: shard {k}"
                );
                assert_eq!(
                    log.encode(),
                    want_log.encode(),
                    "{n} shards/{fname}: shard {k}"
                );
                assert_eq!(Snapshot::decode(&snap.encode()).unwrap(), snap);
            }
            let (want_report, want_hfta) = baseline.finish();
            let mut crash_points = vec![
                ("at-record-0", CrashPlan::at_record(0)),
                ("mid-stream", CrashPlan::at_record(part_len / 2)),
                ("after-offers", CrashPlan::after_offers(10)),
            ];
            if scale < 0.5 {
                crash_points.truncate(2);
            }
            for (cname, crash) in crash_points {
                let label = format!("{n} shards/{fname}/{cname}");
                // The oracle's crash run: the crashing shard's clone
                // stops consuming at its fuse, its store holding what a
                // per-record death leaves behind.
                let twin = build_sharded(n, &faults, false, true).with_crash(crash_shard, crash);
                let oracles = shard_oracles(&twin, &records);
                assert!(
                    oracles[crash_shard].has_crashed(),
                    "{label}: oracle crashed"
                );
                let (want_snap, want_log) = executor_artifacts(&oracles[crash_shard]);
                let mut sx = build_sharded(n, &faults, false, true).with_crash(crash_shard, crash);
                sx.run(&records);
                assert_eq!(sx.crashed_shards(), vec![crash_shard], "{label}");
                let (got_snap, got_log) = stored_artifacts(&sx, crash_shard);
                // What a mid-chunk death leaves in the store is the
                // per-record oracle's, byte for byte.
                assert_eq!(got_snap.encode(), want_snap.encode(), "{label}: snapshot");
                assert_eq!(got_log.encode(), want_log.encode(), "{label}: WAL");
                let fallbacks = sx
                    .recover_shard_from_store(crash_shard, &records)
                    .expect("a durable shard has a store");
                assert_eq!(fallbacks, 0, "{label}: pristine store, no fallback");
                assert!(sx.crashed_shards().is_empty(), "{label}");
                let (got_report, got_hfta) = sx.finish();
                assert_eq!(got_report, want_report, "{label}: recovered report");
                assert_eq!(got_hfta.results(), want_hfta.results(), "{label}: results");
            }
        }
    }
}

/// Regression: the router's final, partially-filled batch is flushed at
/// feed close, never dropped — every record reaches its shard whatever
/// the partition lengths, and a crashed shard's shutdown-loss ledger
/// counts exactly the records its feed delivered after the death.
#[test]
fn partial_final_chunk_is_flushed_and_shutdown_loss_stays_exact() {
    let scale = scale();
    let base = stream(scale);
    // 997 is prime, so no partition is a multiple of the feed's batch
    // size on either trace length.
    for records in [&base[..], &base[..997.min(base.len())]] {
        for &n in &shard_counts(scale) {
            let mut sx = build_sharded(n, &None, false, false);
            sx.run(records);
            let (report, _) = sx.finish();
            assert_eq!(
                report.records,
                records.len() as u64,
                "{n} shards/{} records: every record of every partial chunk processed",
                records.len()
            );
        }
    }
    // A shard dead mid-stream never consumes its tail — including the
    // partial final batch. The deployment must equal the per-shard
    // oracle of the same crash, whose dead clone stops at its fuse,
    // plus the shutdown-loss ledger: exactly the unconsumed records,
    // the partition past the fuse, counted as seen, shed and stranded.
    let n = 2;
    let crash_shard = n - 1;
    let probe = build_sharded(n, &None, false, true);
    let part_len = probe.partition(&base)[crash_shard].len() as u64;
    let crash = CrashPlan::at_record(part_len / 2);
    let stranded = part_len - part_len / 2;
    let twin = build_sharded(n, &None, false, true).with_crash(crash_shard, crash);
    let oracles = shard_oracles(&twin, &base);
    assert!(oracles[crash_shard].has_crashed(), "oracle crashed");
    let (mut want_report, want_hfta, mut want_bounds) = fold_oracles(oracles);
    want_report.records += stranded;
    want_report.records_shed += stranded;
    want_report.records_shutdown_lost += stranded;
    for q in &mut want_bounds.queries {
        q.losses.shutdown_lost += stranded;
    }
    let run = || {
        let mut sx = build_sharded(n, &None, false, true).with_crash(crash_shard, crash);
        sx.run(&base);
        let bounds = sx.bounds();
        let (report, hfta) = sx.finish();
        (report, hfta, bounds)
    };
    let (report, hfta, bounds) = run();
    let (again, again_hfta, again_bounds) = run();
    assert_eq!(report, again, "shutdown-loss ledger is deterministic");
    assert_eq!(
        hfta.results(),
        again_hfta.results(),
        "deterministic results"
    );
    assert_eq!(bounds, again_bounds, "deterministic bounds");
    assert_eq!(
        report.records_shutdown_lost, stranded,
        "exactly the records past the fuse are stranded"
    );
    assert_eq!(report.records, base.len() as u64);
    assert_eq!(report, want_report, "report vs per-shard oracle");
    assert_eq!(
        hfta.results(),
        want_hfta.results(),
        "results vs per-shard oracle"
    );
    assert_eq!(bounds, want_bounds, "bounds vs per-shard oracle");
}
