//! Supervision drill matrix: the self-healing shard runtime under
//! injected panics, stalls, and poison records.
//!
//! Every cell of {panic, stall, poison} × {shard counts} × {guard
//! on/off} must be:
//!
//! * **deterministic** — two threaded runs produce bit-identical
//!   merged [`RunReport`]s, result lists, and supervision outcomes,
//!   whatever the scheduler did;
//! * **replay-exact** — where the replay buffer covers the outage
//!   (transient panic, stuck shard), the run is bit-identical to the
//!   same deployment never faulting, except for the restart counter;
//! * **loss-exact** — where records are lost (poison quarantine,
//!   replay-buffer overrun, mid-epoch shutdown), the loss is typed and
//!   counted, and `observed = truth + count_bias(q)` holds exactly.
//!
//! `MSA_SCALE` (0, 1] shrinks the trace and trims the matrix as in the
//! differential battery.

use msa_core::{
    shard_of, AttrSet, CostParams, CrashPlan, GuardPolicy, Record, RunReport, ShardFault,
    ShardState, ShardedExecutor, SupervisorPolicy, PROCESSING_WINDOW_SIZE,
};
use msa_gigascope::plan::{PhysicalPlan, PlanNode};
use msa_gigascope::Hfta;
use msa_stream::UniformStreamBuilder;

const EPOCH: u64 = 500_000;
const SEED: u64 = 0xD1FF;
const GUARD_BUDGET: f64 = 3_000.0;

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

fn build(n: usize, guard_on: bool) -> ShardedExecutor {
    let mut sx = ShardedExecutor::new(phantom_plan(), CostParams::paper(), EPOCH, SEED, n).unwrap();
    if guard_on {
        sx = sx.with_guard(GuardPolicy::new(GUARD_BUDGET));
    }
    sx
}

/// One drilled run: arm `fault` on the last shard under `policy`, feed
/// the trace, and collect everything observable.
struct Drilled {
    report: RunReport,
    hfta: Hfta,
    health: msa_core::ShardHealth,
    final_state: ShardState,
}

fn drill(
    n: usize,
    guard_on: bool,
    fault: ShardFault,
    policy: SupervisorPolicy,
    records: &[Record],
) -> Drilled {
    let target = n - 1;
    let mut sx = build(n, guard_on)
        .with_shard_fault(target, fault)
        .with_supervision(policy);
    sx.run(records);
    let health = sx.shard_health(target).clone();
    let final_state = sx.heartbeat(target).state();
    let (report, hfta) = sx.finish();
    Drilled {
        report,
        hfta,
        health,
        final_state,
    }
}

/// `observed = truth + count_bias(q)` must hold exactly.
fn assert_bias_identity(label: &str, report: &RunReport, hfta: &Hfta, truth: usize) {
    for q in [s("A"), s("B")] {
        let observed: u64 = hfta.totals(q).values().sum();
        assert_eq!(
            observed as i64,
            truth as i64 + report.count_bias(q),
            "{label}: bias identity for query {q}"
        );
    }
}

/// Shard-local partition length of the drilled (last) shard.
fn part_len(n: usize, records: &[Record]) -> u64 {
    build(n, false).partition(records)[n - 1].len() as u64
}

/// The tentpole matrix: {panic, stall, poison} × {shards} × {guard}.
#[test]
fn drill_matrix_is_deterministic_and_replay_exact() {
    let scale = scale();
    let records = stream(scale);
    for guard_on in [false, true] {
        for &n in &shard_counts(scale) {
            // Fault-free run of the same deployment: the replay-exact
            // target (itself serial-equivalent per the differential
            // battery).
            let mut base = build(n, guard_on);
            base.run(&records);
            let (base_report, base_hfta) = base.finish();
            let len = part_len(n, &records);
            let drills: Vec<(&str, ShardFault, SupervisorPolicy)> = vec![
                (
                    "panic",
                    ShardFault::panic_at(len / 2),
                    SupervisorPolicy::default(),
                ),
                (
                    "stall",
                    ShardFault::stall_at(len / 3, 1 << 40),
                    SupervisorPolicy::default().with_stall_deadline(16),
                ),
                (
                    "poison",
                    ShardFault::panic_repeating(len / 2, 8),
                    SupervisorPolicy::default(),
                ),
            ];
            for (dname, fault, policy) in drills {
                let label = format!("{n} shards/{dname}/guard={guard_on}");
                let d1 = drill(n, guard_on, fault, policy, &records);
                let d2 = drill(n, guard_on, fault, policy, &records);
                // Determinism: supervision decisions are counted in
                // records, never wall-clock, so two runs agree bit for
                // bit — outcomes included.
                assert_eq!(d1.report, d2.report, "{label}: reports across runs");
                assert_eq!(
                    d1.hfta.results(),
                    d2.hfta.results(),
                    "{label}: results across runs"
                );
                assert_eq!(d1.health, d2.health, "{label}: health across runs");
                // The injected fault no longer aborts the deployment:
                // every record is accounted for and the shard retires
                // cleanly.
                assert_eq!(d1.report.records, records.len() as u64, "{label}");
                assert_eq!(d1.final_state, ShardState::Done, "{label}: heartbeat");
                assert_bias_identity(&label, &d1.report, &d1.hfta, records.len());
                match dname {
                    "panic" => {
                        // Transient: one kill, one restart, full replay.
                        assert_eq!(d1.health.panics_caught, 1, "{label}");
                        assert_eq!(d1.health.restarts, 1, "{label}");
                        assert_eq!(d1.health.stalls_detected, 0, "{label}");
                        assert!(d1.health.poisoned.is_empty(), "{label}");
                    }
                    "stall" => {
                        // The stuck deadline fires after 16 records of
                        // no progress; the restart swallows the wedge.
                        assert_eq!(d1.health.stalls_detected, 1, "{label}");
                        assert_eq!(d1.health.restarts, 1, "{label}");
                        assert_eq!(d1.health.panics_caught, 0, "{label}");
                    }
                    _ => {
                        // Poison: threshold consecutive kills, then
                        // quarantine — typed, indexed, never silent.
                        assert_eq!(d1.health.panics_caught, 3, "{label}");
                        assert_eq!(d1.health.restarts, 3, "{label}");
                        assert_eq!(d1.report.records_poisoned, 1, "{label}");
                        assert_eq!(d1.health.poisoned.len(), 1, "{label}");
                        let p = &d1.health.poisoned[0];
                        assert_eq!(p.shard, n - 1, "{label}");
                        assert_eq!(p.index, len / 2, "{label}");
                        assert_eq!(p.attempts, 3, "{label}");
                        assert_eq!(p.queries, vec![s("A"), s("B")], "{label}");
                    }
                }
                if dname != "poison" {
                    // Replay-exact: bit-identical to never faulting,
                    // except the restart counter itself.
                    assert_eq!(d1.health.records_unreplayed, 0, "{label}");
                    let mut scrubbed = d1.report.clone();
                    assert_eq!(
                        scrubbed.shard_restarts, d1.health.restarts,
                        "{label}: every restart counted"
                    );
                    scrubbed.shard_restarts = 0;
                    assert_eq!(scrubbed, base_report, "{label}: report vs fault-free");
                    assert_eq!(
                        d1.hfta.results(),
                        base_hfta.results(),
                        "{label}: results vs fault-free"
                    );
                }
            }
        }
    }
}

/// A stall shorter than the deadline resumes by itself: no restart, no
/// supervision noise, outputs bit-identical to never stalling.
#[test]
fn short_stall_resumes_without_restart() {
    let records = stream(scale());
    let n = 2;
    let len = part_len(n, &records);
    let mut base = build(n, false);
    base.run(&records);
    let (base_report, base_hfta) = base.finish();
    let d = drill(
        n,
        false,
        ShardFault::stall_at(len / 3, 8),
        SupervisorPolicy::default(),
        &records,
    );
    assert_eq!(d.health.stalls_detected, 0);
    assert_eq!(d.health.restarts, 0);
    assert_eq!(d.health.panics_caught, 0);
    assert_eq!(d.report, base_report);
    assert_eq!(d.hfta.results(), base_hfta.results());
}

/// Replay-buffer overrun: with a zero-capacity buffer the gap between
/// the last checkpoint and the kill point cannot be replayed. The gap
/// degrades explicitly — counted, shed, bias-exact — instead of
/// aborting or silently dropping.
#[test]
fn replay_overrun_degrades_explicitly_and_exactly() {
    let records = stream(scale());
    let n = 2;
    let len = part_len(n, &records);
    let policy = SupervisorPolicy::default().with_replay_capacity(0);
    let fault = ShardFault::panic_at(3 * len / 4);
    let d1 = drill(n, false, fault, policy, &records);
    let d2 = drill(n, false, fault, policy, &records);
    assert_eq!(
        d1.report, d2.report,
        "degraded runs are still deterministic"
    );
    assert_eq!(d1.hfta.results(), d2.hfta.results());
    assert_eq!(d1.health, d2.health);
    // The uncovered gap is real and every ledger agrees on its size.
    assert!(d1.health.records_unreplayed > 0, "gap must be nonzero");
    assert_eq!(d1.report.records_unreplayed, d1.health.records_unreplayed);
    assert!(d1.report.records_shed >= d1.health.records_unreplayed);
    assert_eq!(d1.report.records, records.len() as u64);
    assert_bias_identity("overrun", &d1.report, &d1.hfta, records.len());
}

/// Quarantine interacts with degradation: a poison record inside a
/// zero-capacity replay window still quarantines after the threshold,
/// and both loss ledgers stay exact side by side.
#[test]
fn poison_and_overrun_compose() {
    let records = stream(scale());
    let n = 4;
    let len = part_len(n, &records);
    let policy = SupervisorPolicy::default()
        .with_replay_capacity(0)
        .with_poison_threshold(2);
    let fault = ShardFault::panic_repeating(2 * len / 3, 5);
    let d = drill(n, false, fault, policy, &records);
    assert_eq!(d.health.panics_caught, 2);
    assert_eq!(d.health.poisoned.len(), 1);
    assert_eq!(d.report.records_poisoned, 1);
    assert_eq!(d.report.records, records.len() as u64);
    assert_bias_identity("poison+overrun", &d.report, &d.hfta, records.len());
}

/// Satellite regression: a shard killed mid-epoch by a [`CrashPlan`]
/// (a dead *process*, outside the supervisor's reach) loses its
/// in-flight feed at close. That loss must land in the shutdown ledger
/// and the abandoned deployment must still finish bias-exact — no
/// silent drops on the shutdown path.
#[test]
fn mid_epoch_close_accounts_shutdown_loss() {
    let records = stream(scale());
    let n = 4;
    let target = n - 1;
    let len = part_len(n, &records);
    let run_once = || {
        let mut sx = build(n, false)
            .with_durability()
            .with_crash(target, CrashPlan::at_record(len / 2));
        sx.run(&records);
        assert_eq!(sx.crashed_shards(), vec![target]);
        let stats = sx.channel_stats();
        let (report, hfta) = sx.finish();
        (stats, report, hfta)
    };
    let (stats1, report1, hfta1) = run_once();
    let (stats2, report2, hfta2) = run_once();
    assert_eq!(report1, report2, "abandoned runs are deterministic");
    assert_eq!(hfta1.results(), hfta2.results());
    assert_eq!(stats1, stats2);
    // The feed kept arriving after the kill; close() must have counted
    // every one of those records as shutdown loss, not dropped them.
    assert!(stats1.shutdown_lost > 0, "mid-epoch loss must be ledgered");
    assert_eq!(report1.records, records.len() as u64);
    assert_bias_identity("abandoned", &report1, &hfta1, records.len());
}

/// Heartbeats observe a live run without perturbing it: states stay in
/// the published vocabulary and the progress counter lands exactly on
/// the shard's partition size.
#[test]
fn heartbeats_report_progress_and_final_state() {
    let records = stream(scale());
    let n = 2;
    let mut sx = build(n, false);
    let hb = sx.heartbeat(0);
    assert_eq!(hb.state(), ShardState::Healthy);
    assert_eq!(hb.processed(), 0);
    sx.run(&records);
    let parts = sx.partition(&records);
    for (k, part) in parts.iter().enumerate() {
        let hb = sx.heartbeat(k);
        assert_eq!(hb.state(), ShardState::Done, "shard {k}");
        assert_eq!(hb.processed(), part.len() as u64, "shard {k}");
    }
    let (report, _) = sx.finish();
    assert_eq!(report.records, records.len() as u64);
    assert_eq!(report.shard_restarts, 0);
}

/// Supervision events landing *inside a chunk*. The pump offers
/// [`PROCESSING_WINDOW_SIZE`]-lane chunk ranges and cuts its
/// ranges just before every event, so a poison, a transient panic or a
/// stall armed at lane 0, lane 1 or the last lane of a chunk must each
/// act at exactly its record index. A poison quarantines exactly that
/// one record — the run equals the fault-free deployment without it,
/// plus the quarantine counters — and panics and stalls replay to the
/// fault-free run. Across the three lane positions the outcome is
/// identical up to what the index itself decides: which record is
/// quarantined and how far the replay reaches back to the checkpoint.
#[test]
fn poison_inside_a_chunk_quarantines_exactly_one_record() {
    let records = stream(scale());
    let n = 4;
    let target = n - 1;
    let len = part_len(n, &records);
    let mut base = build(n, false);
    base.run(&records);
    let (base_report, base_hfta) = base.finish();
    // Lane 0, lane 1 and the last lane of the target shard's first
    // chunk — its final partial chunk when the partition is shorter.
    let lanes = [0, 1, (PROCESSING_WINDOW_SIZE as u64 - 1).min(len - 1)];
    for dname in ["poison", "panic", "stall"] {
        let mut first: Option<(RunReport, Hfta, msa_core::ShardHealth)> = None;
        for at in lanes {
            let (fault, policy) = match dname {
                "poison" => (
                    ShardFault::panic_repeating(at, 8),
                    SupervisorPolicy::default(),
                ),
                "panic" => (ShardFault::panic_at(at), SupervisorPolicy::default()),
                _ => (
                    ShardFault::stall_at(at, 1 << 40),
                    SupervisorPolicy::default().with_stall_deadline(16),
                ),
            };
            let label = format!("{dname} at lane {at}");
            let d1 = drill(n, false, fault, policy, &records);
            let d2 = drill(n, false, fault, policy, &records);
            assert_eq!(d1.report, d2.report, "{label}: determinism");
            assert_eq!(d1.hfta.results(), d2.hfta.results(), "{label}");
            assert_eq!(d1.health, d2.health, "{label}");
            assert_eq!(d1.report.records, records.len() as u64, "{label}");
            assert_eq!(d1.final_state, ShardState::Done, "{label}");
            assert_bias_identity(&label, &d1.report, &d1.hfta, records.len());
            if dname == "poison" {
                // Exactly one record quarantined, at the armed index;
                // the rest of its chunk replays.
                assert_eq!(d1.report.records_poisoned, 1, "{label}");
                assert_eq!(d1.health.poisoned.len(), 1, "{label}");
                assert_eq!(d1.health.poisoned[0].index, at, "{label}");
                // Chunk-free expectation: the fault-free deployment fed
                // the stream without that record, plus the quarantine's
                // own counters.
                let (global, _) = records
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| shard_of(SEED, r, n) == target)
                    .nth(at as usize)
                    .unwrap();
                let mut kept = records.clone();
                kept.remove(global);
                let mut want = build(n, false);
                want.run(&kept);
                let (mut want_report, want_hfta) = want.finish();
                want_report.records += 1;
                want_report.records_poisoned += 1;
                // Three restarts from one checkpoint: the report counts
                // all three, like the health ledger.
                assert_eq!(d1.health.restarts, 3, "{label}");
                assert_eq!(d1.report.shard_restarts, 3, "{label}");
                want_report.shard_restarts = 3;
                assert_eq!(d1.report, want_report, "{label}: report vs without");
                assert_eq!(
                    d1.hfta.results(),
                    want_hfta.results(),
                    "{label}: results vs without"
                );
            } else {
                assert!(d1.health.poisoned.is_empty(), "{label}");
                assert_eq!(d1.health.restarts, 1, "{label}");
                let mut scrubbed = d1.report.clone();
                scrubbed.shard_restarts = 0;
                assert_eq!(scrubbed, base_report, "{label}: report vs fault-free");
                assert_eq!(
                    d1.hfta.results(),
                    base_hfta.results(),
                    "{label}: results vs fault-free"
                );
            }
            // Identical across lane positions, up to the index-decided
            // replay length and quarantined record.
            let mut health = d1.health.clone();
            health.records_replayed = 0;
            for p in &mut health.poisoned {
                p.index = 0;
                p.record = Record::new(&[0; 4], 0);
            }
            match &first {
                None => first = Some((d1.report, d1.hfta, health)),
                Some((report, hfta, want_health)) => {
                    assert_eq!(&health, want_health, "{label}: health across lanes");
                    if dname != "poison" {
                        assert_eq!(&d1.report, report, "{label}: report across lanes");
                        assert_eq!(
                            d1.hfta.results(),
                            hfta.results(),
                            "{label}: results across lanes"
                        );
                    }
                }
            }
        }
    }
}
