//! The epoch-boundary hot-swap transaction: vocabulary types.
//!
//! The adaptive runtime (see `msa-core`) re-plans in the background and
//! installs the new feeding graph through
//! [`crate::shard::ShardedExecutor::hot_swap`] — a transaction with four
//! phases, all record-counted and seeded so swapping runs keep the
//! repo's two-run bit-identity:
//!
//! 1. **quiesce** — every shard must sit at the *same* epoch boundary
//!    (tables drained, nothing in flight at the HFTA); a mid-epoch
//!    attempt is refused, a skewed deployment is refused;
//! 2. **snapshot** — each shard captures its boundary state: counters,
//!    finished results, guard ladder + degradation odometer, channel
//!    PRNG cursor;
//! 3. **rehash + validate** — a new-plan executor per shard adopts the
//!    snapshot ([`crate::executor::Executor`]'s boundary-state
//!    transplant); the handoff is validated: record-count conservation,
//!    per-query bias-ledger conservation, finished-mass conservation,
//!    and degradation-promise (loss odometer + breach latch) carryover;
//! 4. **commit or roll back** — on success the new shards replace the
//!    old ones and `replans_committed` ticks; *any* validation failure
//!    drops the new shards (the old deployment was never touched),
//!    ticks `replans_rolled_back`, and the run continues on the old
//!    plan.
//!
//! A crash injected at any [`SwapCrashPoint`] recovers from each
//! shard's checkpoint store to either the old plan (before commit) or the new plan
//! (after commit) — never a torn state; `tests/adaptive.rs` proves each
//! recovery bit-identical to an uncrashed baseline.

use crate::executor::Executor;
use crate::snapshot::{Snapshot, SnapshotError};
use msa_stream::store::StoreError;
use msa_stream::AttrSet;

/// Where, inside the swap transaction, an injected crash fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwapCrashPoint {
    /// After every shard quiesced and snapshotted, before any new-plan
    /// state exists. Recovery resumes the old plan.
    AfterQuiesce,
    /// After the new shards adopted and validated, one instant before
    /// the commit point. Recovery resumes the old plan.
    BeforeCommit,
    /// Right after the commit point (new shards installed and their
    /// checkpoints durable). Recovery resumes the new plan.
    AfterCommit,
}

/// Declarative fault injection for one hot-swap transaction: force the
/// validation phase to fail (a rollback drill) and/or crash the process
/// at a chosen [`SwapCrashPoint`]. Like every fault plan in this repo
/// the injection is purely declarative — the transaction takes the same
/// code path a real fault would take.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwapFault {
    /// Report a fabricated handoff violation on shard 0, forcing the
    /// transaction to roll back.
    pub fail_validation: bool,
    /// Crash the deployment at this point inside the transaction.
    pub crash: Option<SwapCrashPoint>,
}

impl SwapFault {
    /// No injected faults: the transaction runs clean.
    pub fn none() -> SwapFault {
        SwapFault::default()
    }

    /// Forces the validation phase to report a violation.
    pub fn failing_validation() -> SwapFault {
        SwapFault {
            fail_validation: true,
            crash: None,
        }
    }

    /// Crashes the deployment at `point` inside the transaction.
    pub fn crash_at(point: SwapCrashPoint) -> SwapFault {
        SwapFault {
            fail_validation: false,
            crash: Some(point),
        }
    }

    /// True when nothing is injected.
    pub fn is_none(&self) -> bool {
        *self == SwapFault::default()
    }
}

/// One handoff-validation check that did not conserve: the transaction
/// rolls back and reports exactly what diverged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HandoffViolation {
    /// Shard whose handoff failed.
    pub shard: usize,
    /// Which conservation check failed.
    pub check: &'static str,
    /// The value the old plan's snapshot holds.
    pub expected: i128,
    /// The value the adopting new-plan executor holds.
    pub found: i128,
}

impl std::fmt::Display for HandoffViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {}: handoff check `{}` did not conserve (snapshot {}, adopted {})",
            self.shard, self.check, self.expected, self.found
        )
    }
}

/// Why a transaction rolled back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RollbackReason {
    /// A handoff-validation check failed.
    Validation(HandoffViolation),
    /// A [`SwapFault::failing_validation`] drill forced it.
    Injected,
}

/// How a hot-swap transaction ended. Every variant leaves the
/// deployment whole: either entirely on the old plan or entirely on the
/// new one, never torn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwapOutcome {
    /// The new plan is live; `replans_committed` ticked.
    Committed,
    /// A crash fired after the commit point; recovery from the stores
    /// resumed the *new* plan.
    CommittedAfterCrash,
    /// Validation failed; the old plan kept serving untouched and
    /// `replans_rolled_back` ticked.
    RolledBack(RollbackReason),
    /// A crash fired before the commit point; recovery from the stores
    /// resumed the *old* plan and `replans_rolled_back` ticked.
    RolledBackAfterCrash,
}

impl SwapOutcome {
    /// True when the deployment ended up on the new plan.
    pub fn committed(&self) -> bool {
        matches!(
            self,
            SwapOutcome::Committed | SwapOutcome::CommittedAfterCrash
        )
    }
}

/// What one hot-swap transaction did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use = "the caller must inspect whether the swap committed or rolled back"]
pub struct SwapReport {
    /// The epoch boundary the transaction ran at.
    pub epoch: u64,
    /// How it ended.
    pub outcome: SwapOutcome,
}

/// A hot-swap transaction that could not even reach its validation
/// phase, or whose durable commit was refused: the deployment was not
/// in a swappable state. The old plan keeps serving in every case.
#[derive(Debug, PartialEq)]
pub enum SwapError {
    /// A shard's crash fuse fired earlier; recover it first.
    ShardCrashed(usize),
    /// A shard refused its boundary snapshot (mid-epoch state).
    Unaligned(SnapshotError),
    /// Shards sit at different epochs — quiesce them with
    /// `align_to_epoch` first.
    EpochSkew {
        /// Epoch of shard 0.
        expected: u64,
        /// The divergent shard's epoch.
        found: u64,
        /// The divergent shard.
        shard: usize,
    },
    /// A crash drill needs every shard to checkpoint into a store
    /// (`with_durability` or `with_stores`): a real crash keeps only
    /// what the stores committed.
    CrashDrillNeedsDurability,
    /// A shard's last committed checkpoint lags the quiesce boundary
    /// (its store degraded, or never committed it) — a crash there
    /// would lose work, so the drill refuses to run. Also returned when
    /// the drill's recovery cannot read that boundary back from a
    /// shard's store: no recovered shard is installed and the old
    /// deployment keeps serving. At `AfterCommit` the stores then hold
    /// the new plan's generation, which the old shards' next boundary
    /// commit supersedes (a recovery before it falls back past it,
    /// accounted).
    StaleCheckpoint {
        /// The lagging shard.
        shard: usize,
    },
    /// The handoff validated, but a store-backed shard could not make
    /// the new plan's boundary checkpoint durable. The transaction
    /// rolled back before its commit point — the old deployment keeps
    /// serving, untouched.
    DurableCommit {
        /// The shard whose store refused the commit.
        shard: usize,
        /// The storage failure.
        error: StoreError,
    },
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::ShardCrashed(k) => {
                write!(f, "shard {k} has crashed; recover it before swapping")
            }
            SwapError::Unaligned(e) => write!(f, "swap refused mid-epoch: {e}"),
            SwapError::EpochSkew {
                expected,
                found,
                shard,
            } => write!(
                f,
                "shard {shard} sits at epoch {found} but shard 0 at {expected}; \
                 align the deployment before swapping"
            ),
            SwapError::CrashDrillNeedsDurability => write!(
                f,
                "a swap crash drill needs every shard to checkpoint into a store \
                 (enable with_durability or with_stores)"
            ),
            SwapError::StaleCheckpoint { shard } => write!(
                f,
                "shard {shard}'s last committed checkpoint lags the quiesce boundary"
            ),
            SwapError::DurableCommit { shard, error } => write!(
                f,
                "shard {shard} could not make the swap durable (rolled back): {error}"
            ),
        }
    }
}

impl std::error::Error for SwapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SwapError::Unaligned(e) => Some(e),
            SwapError::DurableCommit { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Record mass `query`'s finished results hold in `snapshot`.
fn snapshot_finished_mass(snapshot: &Snapshot, query: AttrSet) -> u64 {
    snapshot
        .hfta
        .results
        .iter()
        .filter(|r| r.query == query)
        .flat_map(|r| r.aggregates.values())
        .map(|a| a.count)
        .sum()
}

/// The handoff-validation phase: every conservation law the snapshot
/// promises must hold on the adopting executor before the transaction
/// may commit. The checks are deliberately independent of *how* the
/// adoption is implemented — they recompute both sides from scratch, so
/// a future refactor that breaks the transplant fails here, not in
/// production results.
pub(crate) fn validate_handoff(
    shard: usize,
    adopted: &Executor,
    snapshot: &Snapshot,
    old_queries: &[AttrSet],
) -> Result<(), HandoffViolation> {
    let violation = |check: &'static str, expected: i128, found: i128| HandoffViolation {
        shard,
        check,
        expected,
        found,
    };
    let report = adopted.report();
    if report.records != snapshot.report.records {
        return Err(violation(
            "record-count conservation",
            snapshot.report.records as i128,
            report.records as i128,
        ));
    }
    if adopted.current_epoch() != snapshot.epoch {
        return Err(violation(
            "epoch position",
            snapshot.epoch as i128,
            adopted.current_epoch() as i128,
        ));
    }
    for &q in old_queries {
        let expected = snapshot.report.count_bias(q);
        let found = report.count_bias(q);
        if found != expected {
            return Err(violation(
                "bias-ledger conservation",
                expected as i128,
                found as i128,
            ));
        }
        let expected_mass = snapshot_finished_mass(snapshot, q);
        let found_mass: u64 = adopted.hfta().totals(q).values().sum();
        if found_mass != expected_mass {
            return Err(violation(
                "finished-mass conservation",
                expected_mass as i128,
                found_mass as i128,
            ));
        }
    }
    let expected_lost = snapshot.guard.as_ref().map_or(0, |g| g.records_lost);
    let found_lost = adopted.guard().map_or(0, |g| g.records_lost());
    if found_lost != expected_lost {
        return Err(violation(
            "degradation-odometer carryover",
            expected_lost as i128,
            found_lost as i128,
        ));
    }
    let expected_breach = snapshot.guard.as_ref().is_some_and(|g| g.bound_breached);
    let found_breach = adopted.guard().is_some_and(|g| g.bound_breached());
    if found_breach != expected_breach {
        return Err(violation(
            "breach-latch carryover",
            i128::from(expected_breach),
            i128::from(found_breach),
        ));
    }
    Ok(())
}
