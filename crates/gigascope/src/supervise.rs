//! Self-healing shard supervision: panic isolation, stuck-shard
//! detection, and live restart from epoch-aligned checkpoints.
//!
//! The sharded runtime used to propagate any shard panic straight
//! through `resume_unwind`, killing the whole deployment. This module
//! gives every shard a [`ShardDriver`] — the supervision loop its
//! worker thread runs instead of calling `Executor::run` directly:
//!
//! * **panic isolation** — the backlog is processed in chunk ranges,
//!   each inside a `catch_unwind` boundary (this file is the only
//!   place the engine is allowed to erect one; msa-lint rule R005
//!   enforces the containment). A range ends just before the next
//!   supervision event — an armed panic or stall index, a quarantined
//!   record — so every decision still lands on its exact record index.
//!   A caught panic marks the shard *dead* and triggers a restart
//!   instead of an abort.
//! * **restart from checkpoint** — a dead or stuck shard is rebuilt
//!   from its last epoch-aligned snapshot + eviction log
//!   ([`Executor::recover`]) and its feed is replayed from a bounded
//!   replay buffer, so the resumed run is bit-identical to a fault-free
//!   one whenever the buffer still covers the checkpoint's record
//!   high-water mark (the exactly-once property of PR 2, applied live).
//! * **poison quarantine** — a record that deterministically kills its
//!   shard [`SupervisorPolicy::poison_threshold`] consecutive times is
//!   quarantined into a typed [`PoisonRecord`] report and counted in
//!   `RunReport::records_poisoned`; it is never silently dropped, and
//!   `count_bias` carries the exact per-query correction.
//! * **explicit degradation** — when the replay buffer no longer
//!   reaches back to the checkpoint (overrun), the unreplayable gap
//!   degrades through the overload-guard ledger
//!   (`records_shed`/`records_unreplayed`) with exact per-query bias
//!   bounds rather than aborting.
//! * **stuck detection** — a shard that stops making progress
//!   (an injected [`ShardFault::stall_at`], or anything that wedges the
//!   epoch loop between records) is declared *stuck* once
//!   [`SupervisorPolicy::stall_deadline`] further records arrive
//!   without progress, and restarted. The deadline is counted in
//!   **records received**, never wall-clock time — supervision
//!   decisions must be pure functions of the input stream (msa-lint
//!   rule D001 bans clocks from the engine), so two runs of the same
//!   stream take identical decisions at identical points. A thread
//!   wedged *inside* a single `offer_chunk` call cannot be observed
//!   from within; that residual case is what the CI hard timeout
//!   covers.
//!
//! Every decision point (panic index, stall onset, deadline expiry,
//! quarantine, buffer pruning) is keyed to shard-local record indices,
//! which makes the whole state machine — healthy → dead/stuck →
//! restarting → quarantine/degraded — deterministic and therefore
//! testable bit-for-bit (see `tests/supervision.rs`).

use std::collections::VecDeque;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use crate::executor::{Executor, ExecutorConfig};
use crate::faults::ShardFault;
use crate::snapshot::EvictionLog;
use crate::store::StoreHandle;
use msa_stream::{AttrSet, Record, RecordChunk, PROCESSING_WINDOW_SIZE};

/// Supervision knobs. Everything is counted in shard-local records —
/// never wall-clock time — so supervised runs stay deterministic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SupervisorPolicy {
    /// Records that may arrive without the shard making progress before
    /// it is declared stuck and restarted.
    pub stall_deadline: u64,
    /// Consecutive times one record may kill the shard before it is
    /// quarantined as poison.
    pub poison_threshold: u32,
    /// Processed records kept in the replay buffer behind the
    /// consumption point. Restarts replay from the latest checkpoint;
    /// if the checkpoint has fallen more than this far behind, the
    /// uncovered gap degrades explicitly instead of aborting.
    pub replay_capacity: u64,
}

impl Default for SupervisorPolicy {
    fn default() -> SupervisorPolicy {
        SupervisorPolicy {
            stall_deadline: 1024,
            poison_threshold: 3,
            replay_capacity: 65_536,
        }
    }
}

impl SupervisorPolicy {
    /// Sets the stuck deadline (in records received without progress).
    pub fn with_stall_deadline(mut self, records: u64) -> SupervisorPolicy {
        self.stall_deadline = records;
        self
    }

    /// Sets how many consecutive kills quarantine a record.
    pub fn with_poison_threshold(mut self, times: u32) -> SupervisorPolicy {
        self.poison_threshold = times.max(1);
        self
    }

    /// Sets the replay-buffer bound (in processed records retained).
    pub fn with_replay_capacity(mut self, records: u64) -> SupervisorPolicy {
        self.replay_capacity = records;
        self
    }
}

/// Where a shard is in the supervision state machine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(u8)]
pub enum ShardState {
    /// Making progress.
    #[default]
    Healthy = 0,
    /// Stopped making progress; the stuck deadline is counting down.
    Stuck = 1,
    /// A panic boundary caught this shard dying.
    Dead = 2,
    /// Being rebuilt from its checkpoint and replayed.
    Restarting = 3,
    /// Feed closed; the shard's outputs are final.
    Done = 4,
}

impl ShardState {
    fn from_u8(v: u8) -> ShardState {
        match v {
            1 => ShardState::Stuck,
            2 => ShardState::Dead,
            3 => ShardState::Restarting,
            4 => ShardState::Done,
            _ => ShardState::Healthy,
        }
    }
}

/// The externally observable pulse of one shard: a progress counter and
/// the supervision state, published with relaxed atomics so the routing
/// thread (or an operator) can watch a live deployment without touching
/// determinism — heartbeats are observational; every supervision
/// *decision* is taken inside the shard's own deterministic loop.
#[derive(Debug, Default)]
pub struct ShardHeartbeat {
    processed: AtomicU64,
    state: AtomicU8,
}

impl ShardHeartbeat {
    /// Records processed so far (monotone within a run segment).
    pub fn processed(&self) -> u64 {
        self.processed.load(Ordering::Relaxed)
    }

    /// Last published supervision state.
    pub fn state(&self) -> ShardState {
        ShardState::from_u8(self.state.load(Ordering::Relaxed))
    }

    fn beat(&self, processed: u64) {
        self.processed.store(processed, Ordering::Relaxed);
    }

    /// Publishes a state change. `pub(crate)` so the hot-swap
    /// transaction ([`crate::shard::ShardedExecutor::hot_swap`]) can
    /// surface its quiesce/commit window on the same observable pulse
    /// supervision uses — heartbeats stay observational; every swap
    /// *decision* is record-counted inside the transaction itself.
    pub(crate) fn publish(&self, state: ShardState) {
        self.state.store(state as u8, Ordering::Relaxed);
    }
}

/// A quarantined poison record: it killed its shard
/// [`SupervisorPolicy::poison_threshold`] consecutive times and was
/// skipped. The report names exactly what was lost — the record, where
/// it sat in the shard's partition, and every query it would have fed —
/// and `RunReport::records_poisoned` carries the count into the bias
/// ledger, so quarantine is never a silent drop.
#[derive(Clone, Debug, PartialEq)]
pub struct PoisonRecord {
    /// Shard that quarantined it.
    pub shard: usize,
    /// Shard-local index in the partition.
    pub index: u64,
    /// The record itself.
    pub record: Record,
    /// Consecutive kills observed before quarantine.
    pub attempts: u32,
    /// The queries this record would have contributed one count to.
    pub queries: Vec<AttrSet>,
}

/// Per-shard supervision outcome, collected when the feed closes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardHealth {
    /// Final supervision state.
    pub state: ShardState,
    /// Restarts performed (panic- or stall-triggered).
    pub restarts: u64,
    /// Panics the boundary caught.
    pub panics_caught: u64,
    /// Times the stuck deadline fired.
    pub stalls_detected: u64,
    /// Records re-processed from the replay buffer across all restarts
    /// (the records-to-recover MTTR proxy the recovery bench reports).
    pub records_replayed: u64,
    /// Records lost to replay-buffer overruns (degraded explicitly
    /// through the shed ledger).
    pub records_unreplayed: u64,
    /// Quarantined poison records, in quarantine order.
    pub poisoned: Vec<PoisonRecord>,
}

impl ShardHealth {
    /// Folds a later run segment's outcome into this one.
    ///
    /// Exhaustive destructure on purpose: a new health counter that is
    /// not folded here would silently vanish from merged reports — and
    /// from the loss accounting the bounds subsystem derives intervals
    /// from — so it must be a compile error instead.
    pub fn absorb(&mut self, other: &ShardHealth) {
        let ShardHealth {
            state,
            restarts,
            panics_caught,
            stalls_detected,
            records_replayed,
            records_unreplayed,
            poisoned,
        } = other;
        self.state = *state;
        self.restarts += restarts;
        self.panics_caught += panics_caught;
        self.stalls_detected += stalls_detected;
        self.records_replayed += records_replayed;
        self.records_unreplayed += records_unreplayed;
        self.poisoned.extend(poisoned.iter().cloned());
    }
}

/// Typed payload of an injected shard panic, so the quiet panic hook
/// can tell drills from real bugs: injected deaths unwind silently,
/// anything else still prints through the previous hook.
struct InjectedShardPanic;

static QUIET_HOOK: std::sync::Once = std::sync::Once::new();

fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info
                .payload()
                .downcast_ref::<InjectedShardPanic>()
                .is_none()
            {
                prev(info);
            }
        }));
    });
}

/// The supervision loop one shard worker runs: a panic boundary, a
/// bounded replay buffer, the stall/poison state machine, and restart
/// from checkpoint. Single-threaded per shard; all inputs arrive via
/// [`ShardDriver::feed`] in partition order, so every decision
/// is a pure function of the shard's record stream.
pub(crate) struct ShardDriver {
    shard: usize,
    cfg: ExecutorConfig,
    ex: Executor,
    fault: ShardFault,
    policy: SupervisorPolicy,
    heartbeat: std::sync::Arc<ShardHeartbeat>,
    queries: Vec<AttrSet>,
    /// Replay buffer holding shard-local records `[buf_start, received)`.
    buf: VecDeque<Record>,
    buf_start: u64,
    /// Shard-local records fed so far.
    received: u64,
    /// Shard-local index of the next record to process. Invariant for a
    /// healthy shard: equals `ex.report().records` (poison and gap
    /// absorption keep it in step).
    consumed: u64,
    /// Injected-panic fuse: firings left.
    panic_fires_left: u32,
    /// Consecutive-kill tracking for the poison verdict.
    last_panic_index: Option<u64>,
    panic_attempts: u32,
    /// Stall state: currently stalled, and whether the armed stall has
    /// already been handled (stalls fire once).
    stalled: bool,
    stall_handled: bool,
    /// A real panic escaped a range ending here: until consumption
    /// passes this index, ranges are one lane long, so the replay
    /// re-hits the death at its exact record index.
    lane_until: u64,
    /// That panic escaped a multi-lane range, so its index is not yet
    /// known; it counts toward the poison verdict at the index where
    /// the one-lane replay dies.
    unlocated_death: bool,
    health: ShardHealth,
    /// Unit tests' stand-in for a record that breaks the executor: a
    /// range reaching this shard-local index unwinds from inside the
    /// executor's work, this many more times.
    #[cfg(test)]
    real_poison: Option<(u64, u32)>,
}

impl ShardDriver {
    pub(crate) fn new(
        shard: usize,
        cfg: ExecutorConfig,
        ex: Executor,
        fault: ShardFault,
        policy: SupervisorPolicy,
        heartbeat: std::sync::Arc<ShardHeartbeat>,
    ) -> ShardDriver {
        install_quiet_hook();
        heartbeat.publish(ShardState::Healthy);
        let queries = cfg.plan.query_attrs();
        ShardDriver {
            shard,
            cfg,
            ex,
            fault,
            policy,
            heartbeat,
            queries,
            buf: VecDeque::new(),
            buf_start: 0,
            received: 0,
            consumed: 0,
            panic_fires_left: if fault.panic_at_record.is_some() {
                fault.panic_times.max(1)
            } else {
                0
            },
            last_panic_index: None,
            panic_attempts: 0,
            stalled: false,
            stall_handled: false,
            lane_until: 0,
            unlocated_death: false,
            health: ShardHealth::default(),
            #[cfg(test)]
            real_poison: None,
        }
    }

    /// Feeds the next records of the shard's partition, in order,
    /// then pumps the supervision loop as far as it can go.
    pub(crate) fn feed(&mut self, records: &[Record]) {
        self.received += records.len() as u64;
        if !self.ex.has_crashed() {
            // A crash-fuse "dead process" never consumes its feed;
            // counting (not storing) its backlog keeps memory flat and
            // lets `close` account the in-flight loss exactly.
            self.buf.extend(records);
        }
        self.check_stall();
        self.pump();
    }

    /// Feed closed: resolve any open stall (the deadline authority —
    /// end of stream means no further records can un-stick the shard),
    /// drain what remains, account shutdown loss for a crash-fuse dead
    /// process, and hand back the executor with the health ledger.
    pub(crate) fn close(mut self) -> (Executor, ShardHealth) {
        if self.stalled {
            self.declare_stuck();
        }
        self.pump();
        if self.ex.has_crashed() {
            let lost = self.received.saturating_sub(self.ex.report().records);
            self.ex.absorb_shutdown_loss(lost);
        }
        self.heartbeat.publish(ShardState::Done);
        self.health.state = ShardState::Done;
        self.health.records_unreplayed = self.ex.report().records_unreplayed;
        (self.ex, self.health)
    }

    /// Processes everything available, stopping at a stall or a
    /// crash-fuse death (which supervision deliberately leaves for
    /// manual recovery — `CrashPlan` models a dead *process*, not a
    /// dead thread).
    ///
    /// The backlog goes through [`Executor::offer_chunk`] in ranges that
    /// end just before the next supervision event (see
    /// [`ShardDriver::next_event`]); each event is then handled at its
    /// exact index. Ranges are capped at [`PROCESSING_WINDOW_SIZE`]
    /// lanes, and at one lane up to the end of the last range a real
    /// panic escaped.
    fn pump(&mut self) {
        while !self.stalled && !self.ex.has_crashed() && self.consumed < self.received {
            let i = self.consumed;
            if i >= self.lane_until {
                // The replay passed the range alive: the death did not
                // repeat, so it names no index.
                self.unlocated_death = false;
            }
            if self.is_poisoned(i) {
                // Quarantined: skip, but account — replay after a later
                // restart re-applies this deterministically.
                self.ex.absorb_poisoned();
                self.consumed += 1;
                self.prune();
                continue;
            }
            if !self.stall_handled && self.fault.stall_at_record == Some(i) {
                self.stalled = true;
                self.heartbeat.publish(ShardState::Stuck);
                self.check_stall();
                continue;
            }
            if self.panic_fires_left > 0 && self.fault.panic_at_record == Some(i) {
                // Raise the injected death inside the same boundary a
                // real one would hit.
                if catch_unwind(|| panic_any(InjectedShardPanic)).is_err() {
                    self.on_panic(i, 1);
                }
                continue;
            }
            let cap = if i < self.lane_until {
                1
            } else {
                PROCESSING_WINDOW_SIZE as u64
            };
            let end = self.next_event(i).min(self.received).min(i + cap);
            let len = self.buf.len();
            let from = usize::try_from(i - self.buf_start).map_or(len, |f| f.min(len));
            let to = usize::try_from(end - self.buf_start).map_or(len, |t| t.min(len));
            let range: RecordChunk = self.buf.range(from..to.max(from)).copied().collect();
            let before = self.ex.report().records;
            match catch_unwind(AssertUnwindSafe(|| self.offer_range(&range))) {
                Ok(()) => {
                    // A crash fuse may stop the range early; count only
                    // what the executor actually consumed.
                    let processed = self.ex.report().records.saturating_sub(before);
                    self.consumed += processed;
                    self.heartbeat.beat(self.consumed);
                    self.prune();
                    if processed == 0 {
                        // Only a fired crash fuse (which ends the loop)
                        // consumes nothing; never spin either way.
                        return;
                    }
                }
                Err(_) => {
                    // A real panic: the replay after the restart goes
                    // lane by lane through this range, so it re-hits
                    // the death at its exact index and every death
                    // there counts toward the poison verdict.
                    self.lane_until = self.lane_until.max(end);
                    if range.len() == 1 {
                        let unlocated = std::mem::take(&mut self.unlocated_death);
                        self.on_panic(i, 1 + u32::from(unlocated));
                    } else {
                        self.heartbeat.publish(ShardState::Dead);
                        self.health.panics_caught += 1;
                        self.unlocated_death = true;
                        self.restart();
                    }
                }
            }
        }
    }

    /// Offers `range`, the backlog's lanes from the consumption point
    /// on, to the executor.
    fn offer_range(&mut self, range: &RecordChunk) {
        #[cfg(test)]
        if let Some((p, fires)) = self.real_poison.filter(|&(p, fires)| {
            fires > 0 && p >= self.consumed && p - self.consumed < range.len() as u64
        }) {
            // The lanes before the poison are applied, then the
            // executor's work unwinds.
            self.real_poison = Some((p, fires - 1));
            let head = (p - self.consumed) as usize;
            self.ex.offer_chunk(&range.iter().take(head).collect());
            panic_any(InjectedShardPanic);
        }
        self.ex.offer_chunk(range);
    }

    /// The first index at or after `i` where supervision must act
    /// between records: the armed panic index (while it still fires),
    /// the armed stall index (until handled), or a quarantined record.
    fn next_event(&self, i: u64) -> u64 {
        let panic = self
            .fault
            .panic_at_record
            .filter(|&p| self.panic_fires_left > 0 && p >= i);
        let stall = self
            .fault
            .stall_at_record
            .filter(|&p| !self.stall_handled && p >= i);
        let poison = self
            .health
            .poisoned
            .iter()
            .map(|p| p.index)
            .filter(|&p| p >= i);
        panic
            .into_iter()
            .chain(stall)
            .chain(poison)
            .min()
            .unwrap_or(u64::MAX)
    }

    fn is_poisoned(&self, i: u64) -> bool {
        self.health.poisoned.iter().any(|p| p.index == i)
    }

    /// A panic escaped a one-lane range (or the injected fuse fired) at
    /// shard-local index `i`: track consecutive kills — `deaths` of
    /// them, counting an earlier unlocated death this one locates —
    /// quarantine at the threshold, and restart from the checkpoint
    /// either way.
    fn on_panic(&mut self, i: u64, deaths: u32) {
        self.heartbeat.publish(ShardState::Dead);
        self.health.panics_caught += 1;
        if self.fault.panic_at_record == Some(i) && self.panic_fires_left > 0 {
            self.panic_fires_left -= 1;
        }
        if self.last_panic_index == Some(i) {
            self.panic_attempts += deaths;
        } else {
            self.last_panic_index = Some(i);
            self.panic_attempts = deaths;
        }
        if self.panic_attempts >= self.policy.poison_threshold {
            let record = self.buf[(i - self.buf_start) as usize];
            self.health.poisoned.push(PoisonRecord {
                shard: self.shard,
                index: i,
                record,
                attempts: self.panic_attempts,
                queries: self.queries.clone(),
            });
            self.last_panic_index = None;
            self.panic_attempts = 0;
            // Quarantined: the range cut at `i` now isolates it, so the
            // replay need not go lane by lane.
            self.lane_until = 0;
        }
        self.restart();
    }

    /// The stall arbiter. Both thresholds are anchored at the stalled
    /// record's own index — a pure stream position — never at queue
    /// depth or arrival timing, so the verdict (self-resume vs. stuck)
    /// and its firing point are identical across runs.
    fn check_stall(&mut self) {
        if !self.stalled {
            return;
        }
        let s = self.fault.stall_at_record.unwrap_or(0);
        if self.fault.stall_records <= self.policy.stall_deadline {
            // The stall clears on its own before the deadline.
            if self.received >= s.saturating_add(self.fault.stall_records) {
                self.stalled = false;
                self.stall_handled = true;
                self.heartbeat.publish(ShardState::Healthy);
            }
        } else if self.received >= s.saturating_add(self.policy.stall_deadline) {
            self.declare_stuck();
        }
    }

    /// Deadline expired (or the feed closed mid-stall): the shard is
    /// stuck; restart it from its checkpoint.
    fn declare_stuck(&mut self) {
        self.health.stalls_detected += 1;
        self.stalled = false;
        self.stall_handled = true;
        self.restart();
    }

    /// Rebuilds the shard from its store's newest epoch-aligned
    /// checkpoint and rewinds consumption to replay the tail from the
    /// buffer. Where the buffer no longer reaches the checkpoint, the
    /// gap is absorbed as explicit degradation instead of aborting.
    fn restart(&mut self) {
        self.heartbeat.publish(ShardState::Restarting);
        self.health.restarts += 1;
        let restarts = self.ex.report().shard_restarts + 1;
        let (mut ex, hwm, stale) = match self.ex.store_handle() {
            Some(store) => self.restart_from_store(store),
            // Nothing is durable: start fresh and replay the buffer.
            None => (self.cfg.build(), 0, false),
        };
        ex.note_restarts(restarts);
        let resume = hwm.max(self.buf_start);
        let gap = self.buf_start.saturating_sub(hwm);
        if stale {
            // The gap exists because recovery had to fall back past an
            // unreadable newer generation: the records are lost to
            // staleness, not buffer overrun, and the bounds ledger
            // accounts them under the distinct stale-fallback class.
            ex.absorb_stale_loss(gap);
        } else {
            ex.absorb_replay_gap(gap);
        }
        self.health.records_replayed += self.consumed.saturating_sub(resume);
        self.consumed = resume;
        self.ex = ex;
        self.heartbeat.publish(ShardState::Healthy);
    }

    /// Recovers from the newest readable generation, degrading to older
    /// ones (quarantining corrupt candidates) as
    /// [`StoreHandle::recover_executor`] dictates. Returns
    /// `(executor, hwm, stale)` where `stale` reports whether any
    /// fallback happened — it decides which loss class an uncovered
    /// replay gap lands in.
    fn restart_from_store(&self, store: StoreHandle) -> (Executor, u64, bool) {
        let recovery = store.recover_executor(&self.cfg);
        let stale = recovery.fallbacks > 0;
        let hwm = recovery.records_hwm;
        match recovery.executor {
            // If the replay buffer no longer reaches the checkpoint,
            // recover the bare boundary state: the write-ahead log holds
            // mid-epoch evictions from the very records the gap declares
            // lost, and replaying it would smuggle part of their
            // contribution back in — making the degradation ledger
            // overcount the loss. Dropping the open-epoch suffix keeps
            // `records_unreplayed` exact: every gap record is wholly
            // lost, every buffered record is wholly re-processed. The
            // ladder above already settled on the generation, so this
            // reads the same one again.
            Some(ex) if self.buf_start > hwm => match store.recover_artifacts() {
                Ok(Some(art)) => {
                    let bare =
                        self.cfg
                            .build()
                            .recover_onto(store, &art.snapshot, &EvictionLog::new());
                    bare.map_or((ex, hwm, stale), |bare| (bare, hwm, stale))
                }
                _ => (ex, hwm, stale),
            },
            Some(ex) => (ex, hwm, stale),
            // Nothing durable was readable: start fresh with the store
            // re-attached so a genesis checkpoint re-seeds durability.
            None => (self.cfg.build().with_store(store), 0, stale),
        }
    }

    /// Advances the replay buffer's floor: nothing below the last
    /// committed checkpoint's high-water mark is ever replayed again,
    /// and the processed prefix behind the consumption point is bounded
    /// by [`SupervisorPolicy::replay_capacity`].
    fn prune(&mut self) {
        let hwm = self.ex.last_commit().map_or(0, |(_, hwm)| hwm);
        let floor = hwm
            .max(self.consumed.saturating_sub(self.policy.replay_capacity))
            .min(self.consumed);
        while self.buf_start < floor {
            self.buf.pop_front();
            self.buf_start += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::RunReport;
    use crate::plan::PhysicalPlan;
    use crate::CostParams;
    use std::sync::Arc;

    /// 4 096 records in 500-record epochs, so checkpoints fall every
    /// 500 records and the feed's 1 024-record batches straddle them.
    fn stream() -> Vec<Record> {
        (0..4096u32)
            .map(|i| Record::new(&[i % 7, i % 5, i % 3, 0], u64::from(i) * 100))
            .collect()
    }

    fn config() -> ExecutorConfig {
        let plan = PhysicalPlan::flat([
            (AttrSet::parse("A").unwrap(), 4),
            (AttrSet::parse("B").unwrap(), 4),
        ]);
        let mut cfg = ExecutorConfig::new(plan, CostParams::paper(), 50_000, 7);
        cfg.durable = true;
        cfg
    }

    /// Runs the supervised shard over [`stream`] with a real poison at
    /// index `p` firing `fires` times; returns what it left plus the
    /// driver's one-lane window and consumption point before close.
    fn drive(fault: ShardFault, p: u64, fires: u32) -> (RunReport, ShardHealth, u64, u64) {
        let cfg = config();
        let heartbeat = Arc::new(ShardHeartbeat::default());
        let mut driver = ShardDriver::new(
            0,
            cfg.clone(),
            cfg.build(),
            fault,
            SupervisorPolicy::default(),
            heartbeat,
        );
        driver.real_poison = Some((p, fires));
        for window in stream().chunks(PROCESSING_WINDOW_SIZE) {
            driver.feed(window);
        }
        let (lane_until, consumed) = (driver.lane_until, driver.consumed);
        let (ex, health) = driver.close();
        let (report, _) = ex.finish();
        (report, health, lane_until, consumed)
    }

    /// The fault-free run of [`stream`] without the record at `skip`.
    fn without(skip: Option<u64>) -> RunReport {
        let kept: Vec<Record> = stream()
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| Some(i as u64) != skip)
            .map(|(_, r)| r)
            .collect();
        let mut ex = config().build();
        ex.run(&kept);
        ex.finish().0
    }

    #[test]
    fn a_death_inside_a_multi_lane_range_counts_toward_quarantine() {
        // The first death escapes the range [1024, 2048) with no index;
        // the lane-by-lane replay locates it and two more deaths there
        // reach the threshold: three deaths, three restarts.
        let p = 1537;
        let (report, health, lane_until, _) = drive(ShardFault::none(), p, u32::MAX);
        assert_eq!(health.panics_caught, 3);
        assert_eq!(health.restarts, 3);
        assert_eq!(health.poisoned.len(), 1);
        assert_eq!(health.poisoned[0].index, p);
        assert_eq!(health.poisoned[0].attempts, 3);
        // The quarantine ended the one-lane window.
        assert_eq!(lane_until, 0);
        let mut want = without(Some(p));
        want.records += 1;
        want.records_poisoned += 1;
        want.shard_restarts = 3;
        assert_eq!(report, want);
    }

    #[test]
    fn a_death_in_a_one_lane_range_replays_lane_by_lane() {
        // The stall armed at 1025 cuts the range at 1024 to one lane.
        // Every replay of the death there must go lane by lane, so each
        // of the three deaths is located and counted.
        let p = 1024;
        let (report, health, _, _) = drive(ShardFault::stall_at(p + 1, 1), p, u32::MAX);
        assert_eq!(health.panics_caught, 3);
        assert_eq!(health.restarts, 3);
        assert_eq!(health.poisoned.len(), 1);
        assert_eq!(health.poisoned[0].index, p);
        assert_eq!(health.poisoned[0].attempts, 3);
        let mut want = without(Some(p));
        want.records += 1;
        want.records_poisoned += 1;
        want.shard_restarts = 3;
        assert_eq!(report, want);
    }

    #[test]
    fn a_death_that_does_not_repeat_leaves_the_one_lane_window() {
        let p = 1537;
        let (report, health, lane_until, consumed) = drive(ShardFault::none(), p, 1);
        assert_eq!(health.panics_caught, 1);
        assert_eq!(health.restarts, 1);
        assert!(health.poisoned.is_empty());
        // One lane at a time only to the end of the range that died.
        assert_eq!(lane_until, 2 * PROCESSING_WINDOW_SIZE as u64);
        assert!(consumed > lane_until);
        let mut want = without(None);
        want.shard_restarts = 1;
        assert_eq!(report, want);
    }
}
