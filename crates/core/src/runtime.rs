//! The adaptive runtime: drift detection → background re-planning →
//! epoch-boundary hot-swap, with rollback and record-counted backoff.
//!
//! [`crate::MultiAggregator`] adapts by *retiring* its serial executor
//! and starting a fresh one — correct, but the new executor starts
//! cold. This module is the sharded, transactional version: an
//! [`AdaptiveRuntime`] wraps a [`ShardedExecutor`], watches the live
//! per-table collision telemetry against the cost model's predictions,
//! re-plans in the background when they diverge beyond a margin, and
//! installs the winning plan through the hot-swap transaction of
//! [`msa_gigascope::swap`] — every counter, finished result and
//! degradation promise carried over bit-exactly, with automatic
//! rollback (and a `replans_rolled_back` tick) if the handoff fails
//! validation.
//!
//! Everything is record-counted and seeded: drift checks fire at epoch
//! boundaries, swaps execute at the *next* boundary after they are
//! staged (so a staged transaction is an observable state —
//! [`MsaError::MidSwapMutation`]), and a rollback backs off for a
//! doubling number of epochs before the detector may stage again.
//! Runtime query add/remove ride the same transaction, so a query set
//! change is exactly as safe as a re-plan.

use crate::adaptive::{calibration_points, drift, refine_stats, AdaptivePolicy};
use crate::error::MsaError;
use msa_collision::LinearModel;
use msa_gigascope::executor::ValueSource;
use msa_gigascope::{
    BoundsReport, CostParams, FaultPlan, GuardPolicy, Hfta, RunReport, ShardedExecutor, SwapFault,
    SwapReport,
};
use msa_optimizer::cost::{rates, CostContext};
use msa_optimizer::{propose_replan, Algorithm, ClusterHandling, Plan, Planner, PlannerOptions};
use msa_stream::{AttrSet, DatasetStats, Record};

/// Knobs of the adaptive loop, layered on [`AdaptivePolicy`] (the drift
/// detector's thresholds).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RuntimePolicy {
    /// Drift-detector thresholds (check cadence, relative deviation,
    /// noise floor).
    pub adaptive: AdaptivePolicy,
    /// Stage a swap only when the candidate plan's predicted
    /// total-cost improvement clears this relative margin — the same
    /// margin the acceptance drill checks post-swap collision rates
    /// against.
    pub improvement_margin: f64,
    /// Epochs to wait after a rollback before the detector may stage
    /// again; doubles on every consecutive rollback and resets on
    /// commit. Record-counted (epochs close on record timestamps,
    /// never wall-clock).
    pub backoff_epochs: u64,
    /// Before concluding the *data* drifted, refit the collision
    /// model's slope µ through the live telemetry and re-check: a pure
    /// model miscalibration then updates the model and keeps the plan,
    /// paying no swap pause.
    pub recalibrate: bool,
}

impl Default for RuntimePolicy {
    fn default() -> RuntimePolicy {
        RuntimePolicy {
            adaptive: AdaptivePolicy::default(),
            improvement_margin: 0.05,
            backoff_epochs: 2,
            recalibrate: true,
        }
    }
}

impl RuntimePolicy {
    /// A policy that never re-plans: the static baseline of the
    /// differential matrix. The runtime still supports explicit
    /// [`AdaptiveRuntime::request_replan`] and query mutations.
    pub fn frozen() -> RuntimePolicy {
        RuntimePolicy {
            adaptive: AdaptivePolicy {
                drift_threshold: f64::INFINITY,
                ..AdaptivePolicy::default()
            },
            ..RuntimePolicy::default()
        }
    }
}

/// Construction options for an [`AdaptiveRuntime`].
#[derive(Clone, Debug)]
pub struct RuntimeOptions {
    /// LFTA memory budget in 4-byte words.
    pub m_words: f64,
    /// Epoch length in microseconds.
    pub epoch_micros: u64,
    /// Hash seed (shards derive their own deterministically).
    pub seed: u64,
    /// Shard count.
    pub shards: usize,
    /// Phantom-choice algorithm.
    pub algorithm: Algorithm,
    /// Probe / eviction costs.
    pub params: CostParams,
    /// Flow-length handling.
    pub clustering: ClusterHandling,
    /// The adaptive loop's knobs.
    pub policy: RuntimePolicy,
    /// Every shard checkpoints into a fresh in-memory store (required
    /// for swap crash drills).
    pub durable: bool,
    /// Overload guard policy, applied per shard with budget shares.
    pub guard: Option<GuardPolicy>,
    /// Channel-level fault injection.
    pub faults: Option<FaultPlan>,
    /// Metric-value source for SUM/MIN/MAX aggregates.
    pub value_source: ValueSource,
    /// Starting collision model — inject an offline-calibrated slope
    /// here (e.g. from [`crate::adaptive::calibration_points`]) when
    /// the deployment should trust measured collision behaviour over
    /// the paper's constants.
    pub model: LinearModel,
}

impl RuntimeOptions {
    /// Defaults for a budget of `m_words`: one shard, 1 s epochs,
    /// default adaptive policy, no durability, no guard.
    pub fn new(m_words: f64) -> RuntimeOptions {
        RuntimeOptions {
            m_words,
            epoch_micros: 1_000_000,
            seed: 0,
            shards: 1,
            algorithm: Algorithm::default(),
            params: CostParams::paper(),
            clustering: ClusterHandling::default(),
            policy: RuntimePolicy::default(),
            durable: false,
            guard: None,
            faults: None,
            value_source: ValueSource::None,
            model: LinearModel::paper_no_intercept(),
        }
    }
}

/// Why a swap was staged — carried into the [`ReplanEvent`] record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplanTrigger {
    /// The drift detector fired and the background re-planner's
    /// candidate cleared the improvement margin.
    Drift,
    /// An explicit [`AdaptiveRuntime::request_replan`].
    Requested,
    /// A runtime [`AdaptiveRuntime::add_query`].
    AddQuery,
    /// A runtime [`AdaptiveRuntime::remove_query`].
    RemoveQuery,
}

/// One executed hot-swap transaction, as the runtime saw it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplanEvent {
    /// What staged the transaction.
    pub trigger: ReplanTrigger,
    /// The transaction's epoch and outcome.
    pub report: SwapReport,
    /// Measured drift at staging time (0 for explicit triggers).
    pub drift: f64,
    /// Predicted relative improvement of the staged plan.
    pub improvement: f64,
}

/// Everything a finished adaptive run produced.
#[derive(Clone, Debug)]
pub struct RuntimeOutput {
    /// Merged cost/throughput report (including the
    /// `replans_committed` / `replans_rolled_back` ledger).
    pub report: RunReport,
    /// Merged host-side combiner with every closed epoch's exact
    /// results — retired queries included.
    pub hfta: Hfta,
    /// Every executed swap transaction, in order.
    pub replans: Vec<ReplanEvent>,
    /// The query set deployed at the end of the run.
    pub queries: Vec<AttrSet>,
}

struct StagedSwap {
    plan: Plan,
    queries: Vec<AttrSet>,
    at_epoch: u64,
    trigger: ReplanTrigger,
    drift: f64,
    improvement: f64,
}

/// The adaptive deployment: a [`ShardedExecutor`] plus the closed loop
/// that keeps its plan matched to the stream.
pub struct AdaptiveRuntime {
    opts: RuntimeOptions,
    queries: Vec<AttrSet>,
    stats: DatasetStats,
    model: LinearModel,
    plan: Plan,
    exec: ShardedExecutor,
    staged: Option<StagedSwap>,
    swap_fault: SwapFault,
    replans: Vec<ReplanEvent>,
    epochs_since_check: u64,
    last_epoch_seen: Option<u64>,
    backoff_until: u64,
    backoff_len: u64,
}

impl AdaptiveRuntime {
    /// Plans `queries` against `stats` and deploys the plan.
    pub fn new(
        queries: Vec<AttrSet>,
        stats: DatasetStats,
        opts: RuntimeOptions,
    ) -> Result<AdaptiveRuntime, MsaError> {
        if queries.is_empty() {
            return Err(MsaError::State("need at least one query"));
        }
        let model = opts.model;
        let plan = plan_for(&queries, &stats, &model, &opts);
        let exec = deploy(&plan, &opts)?;
        Ok(AdaptiveRuntime {
            backoff_len: opts.policy.backoff_epochs.max(1),
            opts,
            queries,
            stats,
            model,
            plan,
            exec,
            staged: None,
            swap_fault: SwapFault::none(),
            replans: Vec::new(),
            epochs_since_check: 0,
            last_epoch_seen: None,
            backoff_until: 0,
        })
    }

    /// The plan currently deployed.
    pub fn current_plan(&self) -> &Plan {
        &self.plan
    }

    /// The query set currently deployed, in slot order.
    pub fn queries(&self) -> &[AttrSet] {
        &self.queries
    }

    /// The current statistics belief.
    pub fn stats(&self) -> &DatasetStats {
        &self.stats
    }

    /// The collision model in use (recalibration may have refit µ).
    pub fn model(&self) -> LinearModel {
        self.model
    }

    /// Every executed swap so far.
    pub fn replans(&self) -> &[ReplanEvent] {
        &self.replans
    }

    /// True when a transaction is staged for the next epoch boundary.
    pub fn swap_staged(&self) -> bool {
        self.staged.is_some()
    }

    /// Live degraded-answer bounds (see [`ShardedExecutor::bounds`]).
    pub fn bounds(&self) -> BoundsReport {
        self.exec.bounds()
    }

    /// The underlying deployment (telemetry inspection).
    pub fn executor(&self) -> &ShardedExecutor {
        &self.exec
    }

    /// Arms a one-shot [`SwapFault`] consumed by the next executed
    /// transaction — the rollback and crash drills.
    pub fn with_swap_fault(&mut self, fault: SwapFault) {
        self.swap_fault = fault;
    }

    /// Measured drift of the live telemetry against the deployed
    /// plan's predicted collision rates.
    pub fn current_drift(&self) -> f64 {
        let ctx = self.cost_context();
        let predicted = rates(&self.plan.configuration, &self.plan.allocation, &ctx);
        drift(
            &predicted,
            &self.exec.table_stats(),
            &self.opts.policy.adaptive,
        )
    }

    /// Unconditionally re-plans against the current statistics belief
    /// and stages the result for the next epoch boundary (drills,
    /// benches). Fails with [`MsaError::MidSwapMutation`] if a
    /// transaction is already staged.
    pub fn request_replan(&mut self) -> Result<(), MsaError> {
        if self.staged.is_some() {
            return Err(MsaError::MidSwapMutation);
        }
        let observed = self.exec.table_stats();
        let refined = refine_stats(
            &self.stats,
            &self.plan.configuration,
            &self.plan.allocation,
            &self.model,
            &observed,
            &self.opts.policy.adaptive,
        );
        let proposal = propose_replan(
            &self.queries,
            &refined,
            &self.model,
            &self.planner_options(),
            &self.plan,
        );
        self.stats = refined;
        self.stage(StagedSwap {
            plan: proposal.plan,
            queries: self.queries.clone(),
            at_epoch: self.exec.current_epoch() + 1,
            trigger: ReplanTrigger::Requested,
            drift: 0.0,
            improvement: proposal.improvement,
        });
        Ok(())
    }

    /// Adds `query` to the deployment through the hot-swap path: the
    /// new plan (covering the extended query set) installs at the next
    /// epoch boundary; history of existing queries is untouched.
    pub fn add_query(&mut self, query: AttrSet) -> Result<(), MsaError> {
        if self.staged.is_some() {
            return Err(MsaError::MidSwapMutation);
        }
        if self.queries.contains(&query) {
            return Err(MsaError::DuplicateQuery(query));
        }
        // A never-observed relation needs a cardinality prior to plan
        // with: the product of its attributes' known marginals, capped
        // by the record count — coarse, but the drift loop corrects it
        // from live telemetry within a few epochs.
        if self.stats.groups_opt(query).is_none() {
            let mut est: f64 = 1.0;
            for a in query.iter() {
                let single = AttrSet::single(a);
                est *= self.stats.groups_opt(single).map_or(32.0, |g| g as f64);
            }
            let est = est.min(self.stats.records() as f64).max(1.0);
            self.stats.set_groups(query, est.round() as usize);
        }
        let mut queries = self.queries.clone();
        queries.push(query);
        self.stage_mutation(queries, ReplanTrigger::AddQuery);
        Ok(())
    }

    /// Removes `query` from the deployment through the hot-swap path.
    /// Its already-finished epochs stay in the merged output.
    pub fn remove_query(&mut self, query: AttrSet) -> Result<(), MsaError> {
        if self.staged.is_some() {
            return Err(MsaError::MidSwapMutation);
        }
        if !self.queries.contains(&query) {
            return Err(MsaError::UnknownQuery(query));
        }
        if self.queries.len() == 1 {
            return Err(MsaError::State("cannot remove the last query"));
        }
        let queries: Vec<AttrSet> = self
            .queries
            .iter()
            .copied()
            .filter(|&q| q != query)
            .collect();
        self.stage_mutation(queries, ReplanTrigger::RemoveQuery);
        Ok(())
    }

    /// Feeds `records` (timestamp-ordered), executing staged swaps and
    /// running the drift detector at every epoch boundary crossed.
    pub fn run(&mut self, records: &[Record]) -> Result<(), MsaError> {
        let em = self.opts.epoch_micros.max(1);
        let mut i = 0;
        while i < records.len() {
            let epoch = records[i].ts_micros / em;
            let end = i + records[i..].partition_point(|r| r.ts_micros / em == epoch);
            self.enter_epoch(epoch)?;
            self.exec.run(&records[i..end]);
            i = end;
        }
        Ok(())
    }

    /// Flushes the final epoch and merges everything. A swap still
    /// staged when the stream ends is abandoned (it never ran — no
    /// ledger tick).
    pub fn finish(mut self) -> RuntimeOutput {
        self.staged = None;
        let (report, hfta) = self.exec.finish();
        RuntimeOutput {
            report,
            hfta,
            replans: self.replans,
            queries: self.queries,
        }
    }

    fn planner_options(&self) -> PlannerOptions {
        PlannerOptions {
            m_words: self.opts.m_words,
            algorithm: self.opts.algorithm,
            params: self.opts.params,
            clustering: self.opts.clustering,
            peak_load: None,
        }
    }

    fn cost_context(&self) -> CostContext<'_> {
        CostContext {
            stats: &self.stats,
            model: &self.model,
            params: self.opts.params,
            clustering: self.opts.clustering,
        }
    }

    fn stage(&mut self, staged: StagedSwap) {
        self.staged = Some(staged);
    }

    fn stage_mutation(&mut self, queries: Vec<AttrSet>, trigger: ReplanTrigger) {
        let plan = plan_for(&queries, &self.stats, &self.model, &self.opts);
        self.stage(StagedSwap {
            plan,
            queries,
            at_epoch: self.exec.current_epoch() + 1,
            trigger,
            drift: 0.0,
            improvement: 0.0,
        });
    }

    /// The boundary hook: executes a due staged transaction, then runs
    /// the drift detector if a boundary was crossed.
    fn enter_epoch(&mut self, epoch: u64) -> Result<(), MsaError> {
        if self.staged.as_ref().is_some_and(|s| s.at_epoch <= epoch) {
            self.exec.align_to_epoch(epoch);
            self.execute_staged(epoch)?;
        }
        let crossed = match self.last_epoch_seen {
            Some(prev) if epoch > prev => epoch - prev,
            Some(_) => 0,
            None => 0,
        };
        self.last_epoch_seen = Some(epoch);
        if crossed == 0 {
            return Ok(());
        }
        self.epochs_since_check += crossed;
        let policy = self.opts.policy;
        if self.epochs_since_check < policy.adaptive.check_every_epochs
            || self.staged.is_some()
            || epoch < self.backoff_until
        {
            return Ok(());
        }
        self.epochs_since_check = 0;
        self.maybe_stage_replan(epoch);
        Ok(())
    }

    /// The drift detector + background re-planner (record-counted: runs
    /// inside the boundary hook, never on a clock).
    fn maybe_stage_replan(&mut self, epoch: u64) {
        let policy = self.opts.policy;
        let observed = self.exec.table_stats();
        let ctx = self.cost_context();
        let predicted = rates(&self.plan.configuration, &self.plan.allocation, &ctx);
        let d = drift(&predicted, &observed, &policy.adaptive);
        if d <= policy.adaptive.drift_threshold {
            return;
        }
        if policy.recalibrate {
            // Is the divergence a *model* error? Refit µ through the
            // believed cardinalities; if the refit model explains the
            // telemetry, adopt it and keep the plan.
            let pts = calibration_points(
                &self.stats,
                &self.plan.configuration,
                &self.plan.allocation,
                &observed,
                &policy.adaptive,
            );
            let refit = LinearModel::fit_through_intercept(self.model.alpha, pts);
            let refit_ctx = CostContext {
                stats: &self.stats,
                model: &refit,
                params: self.opts.params,
                clustering: self.opts.clustering,
            };
            let repredicted = rates(&self.plan.configuration, &self.plan.allocation, &refit_ctx);
            if drift(&repredicted, &observed, &policy.adaptive) <= policy.adaptive.drift_threshold {
                self.model = refit;
                self.exec.reset_table_stats();
                return;
            }
        }
        // The data drifted: refresh the statistics from the telemetry
        // and re-plan in the background.
        let refined = refine_stats(
            &self.stats,
            &self.plan.configuration,
            &self.plan.allocation,
            &self.model,
            &observed,
            &policy.adaptive,
        );
        let proposal = propose_replan(
            &self.queries,
            &refined,
            &self.model,
            &self.planner_options(),
            &self.plan,
        );
        self.stats = refined;
        if !proposal.clears(policy.improvement_margin) {
            // The refreshed statistics don't justify a swap pause; keep
            // the plan, watch a fresh window against the new belief.
            self.exec.reset_table_stats();
            return;
        }
        self.stage(StagedSwap {
            plan: proposal.plan,
            queries: self.queries.clone(),
            at_epoch: epoch + 1,
            trigger: ReplanTrigger::Drift,
            drift: d,
            improvement: proposal.improvement,
        });
    }

    /// Executes the staged transaction at the current boundary.
    fn execute_staged(&mut self, epoch: u64) -> Result<(), MsaError> {
        let Some(staged) = self.staged.take() else {
            return Ok(());
        };
        let fault = std::mem::take(&mut self.swap_fault);
        let report = self.exec.hot_swap(staged.plan.to_physical(), &fault)?;
        if report.outcome.committed() {
            self.plan = staged.plan;
            self.queries = staged.queries;
            self.backoff_len = self.opts.policy.backoff_epochs.max(1);
            self.backoff_until = 0;
        } else {
            // Record-counted doubling backoff: the detector stays quiet
            // for `backoff_len` epochs after a rollback, doubling on
            // each consecutive one.
            self.backoff_until = epoch + self.backoff_len;
            self.backoff_len = self.backoff_len.saturating_mul(2);
        }
        // Either way the swap window closed a statistics window.
        self.exec.reset_table_stats();
        self.replans.push(ReplanEvent {
            trigger: staged.trigger,
            report,
            drift: staged.drift,
            improvement: staged.improvement,
        });
        Ok(())
    }
}

fn plan_for(
    queries: &[AttrSet],
    stats: &DatasetStats,
    model: &LinearModel,
    opts: &RuntimeOptions,
) -> Plan {
    let options = PlannerOptions {
        m_words: opts.m_words,
        algorithm: opts.algorithm,
        params: opts.params,
        clustering: opts.clustering,
        peak_load: None,
    };
    Planner::new(queries, stats, model, &options).plan(&options)
}

fn deploy(plan: &Plan, opts: &RuntimeOptions) -> Result<ShardedExecutor, MsaError> {
    let mut exec = ShardedExecutor::new(
        plan.to_physical(),
        opts.params,
        opts.epoch_micros,
        opts.seed,
        opts.shards,
    )
    .map_err(|_| MsaError::State("a deployment needs at least one shard"))?
    .with_value_source(opts.value_source);
    if let Some(faults) = &opts.faults {
        exec = exec.with_faults(faults);
    }
    if let Some(guard) = opts.guard {
        exec = exec.with_guard(guard);
    }
    if opts.durable {
        exec = exec.with_durability();
    }
    Ok(exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msa_gigascope::SwapOutcome;
    use msa_stream::UniformStreamBuilder;

    fn s(x: &str) -> AttrSet {
        AttrSet::parse(x).unwrap()
    }

    fn base_stats() -> DatasetStats {
        DatasetStats::from_group_counts([(s("A"), 100), (s("B"), 100), (s("AB"), 2000)], 100_000)
    }

    #[test]
    fn mutations_while_staged_are_refused() {
        let mut rt = AdaptiveRuntime::new(
            vec![s("A"), s("B")],
            base_stats(),
            RuntimeOptions::new(10_000.0),
        )
        .unwrap();
        rt.request_replan().unwrap();
        assert!(rt.swap_staged());
        assert!(matches!(
            rt.add_query(s("AB")),
            Err(MsaError::MidSwapMutation)
        ));
        assert!(matches!(
            rt.remove_query(s("A")),
            Err(MsaError::MidSwapMutation)
        ));
        assert!(matches!(
            rt.request_replan(),
            Err(MsaError::MidSwapMutation)
        ));
    }

    #[test]
    fn duplicate_and_unknown_queries_are_refused() {
        let mut rt = AdaptiveRuntime::new(
            vec![s("A"), s("B")],
            base_stats(),
            RuntimeOptions::new(10_000.0),
        )
        .unwrap();
        assert!(matches!(
            rt.add_query(s("A")),
            Err(MsaError::DuplicateQuery(q)) if q == s("A")
        ));
        assert!(matches!(
            rt.remove_query(s("AB")),
            Err(MsaError::UnknownQuery(q)) if q == s("AB")
        ));
        let mut solo =
            AdaptiveRuntime::new(vec![s("A")], base_stats(), RuntimeOptions::new(10_000.0))
                .unwrap();
        assert!(matches!(solo.remove_query(s("A")), Err(MsaError::State(_))));
    }

    #[test]
    fn requested_replan_commits_at_the_next_boundary() {
        let stream = UniformStreamBuilder::new(2, 50)
            .records(6_000)
            .duration_secs(3.0)
            .seed(9)
            .build();
        let mut rt = AdaptiveRuntime::new(
            vec![s("A"), s("B")],
            base_stats(),
            RuntimeOptions::new(10_000.0),
        )
        .unwrap();
        rt.run(&stream.records[..2_000]).unwrap();
        rt.request_replan().unwrap();
        rt.run(&stream.records[2_000..]).unwrap();
        assert!(!rt.swap_staged(), "the boundary executed the swap");
        let out = rt.finish();
        assert_eq!(out.replans.len(), 1);
        assert!(out.replans[0].report.outcome.committed());
        assert_eq!(out.report.replans_committed, 1);
        assert_eq!(out.report.replans_rolled_back, 0);
        assert_eq!(out.report.records, 6_000);
    }

    #[test]
    fn forced_rollback_ticks_the_ledger_and_backs_off() {
        let stream = UniformStreamBuilder::new(2, 50)
            .records(8_000)
            .duration_secs(4.0)
            .seed(10)
            .build();
        let mut rt = AdaptiveRuntime::new(
            vec![s("A"), s("B")],
            base_stats(),
            RuntimeOptions::new(10_000.0),
        )
        .unwrap();
        rt.run(&stream.records[..2_000]).unwrap();
        rt.with_swap_fault(SwapFault::failing_validation());
        rt.request_replan().unwrap();
        rt.run(&stream.records[2_000..]).unwrap();
        let out = rt.finish();
        assert_eq!(out.replans.len(), 1);
        assert!(matches!(
            out.replans[0].report.outcome,
            SwapOutcome::RolledBack(_)
        ));
        assert_eq!(out.report.replans_committed, 0);
        assert_eq!(out.report.replans_rolled_back, 1);
        // Rollback leaves the results whole.
        assert_eq!(out.report.records, 8_000);
    }

    #[test]
    fn add_and_remove_query_flow_through_the_swap_path() {
        let stream = UniformStreamBuilder::new(2, 50)
            .records(9_000)
            .duration_secs(3.0)
            .seed(11)
            .build();
        let mut rt = AdaptiveRuntime::new(
            vec![s("A"), s("B")],
            base_stats(),
            RuntimeOptions::new(10_000.0),
        )
        .unwrap();
        rt.run(&stream.records[..3_000]).unwrap();
        rt.add_query(s("AB")).unwrap();
        rt.run(&stream.records[3_000..6_000]).unwrap();
        assert_eq!(rt.queries().len(), 3);
        rt.remove_query(s("B")).unwrap();
        rt.run(&stream.records[6_000..]).unwrap();
        assert_eq!(rt.queries(), &[s("A"), s("AB")]);
        let out = rt.finish();
        assert_eq!(out.report.replans_committed, 2);
        // The removed query's closed epochs survive in the output.
        let b_total: u64 = out.hfta.totals(s("B")).values().sum();
        assert!(b_total > 0, "retired query history kept");
        assert_eq!(out.report.records, 9_000);
    }
}
