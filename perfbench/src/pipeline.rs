//! `trace_ingest` and `epochs_durable`: one `ShardedExecutor` with one
//! shard, which runs on the caller's thread. Each epoch is fed by `run`
//! and closed by `align_to_epoch`; `finish` ends the repetition.
//!
//! The traced repetition makes exactly the calls the untraced one
//! makes, each inside a span, and reads the run report's counters
//! between them (`shard(0).report()`).

use crate::backend::{CountingBackend, Ledger};
use crate::trace::{timed, Tracer};
use crate::workload::{Answer, Counters, Input, Layers, Rep, Results, StoreAudit};
use msa_core::{
    CheckpointStore, CostParams, DatasetStats, LinearModel, Plan, Planner, PlannerOptions,
    ShardedExecutor, SimBackend, StoreHandle,
};
use msa_optimizer::cost::{per_record_cost, CostContext};
use msa_stream::AttrSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The serial deployment: one shard, on the caller's thread.
pub const SHARDS: usize = 1;

/// On traced durable repetitions, the snapshot of every this many
/// closes is copied and re-encoded.
const ENCODE_EVERY: usize = 8;

/// How a pipeline workload deploys its plan.
#[derive(Clone, Copy, Debug)]
pub struct Deployment {
    /// LFTA memory budget the plan is sized for, in 4-byte words.
    pub m_words: f64,
    /// Checkpoint every epoch into a store on `SimBackend`.
    pub durable: bool,
    /// Leading records the statistics are computed from.
    pub stats_prefix: usize,
}

/// Statistics over the query universe from the first `prefix` records,
/// with flow lengths derived the paper's way (bucket-level run lengths,
/// §4.3), as the engine computes them from its bootstrap buffer.
pub fn bootstrap_stats(input: &Input, prefix: usize) -> DatasetStats {
    let sample = &input.records[..prefix.min(input.records.len())];
    let universe = input
        .queries
        .iter()
        .fold(AttrSet::EMPTY, |u, q| u.union(*q));
    let mut stats = DatasetStats::compute(sample, universe);
    let sets: Vec<AttrSet> = stats.known_sets().collect();
    for (set, l) in
        msa_gigascope::table::temporal_flow_lengths(sample, &sets, 2048, input.seed ^ 0xF10)
    {
        stats.set_flow_length(set, l);
    }
    stats
}

/// GCSL at `m_words` with the paper's linear collision model and costs.
pub fn plan(queries: &[AttrSet], stats: &DatasetStats, m_words: f64) -> Plan {
    let model = LinearModel::paper_no_intercept();
    let options = PlannerOptions::new(m_words);
    Planner::new(queries, stats, &model, &options).plan(&options)
}

/// What the cost model predicts for `plan` over `input`.
pub struct Prediction {
    /// Eq. 7 per record plus Eq. 8 per epoch, per record, in `c1`.
    pub cost_c1_per_record: f64,
    /// Predicted HFTA evictions per intra-epoch probe.
    pub collision_rate: f64,
}

/// The model's figures for `plan` over `input`: `E_m` per record (Eq.
/// 7) plus `E_u` (Eq. 8) once per closed epoch, and the ratio of the
/// eviction term of Eq. 7 to its probe term.
pub fn predict(plan: &Plan, stats: &DatasetStats, input: &Input) -> Prediction {
    let model = LinearModel::paper_no_intercept();
    let mut ctx = CostContext::new(stats, &model);
    let records = input.records.len().max(1) as f64;
    let closes = input.epochs.len() as f64;
    let cost_c1_per_record = plan.predicted_cost + plan.predicted_update_cost * closes / records;
    ctx.params = CostParams { c1: 1.0, c2: 0.0 };
    let probes = per_record_cost(&plan.configuration, &plan.allocation, &ctx);
    ctx.params = CostParams { c1: 0.0, c2: 1.0 };
    let evictions = per_record_cost(&plan.configuration, &plan.allocation, &ctx);
    Prediction {
        cost_c1_per_record,
        collision_rate: if probes > 0.0 {
            evictions / probes
        } else {
            0.0
        },
    }
}

/// A store on an in-memory `SimBackend`, behind the counting wrapper.
fn open_store() -> (StoreHandle, Arc<Ledger>) {
    let (backend, ledger) = CountingBackend::new(SimBackend::new());
    let store = CheckpointStore::open(Box::new(backend))
        .expect("an empty SimBackend without faults always opens");
    (StoreHandle::new(store), ledger)
}

/// Reads the store's counters, then recovers the newest generation and
/// scrubs the store.
fn audit(handle: &StoreHandle, ledger: &Ledger) -> StoreAudit {
    let stats = handle.stats();
    let backend = ledger.counts();
    let generation = handle.generation();
    let t = Instant::now();
    let recovered = handle.recover_artifacts();
    let recover_ms = t.elapsed().as_secs_f64() * 1e3;
    let verdict = match recovered {
        Ok(Some(a))
            if a.generation == generation && a.fallbacks == 0 && a.torn_entries_dropped == 0 =>
        {
            match handle.scrub() {
                Ok(r) if r.generations_quarantined.is_empty() && r.torn_tails == 0 => Ok(()),
                Ok(r) => Err(format!("store scrub found damage: {r:?}")),
                Err(e) => Err(format!("store scrub failed: {e}")),
            }
        }
        Ok(Some(a)) => Err(format!(
            "recovered generation {} (fallbacks {}, torn entries {}), newest is {generation}",
            a.generation, a.fallbacks, a.torn_entries_dropped
        )),
        Ok(None) => Err("nothing to recover from the store".into()),
        Err(e) => Err(format!("store recovery failed: {e}")),
    };
    StoreAudit {
        stats,
        backend,
        recover_ms,
        verdict,
    }
}

/// Time the benchmark spends on its own work inside a repetition, which
/// the repetition's timings leave out.
#[derive(Default)]
pub struct Aside(pub Duration);

impl Aside {
    /// Runs `f`, adding its wall time to the total.
    pub fn run<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.0 += t.elapsed();
        out
    }
}

/// One repetition. With a tracer, every call into the program runs in
/// a span and the layer figures are filled in.
pub fn run(dep: Deployment, input: &Input, mut tracer: Option<&mut Tracer>) -> Rep {
    let traced = tracer.is_some();
    let mut aside = Aside::default();
    let t0 = Instant::now();
    let stats = timed(&mut tracer, "stream.stats", || {
        bootstrap_stats(input, dep.stats_prefix)
    });
    let plan = timed(&mut tracer, "optimizer.plan", || {
        plan(&input.queries, &stats, dep.m_words)
    });
    let store = dep
        .durable
        .then(|| timed(&mut tracer, "store.open", open_store));
    if let (Some(t), Some((_, ledger))) = (tracer.as_deref_mut(), &store) {
        t.watch_backend(Arc::clone(ledger));
    }
    let mut sx = timed(&mut tracer, "lfta.build", || {
        let sx = ShardedExecutor::new(
            plan.to_physical(),
            CostParams::paper(),
            input.epoch_micros,
            input.seed,
            SHARDS,
        )
        .expect("the deployment has one shard");
        match &store {
            Some((handle, _)) => sx.with_stores(vec![handle.clone()]),
            None => sx,
        }
    });
    let setup_s = t0.elapsed().as_secs_f64();

    let mut layers = Layers::default();
    if traced {
        let p = aside.run(|| predict(&plan, &stats, input));
        layers.predicted_cost_c1_per_record = p.cost_c1_per_record;
        layers.predicted_collision_rate = p.collision_rate;
    }
    let ledger = store.as_ref().map(|(_, l)| Arc::clone(l));
    let counters = |sx: &ShardedExecutor| Counters::of(sx.shard(0).report());
    let mut close_ms = Vec::with_capacity(input.epochs.len());
    let t_feed = Instant::now();
    let aside_before_feed = aside.0;
    for (e, range) in input.epochs.iter().enumerate() {
        let batch = &input.records[range.clone()];
        let before = traced.then(|| counters(&sx));
        timed(&mut tracer, "lfta.ingest", || sx.run(batch));
        let fed = traced.then(|| counters(&sx));
        let capture = traced && dep.durable && (e + 1) % ENCODE_EVERY == 0;
        if let (true, Some(l)) = (capture, &ledger) {
            l.capture_next_snapshot();
        }
        let t = Instant::now();
        timed(&mut tracer, "lfta.flush", || {
            sx.align_to_epoch(e as u64 + 1)
        });
        close_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let (Some(t), Some(before), Some(fed)) = (tracer.as_deref(), before, fed) {
            let closed = counters(&sx);
            let (intra, flush) = (fed.since(before), closed.since(fed));
            let spans = t.spans();
            let ingest_ns = spans[spans.len() - 2].self_ns() as f64;
            let flush_ns = spans[spans.len() - 1].self_ns() as f64;
            layers.ingested += batch.len() as u64;
            layers.flush_counts.push(flush);
            layers.flush_ms.push(flush_ns / 1e6);
            layers
                .cost_samples
                .push((intra.probes() as f64, intra.evictions() as f64, ingest_ns));
            layers
                .cost_samples
                .push((flush.probes() as f64, flush.evictions() as f64, flush_ns));
        }
        if let (true, Some(l)) = (capture, &ledger) {
            if let Some(ms) = aside.run(|| reencode_ms(l)) {
                layers.encode_ms.push(ms);
            }
        }
    }
    // The bounds are read between the last close and `finish`, the only
    // place they can be, and are not part of the feed time.
    let t = Instant::now();
    let bounds = timed(&mut tracer, "bounds.report", || sx.bounds());
    let bounds_s = t.elapsed().as_secs_f64();
    let (report, hfta) = timed(&mut tracer, "hfta.finish", || sx.finish());
    let feed_s = (t_feed.elapsed() - (aside.0 - aside_before_feed)).as_secs_f64() - bounds_s;
    let wall_s = (t0.elapsed() - aside.0).as_secs_f64();
    let store = store.map(|(handle, ledger)| audit(&handle, &ledger));
    Rep {
        setup_s,
        feed_s,
        wall_s,
        close_ms,
        answer: Answer {
            report,
            results: Results::Hfta(hfta),
            replans: 0,
            repairs: 0,
        },
        bounds,
        store,
        layers: traced.then_some(layers),
    }
}

/// Decodes the snapshot the backend copied and times encoding it
/// again, in ms.
fn reencode_ms(ledger: &Ledger) -> Option<f64> {
    let bytes = ledger.take_captured()?;
    let snapshot = msa_core::Snapshot::decode(&bytes).ok()?;
    let t = Instant::now();
    std::hint::black_box(snapshot.encode());
    Some(t.elapsed().as_secs_f64() * 1e3)
}
