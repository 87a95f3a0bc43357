//! What the workloads share: the pre-generated input, the outcome of
//! one repetition, the per-epoch counters the traced run differences,
//! and the correctness gate.

use crate::backend::Counts;
use crate::reference::Reference;
use msa_core::{AttrSet, BoundsReport, Record, RunReport, StoreStats};
use msa_gigascope::hfta::EpochResult;
use msa_gigascope::table::AggState;
use msa_gigascope::Hfta;
use msa_stream::hash::mix64;
use msa_stream::GroupKey;
use std::ops::Range;

/// A workload's input, generated from the seed before anything is
/// timed, with its reference answer.
pub struct Input {
    /// The stream, in timestamp order.
    pub records: Vec<Record>,
    /// Record range of each epoch, epoch 0 first.
    pub epochs: Vec<Range<usize>>,
    /// Epoch length.
    pub epoch_micros: u64,
    /// The aggregation queries.
    pub queries: Vec<AttrSet>,
    /// Attribute slot whose values are summed, if any.
    pub value_attr: Option<u8>,
    /// Seed for the program's own hashing.
    pub seed: u64,
    /// The exact answer.
    pub reference: Reference,
}

impl Input {
    /// Splits `records` (which must be in timestamp order) into
    /// consecutive epochs of `epoch_micros` and builds the reference.
    pub fn new(
        records: Vec<Record>,
        epoch_micros: u64,
        queries: Vec<AttrSet>,
        value_attr: Option<u8>,
        seed: u64,
    ) -> Input {
        assert!(
            records.windows(2).all(|w| w[0].ts_micros <= w[1].ts_micros),
            "generated streams are in timestamp order"
        );
        let epochs = split_epochs(&records, epoch_micros);
        let reference = Reference::build(&records, &epochs, &queries, value_attr.map(usize::from));
        Input {
            records,
            epochs,
            epoch_micros,
            queries,
            value_attr,
            seed,
            reference,
        }
    }

    /// Epoch closes one repetition makes and times: the pipeline closes
    /// every epoch with `align_to_epoch`; the engine closes all but the
    /// last with a boundary push, which needs a record in the next
    /// epoch.
    pub fn closes(&self, engine: bool) -> usize {
        if engine {
            self.epochs.iter().skip(1).filter(|r| !r.is_empty()).count()
        } else {
            self.epochs.len()
        }
    }
}

/// Record ranges of consecutive epochs of `epoch_micros`.
fn split_epochs(records: &[Record], epoch_micros: u64) -> Vec<Range<usize>> {
    let epoch_of = |r: &Record| r.ts_micros / epoch_micros.max(1);
    let last = records.last().map_or(0, epoch_of);
    let mut epochs = Vec::new();
    let mut start = 0;
    for e in 0..=last {
        let len = records[start..]
            .iter()
            .take_while(|r| epoch_of(r) == e)
            .count();
        epochs.push(start..start + len);
        start += len;
    }
    epochs
}

/// Per-epoch, per-query results, where the program left them.
#[derive(Debug)]
pub enum Results {
    /// Inside the HFTA that `ShardedExecutor::finish` returned.
    Hfta(Hfta),
    /// As `MultiAggregator::finish` returned them.
    Vec(Vec<EpochResult>),
}

impl Results {
    /// The results.
    pub fn as_slice(&self) -> &[EpochResult] {
        match self {
            Results::Hfta(h) => h.results(),
            Results::Vec(v) => v,
        }
    }
}

/// Everything a repetition's answer consists of; every repetition on
/// one input must give the same answer, bit for bit.
#[derive(Debug)]
pub struct Answer {
    /// The run report.
    pub report: RunReport,
    /// Per-epoch, per-query results.
    pub results: Results,
    /// Adaptive replans (`drift_push`).
    pub replans: usize,
    /// Guard-requested repairs (`drift_push`).
    pub repairs: usize,
}

impl Answer {
    /// A fingerprint of the whole answer, so a run can compare every
    /// repetition with the first without keeping the first in memory.
    /// The report, the order of the results, replans and repairs all
    /// count; the entries of each result's map count in any order, as
    /// they do for `PartialEq`.
    pub fn digest(&self) -> u64 {
        let mut h = format!("{:?}", self.report)
            .bytes()
            .fold(0xCBF2_9CE4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
            });
        h = mix64(h ^ self.replans as u64);
        h = mix64(h ^ self.repairs as u64);
        for r in self.results.as_slice() {
            let entries = r
                .aggregates
                .iter()
                .fold(0u64, |sum, (k, a)| sum.wrapping_add(entry_hash(k, a)));
            h = mix64(h ^ u64::from(r.query.bits()));
            h = mix64(h ^ r.epoch);
            h = mix64(h ^ r.aggregates.len() as u64);
            h = mix64(h ^ entries);
        }
        h
    }

    /// Result groups over all queries and epochs.
    pub fn result_groups(&self) -> u64 {
        self.results
            .as_slice()
            .iter()
            .map(|r| r.aggregates.len() as u64)
            .sum()
    }
}

fn entry_hash(key: &GroupKey, agg: &AggState) -> u64 {
    let mut h = mix64(key.arity() as u64);
    for &v in key.values() {
        h = mix64(h ^ u64::from(v));
    }
    for x in [agg.count, agg.sum, u64::from(agg.min), u64::from(agg.max)] {
        h = mix64(h ^ x);
    }
    h
}

/// The LFTA's cumulative probe and eviction counters, as the run
/// report holds them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Intra-epoch probes.
    pub intra_probes: u64,
    /// Intra-epoch evictions to the HFTA.
    pub intra_evictions: u64,
    /// End-of-epoch probes.
    pub flush_probes: u64,
    /// End-of-epoch evictions to the HFTA.
    pub flush_evictions: u64,
}

impl Counters {
    /// The counters of `report`.
    pub fn of(report: &RunReport) -> Counters {
        Counters {
            intra_probes: report.intra_probes,
            intra_evictions: report.intra_evictions,
            flush_probes: report.flush_probes,
            flush_evictions: report.flush_evictions,
        }
    }

    /// What was counted between `earlier` and `self`.
    pub fn since(self, earlier: Counters) -> Counters {
        Counters {
            intra_probes: self.intra_probes - earlier.intra_probes,
            intra_evictions: self.intra_evictions - earlier.intra_evictions,
            flush_probes: self.flush_probes - earlier.flush_probes,
            flush_evictions: self.flush_evictions - earlier.flush_evictions,
        }
    }

    /// Probes of either kind.
    pub fn probes(self) -> u64 {
        self.intra_probes + self.flush_probes
    }

    /// Evictions of either kind.
    pub fn evictions(self) -> u64 {
        self.intra_evictions + self.flush_evictions
    }

    /// End-of-epoch cost `E_u` in `c1` units, at the paper's `c2 = 50`.
    pub fn flush_cost(self) -> f64 {
        self.flush_probes as f64 + 50.0 * self.flush_evictions as f64
    }
}

/// One span's work for the cost-model fit: probes, evictions, and the
/// span's self time in nanoseconds.
pub type CostSample = (f64, f64, f64);

/// The durable store's state after a repetition.
#[derive(Clone, Debug)]
pub struct StoreAudit {
    /// The store's own counters, read before recovery and scrub.
    pub stats: StoreStats,
    /// What the counting backend saw, read at the same time.
    pub backend: Counts,
    /// Time to recover the newest generation's artifacts, in ms.
    pub recover_ms: f64,
    /// `Err` unless recovery found the newest generation intact and the
    /// scrub found every artifact intact.
    pub verdict: Result<(), String>,
}

/// What only a traced repetition records.
#[derive(Debug, Default)]
pub struct Layers {
    /// `optimizer.plan` time, in ms (on `drift_push`, the benchmark's
    /// own `Planner::plan` over the engine's statistics).
    pub plan_ms: f64,
    /// The plan's predicted cost over the run, in `c1` per record.
    pub predicted_cost_c1_per_record: f64,
    /// The model's HFTA evictions per intra-epoch probe.
    pub predicted_collision_rate: f64,
    /// Per closed epoch: the counters the close added.
    pub flush_counts: Vec<Counters>,
    /// Per closed epoch: the close's self time, in ms.
    pub flush_ms: Vec<f64>,
    /// Records fed inside `lfta.ingest` spans.
    pub ingested: u64,
    /// Every `lfta.ingest` and `lfta.flush` span, for the fit.
    pub cost_samples: Vec<CostSample>,
    /// Per sampled close: time to re-encode that close's snapshot, ms.
    pub encode_ms: Vec<f64>,
    /// Boundary pushes that did not replan, in ms each.
    pub boundary_ms: Vec<f64>,
    /// Boundary pushes during which a replan happened, in ms each.
    pub replan_push_ms: Vec<f64>,
}

/// One repetition: set-up, feeding every epoch, and finishing.
#[derive(Debug)]
pub struct Rep {
    /// Seconds spent before the first record was offered.
    pub setup_s: f64,
    /// Seconds from the first feeding call until `finish` returned,
    /// without the benchmark's own work in between.
    pub feed_s: f64,
    /// Seconds from the start of set-up until `finish` returned,
    /// without the benchmark's own work (on traced repetitions,
    /// re-encoding snapshots and the extra planning on `drift_push`).
    pub wall_s: f64,
    /// Per timed epoch close, its duration in ms.
    pub close_ms: Vec<f64>,
    /// The answer.
    pub answer: Answer,
    /// Guaranteed intervals derived from the loss ledgers.
    pub bounds: BoundsReport,
    /// The durable store, on `epochs_durable`.
    pub store: Option<StoreAudit>,
    /// Layer figures, on traced repetitions.
    pub layers: Option<Layers>,
}

impl Rep {
    /// Records offered.
    pub fn records(&self) -> u64 {
        self.answer.report.records
    }

    /// Records missing from some query's answer (shed, dropped or
    /// unaccounted): the largest shortfall of any query's count.
    pub fn records_lost(&self) -> u64 {
        let offered = self.records();
        self.bounds
            .queries
            .iter()
            .map(|q| offered.saturating_sub(q.observed))
            .max()
            .unwrap_or(offered)
    }

    /// The checks every repetition must pass: all offered records
    /// reported, every query's true count inside its guaranteed
    /// interval, and a clean store. With `reference`, also the exact
    /// per-epoch answers.
    pub fn check(&self, offered: u64, reference: Option<&Reference>) -> Result<(), String> {
        if self.records() != offered {
            return Err(format!(
                "report counts {} records, {offered} were offered",
                self.records()
            ));
        }
        if let Some(reference) = reference {
            reference.check(self.answer.results.as_slice())?;
        }
        if self.bounds.queries.is_empty() {
            return Err("the bounds report covers no query".into());
        }
        for q in &self.bounds.queries {
            if !(q.lo() <= offered && offered <= q.hi()) {
                return Err(format!(
                    "query {}: true count {offered} outside [{}, {}]",
                    q.query,
                    q.lo(),
                    q.hi()
                ));
            }
        }
        if let Some(store) = &self.store {
            store.verdict.clone()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msa_gigascope::{CostParams, ShardedExecutor};
    use msa_stream::{hash::FastMap, UniformStreamBuilder};

    fn result(query: &str, epoch: u64, groups: &[(u32, u64)]) -> EpochResult {
        let mut aggregates = FastMap::default();
        for &(value, count) in groups {
            aggregates.insert(
                GroupKey::from_values(&[value, value + 1]),
                AggState {
                    count,
                    sum: count * 3,
                    min: 1,
                    max: 9,
                },
            );
        }
        EpochResult {
            query: AttrSet::parse(query).unwrap(),
            epoch,
            aggregates,
        }
    }

    fn answer(results: Vec<EpochResult>) -> Answer {
        Answer {
            report: RunReport {
                records: 7,
                ..RunReport::default()
            },
            results: Results::Vec(results),
            replans: 2,
            repairs: 0,
        }
    }

    #[test]
    fn digest_ignores_map_order_only() {
        let base = answer(vec![
            result("AB", 0, &[(1, 4), (2, 5), (3, 6)]),
            result("CD", 0, &[(4, 1)]),
        ]);
        let reinserted = answer(vec![
            result("AB", 0, &[(3, 6), (1, 4), (2, 5)]),
            result("CD", 0, &[(4, 1)]),
        ]);
        assert_eq!(base.digest(), reinserted.digest());
        assert_eq!(base.result_groups(), 4);

        let recount = answer(vec![
            result("AB", 0, &[(1, 4), (2, 5), (3, 7)]),
            result("CD", 0, &[(4, 1)]),
        ]);
        let reordered = answer(vec![
            result("CD", 0, &[(4, 1)]),
            result("AB", 0, &[(1, 4), (2, 5), (3, 6)]),
        ]);
        let mut replanned = answer(base.results.as_slice().to_vec());
        replanned.replans += 1;
        let mut recounted_report = answer(base.results.as_slice().to_vec());
        recounted_report.report.records += 1;
        for other in [recount, reordered, replanned, recounted_report] {
            assert_ne!(base.digest(), other.digest(), "{other:?}");
        }
    }

    #[test]
    fn epochs_split_by_timestamp() {
        let recs: Vec<Record> = [5, 10, 999, 2_500, 2_600]
            .iter()
            .map(|&ts| Record::new(&[1], ts))
            .collect();
        assert_eq!(split_epochs(&recs, 1_000), vec![0..3, 3..3, 3..5]);
    }

    #[test]
    fn per_epoch_differences_add_up_to_the_report_totals() {
        let stream = UniformStreamBuilder::new(3, 400)
            .records(20_000)
            .duration_secs(10.0)
            .seed(9)
            .build();
        let queries: Vec<AttrSet> = ["AB", "BC"]
            .iter()
            .map(|q| AttrSet::parse(q).unwrap())
            .collect();
        let input = Input::new(stream.records, 1_000_000, queries, None, 9);
        let plan = msa_gigascope::PhysicalPlan::flat(input.queries.iter().map(|&q| (q, 50)));
        let mut sx =
            ShardedExecutor::new(plan, CostParams::paper(), input.epoch_micros, 9, 1).unwrap();
        let mut sum = Counters::default();
        let mut flush_cost = 0.0;
        for (e, range) in input.epochs.iter().enumerate() {
            let before = Counters::of(sx.shard(0).report());
            sx.run(&input.records[range.clone()]);
            let fed = Counters::of(sx.shard(0).report());
            sx.align_to_epoch(e as u64 + 1);
            let closed = Counters::of(sx.shard(0).report());
            let (intra, flush) = (fed.since(before), closed.since(fed));
            assert_eq!((intra.flush_probes, intra.flush_evictions), (0, 0));
            assert_eq!((flush.intra_probes, flush.intra_evictions), (0, 0));
            assert!(flush.flush_evictions > 0);
            for d in [intra, flush] {
                sum.intra_probes += d.intra_probes;
                sum.intra_evictions += d.intra_evictions;
                sum.flush_probes += d.flush_probes;
                sum.flush_evictions += d.flush_evictions;
            }
            flush_cost += flush.flush_cost();
        }
        let (report, _) = sx.finish();
        assert_eq!(sum, Counters::of(&report));
        assert!(sum.probes() > 0 && sum.evictions() > 0);
        assert!((flush_cost - report.flush_cost()).abs() < 1e-6);
        assert_eq!(report.records, input.reference.records());
    }
}
