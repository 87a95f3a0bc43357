//! `drift_push`: records pushed one at a time into `MultiAggregator`,
//! with a SUM value source, adaptive replanning and an armed overload
//! guard.
//!
//! The engine keeps its executor to itself, so the spans go around the
//! engine's own calls: each epoch's plain pushes (one span), each
//! boundary push (the one that closes the previous epoch and sometimes
//! replans), and `finish`.

use crate::pipeline::{self, bootstrap_stats, Aside};
use crate::trace::{timed, Tracer};
use crate::workload::{Answer, Input, Layers, Rep, Results};
use msa_core::{AdaptivePolicy, EngineOptions, GuardPolicy, MultiAggregator, ValueSource};
use std::time::Instant;

/// Engine settings of the workload.
#[derive(Clone, Copy, Debug)]
pub struct EngineSpec {
    /// LFTA memory budget, in 4-byte words.
    pub m_words: f64,
    /// Leading records the bootstrap statistics are computed from.
    pub stats_prefix: usize,
    /// Overload-guard peak budget `E_p`, in `c1` units per epoch.
    pub peak_budget: f64,
}

/// One repetition. With a tracer, every call into the program runs in
/// a span and the layer figures are filled in.
pub fn run(spec: EngineSpec, input: &Input, mut tracer: Option<&mut Tracer>) -> Rep {
    let traced = tracer.is_some();
    let mut layers = Layers::default();
    let mut aside = Aside::default();
    let value_attr = input
        .value_attr
        .expect("drift_push sums a metric attribute");
    let t0 = Instant::now();
    let stats = timed(&mut tracer, "stream.stats", || {
        bootstrap_stats(input, spec.stats_prefix)
    });
    if traced {
        // The engine plans inside `new`; the benchmark plans the same
        // statistics once more, beside it, for the planner's time and
        // the model's prediction.
        aside.run(|| {
            let t = Instant::now();
            let plan = pipeline::plan(&input.queries, &stats, spec.m_words);
            layers.plan_ms = t.elapsed().as_secs_f64() * 1e3;
            let p = pipeline::predict(&plan, &stats, input);
            layers.predicted_cost_c1_per_record = p.cost_c1_per_record;
            layers.predicted_collision_rate = p.collision_rate;
        });
    }
    let mut engine = timed(&mut tracer, "engine.bootstrap", || {
        let mut opts = EngineOptions::new(spec.m_words);
        opts.epoch_micros = input.epoch_micros;
        opts.seed = input.seed;
        opts.stats = Some(stats);
        opts.adaptive = Some(AdaptivePolicy::default());
        opts.guard = Some(GuardPolicy::new(spec.peak_budget));
        opts.value_source = ValueSource::Attr(value_attr);
        MultiAggregator::new(input.queries.clone(), opts)
    });
    let setup_s = (t0.elapsed() - aside.0).as_secs_f64();

    let mut close_ms = Vec::with_capacity(input.epochs.len());
    let t_feed = Instant::now();
    for (e, range) in input.epochs.iter().enumerate() {
        let mut epoch = &input.records[range.clone()];
        if e > 0 {
            if let Some((&first, rest)) = epoch.split_first() {
                let replans = engine.replans();
                let t = Instant::now();
                timed(&mut tracer, "engine.boundary_push", || engine.push(first));
                let ms = t.elapsed().as_secs_f64() * 1e3;
                close_ms.push(ms);
                epoch = rest;
                if traced {
                    let own_ms = tracer
                        .as_deref()
                        .and_then(Tracer::last)
                        .map_or(ms, |s| s.ns() as f64 / 1e6);
                    if engine.replans() > replans {
                        layers.replan_push_ms.push(own_ms);
                    } else {
                        layers.boundary_ms.push(own_ms);
                    }
                }
            }
        }
        timed(&mut tracer, "lfta.ingest", || {
            for r in epoch {
                engine.push(*r);
            }
        });
        layers.ingested += epoch.len() as u64;
    }
    let output = timed(&mut tracer, "hfta.finish", || engine.finish());
    let feed_s = t_feed.elapsed().as_secs_f64();
    let wall_s = (t0.elapsed() - aside.0).as_secs_f64();
    let bounds = output.bounds();
    Rep {
        setup_s,
        feed_s,
        wall_s,
        close_ms,
        answer: Answer {
            report: output.report,
            results: Results::Vec(output.results),
            replans: output.replans,
            repairs: output.repairs,
        },
        bounds,
        store: None,
        layers: traced.then_some(layers),
    }
}
