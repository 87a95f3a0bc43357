//! End-to-end benchmark of the serial multi-aggregation pipeline.
//!
//! ```text
//! perfbench --workload <trace_ingest|epochs_durable|drift_push>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process, one caller thread, closed loop: each call into the
//! program starts when the previous one returns. The input (on
//! `drift_push`, one per episode) is generated from the seed before
//! anything is timed. Then the workload repeats — set-up, feed every
//! epoch, finish — for `--seconds`, taking turns on the inputs. Every
//! repetition's answer is checked. The last two lines of standard
//! output are a JSON line describing the run (host cores, threads,
//! closes per repetition, the samples behind each percentile) and the
//! JSON result line. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` alternates untraced and traced repetitions and reports
//! the per-layer metrics, writing the spans to `out/` beside this
//! package's manifest. README.md describes every metric and workload.

mod backend;
mod catalog;
mod engine;
mod host;
mod pipeline;
mod reference;
mod stats;
mod trace;
mod workload;

use catalog::Workload;
use stats::{median, median_of_percentiles};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{coverage, self_ns, Tracer};
use workload::{CostSample, Input, Layers, Rep, StoreAudit};

const USAGE: &str = "usage: perfbench --workload <trace_ingest|epochs_durable|drift_push> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Timed repetitions at least, so set-up and every figure is a median.
const MIN_REPS: usize = 5;
/// Traced repetitions at least.
const MIN_TRACED: usize = 3;
/// Epoch closes every repetition must time: enough for a p95 with
/// [`stats::TAIL_SAMPLES`] samples beyond it.
const MIN_CLOSES: usize = 200;
/// The highest percentile reported.
const TOP_PERCENTILE: f64 = 95.0;
/// Share of a traced repetition's wall time its spans must cover.
const MIN_COVERAGE: f64 = 0.95;
/// A run stops after this many times `--seconds` even if the minimums
/// above are not met yet.
const OVERRUN: u32 = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    seconds = value.parse::<f64>().map_err(|_| bad())?;
                    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 60.0) {
                        return Err(bad());
                    }
                }
                "--trace" => match value.as_str() {
                    "0" => trace = false,
                    "1" => trace = true,
                    _ => return Err(bad()),
                },
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// Refuses, before anything is timed, a run that would use more
/// threads than the host has cores, or whose repetitions would close
/// too few epochs for every percentile to have ten samples beyond it.
fn guard_rails(w: Workload, host_cores: usize, closes: usize) -> Result<(), String> {
    if w.threads() > host_cores {
        return Err(format!(
            "{} would run {} threads on {host_cores} cores",
            w.name(),
            w.threads()
        ));
    }
    if closes < MIN_CLOSES || !stats::supports(closes, TOP_PERCENTILE) {
        return Err(format!(
            "{} closes {closes} epochs per repetition; at least {MIN_CLOSES} are needed",
            w.name()
        ));
    }
    Ok(())
}

/// The verdict and metrics of a run, printed as the last output line.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// How a run went, printed as the line before the result.
struct Info {
    host_cores: usize,
    closes: usize,
    repetitions: usize,
    ref_ms: f64,
    steal_frac: f64,
    cpu_over_wall: f64,
}

impl Info {
    fn to_json(&self, args: &Args) -> String {
        let w = args.workload;
        format!(
            "{{\"info\": {{\"workload\": \"{}\", \"seed\": {}, \"host_cores\": {}, \
             \"threads\": {}, \"shards\": {}, \"closes_per_repetition\": {}, \
             \"repetitions\": {}, \"percentiles\": \"nearest rank within each repetition, \
             median over repetitions\", \"samples_per_percentile\": {{\"p50\": {}, \"p95\": {}}}, \
             \"host_ref_ms\": {}, \"host_steal_frac\": {}, \"host_cpu_over_wall\": {}}}}}",
            w.name(),
            args.seed,
            self.host_cores,
            w.threads(),
            pipeline::SHARDS,
            self.closes,
            self.repetitions,
            self.closes,
            self.closes,
            self.ref_ms,
            self.steal_frac,
            self.cpu_over_wall,
        )
    }
}

/// Correctness bookkeeping: every input's first repetition must match
/// the reference, every repetition must pass the per-repetition checks
/// and give the same answer as the first on its input.
#[derive(Default)]
struct Gate {
    /// Answer digest of the first repetition on each input.
    first: Vec<u64>,
    errors: Vec<String>,
    attempted: u64,
    lost: u64,
}

impl Gate {
    fn admit(&mut self, i: usize, input: &Input, rep: &Rep, label: &str) {
        self.attempted += rep.records();
        self.lost += rep.records_lost();
        let first = i >= self.first.len();
        let reference = first.then_some(&input.reference);
        if let Err(e) = rep.check(input.reference.records(), reference) {
            self.errors.push(format!("{label}: {e}"));
        }
        let digest = rep.answer.digest();
        if first {
            self.first.push(digest);
        } else if self.first[i] != digest {
            self.errors.push(format!(
                "{label}: answer differs from the first repetition's on input {i}"
            ));
        }
    }

    /// Settles the verdict: `(correct, attempted, failed)`.
    fn verdict(self) -> (bool, u64, u64) {
        for e in &self.errors {
            eprintln!("perfbench: correctness check failed: {e}");
        }
        let correct = self.errors.is_empty();
        // A failed check counts every record of the run as failed.
        let failed = if correct { self.lost } else { self.attempted };
        (correct, self.attempted.max(1), failed)
    }
}

/// Host readings over the timed part of a run.
struct HostWatch {
    reference: host::ReferenceLoop,
    wall: Instant,
    cpu_ns: Option<u64>,
    cpu: Option<host::CpuTimes>,
    ref_ms: Vec<f64>,
}

impl HostWatch {
    /// Allocates the reference loop's table; made before the memory
    /// baseline is read, so the table is not counted as the program's.
    fn new() -> HostWatch {
        HostWatch {
            reference: host::ReferenceLoop::new(),
            wall: Instant::now(),
            cpu_ns: None,
            cpu: None,
            ref_ms: Vec::new(),
        }
    }

    /// Starts watching: the timed part of the run begins, and the
    /// resident high-water mark is lowered to the resident size now.
    fn start(&mut self) -> Result<(), String> {
        host::reset_peak_rss()
            .map_err(|e| format!("cannot reset the resident high-water mark: {e}"))?;
        self.wall = Instant::now();
        self.cpu_ns = host::cpu_ns();
        self.cpu = host::cpu_times();
        Ok(())
    }

    /// Times the reference loop; called between repetitions.
    fn reference(&mut self) {
        self.ref_ms.push(self.reference.run_ms());
    }

    /// `(median reference ms, steal share, CPU ÷ wall)`.
    fn finish(&self) -> (f64, f64, f64) {
        let wall_ns = self.wall.elapsed().as_nanos() as f64;
        let cpu_over_wall = match (self.cpu_ns, host::cpu_ns()) {
            (Some(a), Some(b)) => b.saturating_sub(a) as f64 / wall_ns.max(1.0),
            _ => 0.0,
        };
        let steal = match (self.cpu, host::cpu_times()) {
            (Some(a), Some(b)) => host::steal_frac(a, b),
            _ => 0.0,
        };
        (median(&self.ref_ms), steal, cpu_over_wall)
    }
}

/// Repeats until `--seconds` have passed and the minimums are met.
struct Clock {
    start: Instant,
    seconds: Duration,
}

impl Clock {
    fn new(seconds: f64) -> Clock {
        Clock {
            start: Instant::now(),
            seconds: Duration::from_secs_f64(seconds),
        }
    }

    fn done(&self, minimums_met: bool, turns_even: bool) -> bool {
        let elapsed = self.start.elapsed();
        turns_even
            && ((elapsed >= self.seconds && minimums_met) || elapsed >= self.seconds * OVERRUN)
    }
}

/// One repetition on each input, checked against the reference but not
/// timed, so caches, the allocator and the inputs' pages are warm
/// before measuring. Returns the gate and the cost per record of the
/// inputs together.
fn warm_up(w: Workload, inputs: &[Input]) -> (Gate, f64) {
    let mut gate = Gate::default();
    let (mut cost, mut records) = (0.0, 0u64);
    for (i, input) in inputs.iter().enumerate() {
        let rep = w.run(input, None);
        gate.admit(i, input, &rep, &format!("warm-up repetition on input {i}"));
        cost += rep.answer.report.total_cost();
        records += rep.records();
    }
    (gate, cost / records.max(1) as f64)
}

fn untraced(
    args: &Args,
    inputs: &[Input],
    baseline_rss: u64,
    watch: &mut HostWatch,
    info: &mut Info,
) -> Result<Report, String> {
    let w = args.workload;
    let (mut gate, cost_c1_per_record) = warm_up(w, inputs);
    watch.start()?;
    let clock = Clock::new(args.seconds);
    let (mut setup, mut rate, mut closes) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0.. {
        let i = k % inputs.len();
        watch.reference();
        let rep = w.run(&inputs[i], None);
        gate.admit(i, &inputs[i], &rep, &format!("repetition {k}"));
        eprintln!(
            "perfbench: repetition {k}: setup {:.4} s, {:.0} records/s, p50 {:.4} ms, p95 {:.4} ms, reference loop {:.3} ms",
            rep.setup_s,
            rep.records() as f64 / rep.feed_s,
            stats::percentile(&rep.close_ms, 50.0),
            stats::percentile(&rep.close_ms, TOP_PERCENTILE),
            watch.ref_ms.last().copied().unwrap_or(0.0),
        );
        setup.push(rep.setup_s);
        rate.push(rep.records() as f64 / rep.feed_s);
        closes.push(rep.close_ms);
        let turns_even = (k + 1).is_multiple_of(inputs.len());
        if clock.done(setup.len() >= MIN_REPS, turns_even) {
            break;
        }
    }
    let rss_peak = host::peak_rss_bytes().ok_or("cannot read VmHWM from /proc/self/status")?;
    (info.ref_ms, info.steal_frac, info.cpu_over_wall) = watch.finish();
    info.repetitions = setup.len();
    let (correct, attempted, failed) = gate.verdict();
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics: vec![
            ("records_per_s", median(&rate), "1/s"),
            (
                "result_latency_ms_p50",
                median_of_percentiles(&closes, 50.0),
                "ms",
            ),
            (
                "result_latency_ms_p95",
                median_of_percentiles(&closes, TOP_PERCENTILE),
                "ms",
            ),
            ("setup_s", median(&setup), "s"),
            (
                "peak_rss_mb",
                rss_peak.saturating_sub(baseline_rss) as f64 / (1024.0 * 1024.0),
                "MB",
            ),
            ("cost_c1_per_record", cost_c1_per_record, "c1"),
        ],
    })
}

/// One traced repetition, reduced to what the per-layer metrics need.
struct Traced {
    rep: u32,
    wall_s: f64,
    /// The untraced repetition run just before, on the same input.
    untraced_wall_s: f64,
    layers: Layers,
    records: f64,
    report: msa_core::RunReport,
    replans: usize,
    repairs: usize,
    result_groups: u64,
    lost: u64,
    max_width: u64,
    store: Option<StoreAudit>,
}

fn traced(
    args: &Args,
    inputs: &[Input],
    watch: &mut HostWatch,
    info: &mut Info,
) -> Result<Report, String> {
    let w = args.workload;
    let (mut gate, _) = warm_up(w, inputs);
    watch.start()?;
    let clock = Clock::new(args.seconds);
    let mut tracer = Tracer::new();
    let mut reps: Vec<Traced> = Vec::new();
    for k in 0u32.. {
        let i = k as usize % inputs.len();
        let input = &inputs[i];
        watch.reference();
        let plain = w.run(input, None);
        gate.admit(i, input, &plain, &format!("untraced repetition {k}"));
        let untraced_wall_s = plain.wall_s;
        drop(plain);

        tracer.start_rep(k);
        let rep = w.run(input, Some(&mut tracer));
        // Traced and untraced answers must agree bit for bit.
        gate.admit(i, input, &rep, &format!("traced repetition {k}"));
        // The layers must add up to the repetition.
        let covered = coverage(tracer.spans(), k, rep.wall_s);
        if covered < MIN_COVERAGE {
            gate.errors.push(format!(
                "traced repetition {k}: spans cover {covered:.3} of its wall time, \
                 less than {MIN_COVERAGE}"
            ));
        }
        reps.push(Traced {
            rep: k,
            wall_s: rep.wall_s,
            untraced_wall_s,
            records: rep.records() as f64,
            replans: rep.answer.replans,
            repairs: rep.answer.repairs,
            result_groups: rep.answer.result_groups(),
            lost: rep.records_lost(),
            max_width: rep.bounds.max_width(),
            report: rep.answer.report,
            layers: rep.layers.unwrap_or_default(),
            store: rep.store,
        });
        let turns_even = (k as usize + 1).is_multiple_of(inputs.len());
        if clock.done(reps.len() >= MIN_TRACED, turns_even) {
            break;
        }
    }
    (info.ref_ms, info.steal_frac, info.cpu_over_wall) = watch.finish();
    info.repetitions = reps.len();
    write_spans(args, &tracer);
    let metrics = layer_metrics(w, &reps, &tracer, info);
    let (correct, attempted, failed) = gate.verdict();
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics,
    })
}

fn write_spans(args: &Args, tracer: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "{}-seed{}.spans.jsonl",
        args.workload.name(),
        args.seed
    ));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl())) {
        Ok(()) => eprintln!("perfbench: spans in {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

/// Per-layer metrics from the traced repetitions: the median over
/// repetitions of each repetition's figure. A layer a workload does not
/// use reads 0.
fn layer_metrics(
    w: Workload,
    reps: &[Traced],
    tracer: &Tracer,
    info: &Info,
) -> Vec<(&'static str, f64, &'static str)> {
    let spans = tracer.spans();
    let med = |f: &dyn Fn(&Traced) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let span_ms = |name: &'static str| med(&|t| self_ns(spans, t.rep, name) as f64 / 1e6);
    // Percentile `p` within each repetition, then the median.
    let pct = |f: &dyn Fn(&Traced) -> &[f64], p: f64| med(&|t| stats::percentile(f(t), p));
    let per_record = |f: &dyn Fn(&Traced) -> u64| med(&|t| f(t) as f64 / t.records.max(1.0));
    let store = |f: &dyn Fn(&StoreAudit) -> f64| med(&|t| t.store.as_ref().map_or(0.0, f));
    let snapshot_bytes = |pick: &dyn Fn(&[u64]) -> Option<u64>| {
        store(&|s| {
            // The first snapshot is the genesis commit made when the
            // store is attached; the rest are one per close.
            let closes = s.backend.snapshot_bytes.get(1..).unwrap_or_default();
            pick(closes).unwrap_or(0) as f64
        })
    };

    // The measured cost model needs spans whose time is all LFTA work:
    // on `epochs_durable` a close also snapshots and logs, so the fit
    // is made only where there is no store.
    let samples: Vec<CostSample> = if w == Workload::TraceIngest {
        reps.iter()
            .flat_map(|t| t.layers.cost_samples.iter().copied())
            .collect()
    } else {
        Vec::new()
    };
    let (ns_probe, ns_evict) = stats::fit_nonneg_2(&samples);
    let plan_ms = med(&|t| {
        let span = self_ns(spans, t.rep, "optimizer.plan") as f64 / 1e6;
        if span > 0.0 {
            span
        } else {
            t.layers.plan_ms
        }
    });

    vec![
        ("stream.stats_ms", span_ms("stream.stats"), "ms"),
        ("optimizer.plan_ms", plan_ms, "ms"),
        (
            "optimizer.predicted_cost_c1_per_record",
            med(&|t| t.layers.predicted_cost_c1_per_record),
            "c1",
        ),
        (
            "optimizer.model_error",
            med(&|t| {
                let measured = t.report.total_cost() / t.records.max(1.0);
                measured / t.layers.predicted_cost_c1_per_record - 1.0
            }),
            "ratio",
        ),
        ("lfta.ingest_ms", span_ms("lfta.ingest"), "ms"),
        (
            "lfta.ns_per_record",
            med(&|t| self_ns(spans, t.rep, "lfta.ingest") as f64 / t.layers.ingested.max(1) as f64),
            "ns",
        ),
        (
            "lfta.probes_per_record",
            per_record(&|t| t.report.intra_probes),
            "count",
        ),
        (
            "lfta.evictions_per_record",
            per_record(&|t| t.report.intra_evictions),
            "count",
        ),
        (
            "lfta.collision_rate",
            med(&|t| t.report.intra_evictions as f64 / t.report.intra_probes.max(1) as f64),
            "ratio",
        ),
        (
            "lfta.collision_rate_predicted",
            med(&|t| t.layers.predicted_collision_rate),
            "ratio",
        ),
        (
            "lfta.flush_ms_p50",
            pct(&|t| &t.layers.flush_ms, 50.0),
            "ms",
        ),
        (
            "lfta.flush_ms_p95",
            pct(&|t| &t.layers.flush_ms, TOP_PERCENTILE),
            "ms",
        ),
        (
            "lfta.flush_evictions_per_epoch",
            med(&|t| t.report.flush_evictions as f64 / t.report.epochs.max(1) as f64),
            "count",
        ),
        (
            "lfta.flush_cost_c1_max",
            med(&|t| {
                t.layers
                    .flush_counts
                    .iter()
                    .map(|c| c.flush_cost())
                    .fold(0.0, f64::max)
            }),
            "c1",
        ),
        ("lfta.ns_per_probe", ns_probe, "ns"),
        ("lfta.ns_per_eviction", ns_evict, "ns"),
        (
            "lfta.c2_over_c1",
            if ns_probe > 0.0 {
                ns_evict / ns_probe
            } else {
                0.0
            },
            "ratio",
        ),
        ("hfta.finish_ms", span_ms("hfta.finish"), "ms"),
        (
            "hfta.result_groups",
            med(&|t| t.result_groups as f64),
            "count",
        ),
        (
            "snapshot.bytes_8th",
            snapshot_bytes(&|b| b.get(7).copied()),
            "bytes",
        ),
        (
            "snapshot.bytes_last",
            snapshot_bytes(&|b| b.last().copied()),
            "bytes",
        ),
        (
            "snapshot.encode_ms_p50",
            pct(&|t| &t.layers.encode_ms, 50.0),
            "ms",
        ),
        ("store.commits", store(&|s| s.stats.commits as f64), "count"),
        (
            "store.wal_appends",
            store(&|s| s.stats.wal_appends as f64),
            "count",
        ),
        (
            "store.io_retries",
            store(&|s| s.stats.io_retries as f64),
            "count",
        ),
        ("backend.syncs", store(&|s| s.backend.syncs as f64), "count"),
        (
            "backend.bytes_written",
            store(&|s| s.backend.bytes_written as f64),
            "bytes",
        ),
        (
            "backend.ms",
            store(&|s| s.backend.busy_ns as f64 / 1e6),
            "ms",
        ),
        ("store.recover_ms", store(&|s| s.recover_ms), "ms"),
        ("engine.replans", med(&|t| t.replans as f64), "count"),
        ("engine.repairs", med(&|t| t.repairs as f64), "count"),
        ("engine.bootstrap_ms", span_ms("engine.bootstrap"), "ms"),
        (
            "engine.boundary_push_ms_p50",
            pct(&|t| &t.layers.boundary_ms, 50.0),
            "ms",
        ),
        (
            "engine.replan_push_ms_max",
            med(&|t| t.layers.replan_push_ms.iter().copied().fold(0.0, f64::max)),
            "ms",
        ),
        (
            "guard.epochs_degraded",
            med(&|t| t.report.epochs_degraded as f64),
            "count",
        ),
        (
            "guard.records_shed",
            med(&|t| t.report.records_shed as f64),
            "count",
        ),
        (
            "bounds.records_lost_frac",
            med(&|t| t.lost as f64 / t.records.max(1.0)),
            "ratio",
        ),
        ("bounds.max_width", med(&|t| t.max_width as f64), "count"),
        (
            "trace.coverage",
            med(&|t| coverage(spans, t.rep, t.wall_s)),
            "ratio",
        ),
        (
            "trace.overhead_frac",
            med(&|t| t.wall_s / t.untraced_wall_s - 1.0),
            "ratio",
        ),
        ("host.steal_frac", info.steal_frac, "ratio"),
        ("host.cpu_over_wall", info.cpu_over_wall, "ratio"),
        ("host.ref_ms", info.ref_ms, "ms"),
    ]
}

fn main() -> ExitCode {
    let usage = |e: String| {
        eprintln!("perfbench: {e}\n{USAGE}");
        ExitCode::from(2)
    };
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => return usage(e),
    };
    let w = args.workload;
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Err(e) = guard_rails(w, host_cores, MIN_CLOSES) {
        return usage(e);
    }
    let inputs = w.prepare(args.seed);
    let closes = inputs
        .iter()
        .map(|i| i.closes(w.is_engine()))
        .min()
        .unwrap_or(0);
    if let Err(e) = guard_rails(w, host_cores, closes) {
        return usage(e);
    }
    for input in &inputs {
        eprintln!(
            "perfbench: {}: input of {} records in {} epochs",
            w.name(),
            input.records.len(),
            input.epochs.len()
        );
    }
    let mut watch = HostWatch::new();
    // Memory is measured from here: the inputs, their reference answers
    // and the reference loop's table are already resident. The peak is
    // the high-water mark over the timed repetitions alone, as
    // `HostWatch::start` resets it.
    let baseline_rss = host::rss_bytes().unwrap_or(0);
    let mut info = Info {
        host_cores,
        closes,
        repetitions: 0,
        ref_ms: 0.0,
        steal_frac: 0.0,
        cpu_over_wall: 0.0,
    };
    let report = if args.trace {
        traced(&args, &inputs, &mut watch, &mut info)
    } else {
        untraced(&args, &inputs, baseline_rss, &mut watch, &mut info)
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", info.to_json(&args));
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::NAMES;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload drift_push --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::DriftPush);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        for (name, w) in NAMES {
            assert_eq!(Workload::from_name(name), Some(w));
            assert_eq!(w.name(), name);
        }
        assert!(args("--seed 1").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload trace_ingest --trace 2").is_err());
        assert!(args("--workload trace_ingest --seconds 0").is_err());
        assert!(args("--workload trace_ingest --bogus 1").is_err());
    }

    #[test]
    fn guard_rails_refuse_too_many_threads_or_too_few_closes() {
        for (_, w) in NAMES {
            assert_eq!(w.threads(), 1);
            assert!(guard_rails(w, 1, 200).is_ok());
            assert!(guard_rails(w, 1, 199).unwrap_err().contains("at least 200"));
            assert!(guard_rails(w, 0, 200).unwrap_err().contains("threads"));
        }
    }
}
