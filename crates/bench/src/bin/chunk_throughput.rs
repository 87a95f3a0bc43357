//! Chunked-ingestion throughput: the columnar LFTA hot path versus the
//! per-record reference ([`Executor::process`]) on a memory-bound
//! workload.
//!
//! The single-slot LFTA tables are sized far beyond the last-level
//! cache, so every probe is a dependent memory access on the scalar
//! path. The chunked path packs group keys per [`RecordChunk`] segment,
//! precomputes hash slots, and warms them with a batched prefetch pass
//! before the record-major apply — converting a chain of serial misses
//! into batches of independent ones. This benchmark measures what that
//! buys on one shard.
//!
//! Before timing, both paths are run twice end to end and their
//! [`RunReport`]s and per-epoch result lists asserted bit-identical —
//! the speedup only counts because the answer is unchanged. At full
//! scale (`MSA_SCALE` unset or 1.0) the measured ratio is asserted to
//! clear 2x, the bar the vectorization battery's bench gate enforces.
//!
//! Writes `results/BENCH_chunk_throughput.json`.

use msa_bench::{
    print_table, scale, seed, CostParams, Executor, PhysicalPlan, PlanNode, RunReport,
};
use msa_core::{Hfta, MsaError, RecordChunk, PROCESSING_WINDOW_SIZE};
use msa_stream::{AttrSet, Record, UniformStreamBuilder};
use std::time::Instant;

/// One epoch: the benchmark isolates intra-epoch maintenance cost, as
/// the paper's actual-cost experiments do.
const EPOCH_MICROS: u64 = u64::MAX;

fn plan() -> Result<PhysicalPlan, MsaError> {
    let q = |name: &str, parent, buckets, is_query| -> Result<_, MsaError> {
        Ok(PlanNode {
            attrs: AttrSet::parse_checked(name)?,
            parent,
            buckets,
            is_query,
        })
    };
    // An ABCD phantom over four single-attribute queries, with bucket
    // counts that put the working set far beyond any LLC: the root alone
    // is 8 Mi buckets (~0.6 GB of slots), so probes scatter into cold
    // lines while the low load factor keeps eviction cascades — whose
    // cost is identical on both paths — rare.
    Ok(PhysicalPlan::new(vec![
        q("ABCD", None, 1 << 23, false)?,
        q("A", Some(0), 1 << 18, true)?,
        q("B", Some(0), 1 << 18, true)?,
        q("C", Some(0), 1 << 18, true)?,
        q("D", Some(0), 1 << 18, true)?,
    ])?)
}

/// A stream whose tuple universe is large enough that probes scatter
/// over the whole table — hit-dominated (few evictions) but every hit a
/// cold line.
fn stream(scale: f64) -> Vec<Record> {
    let records = ((4_000_000.0 * scale) as usize).max(20_000);
    let groups = ((1_000_000.0 * scale) as usize).max(5_000);
    UniformStreamBuilder::new(4, groups)
        .attr_domains(vec![1 << 16, 1 << 16, 1 << 16, 1 << 16])
        .records(records)
        .duration_secs(1.0)
        .seed(seed())
        .build()
        .records
}

fn build(plan: &PhysicalPlan) -> Executor {
    Executor::new(plan.clone(), CostParams::paper(), EPOCH_MICROS, seed())
}

/// The per-record reference: one [`Executor::process`] call per record.
fn process_all(ex: &mut Executor, records: &[Record]) {
    for r in records {
        ex.process(r);
    }
}

fn scalar_run(plan: &PhysicalPlan, records: &[Record]) -> (RunReport, Hfta) {
    let mut ex = build(plan);
    process_all(&mut ex, records);
    ex.finish()
}

/// Chunks are built once, outside the timed region: the sharded feed
/// delivers prebuilt columnar chunks to each shard, so the hot path
/// under measurement is [`Executor::offer_chunk`] itself.
fn chunk_stream(records: &[Record], size: usize) -> Vec<RecordChunk> {
    records
        .chunks(size)
        .map(RecordChunk::from_records)
        .collect()
}

fn chunked_run(plan: &PhysicalPlan, chunks: &[RecordChunk]) -> (RunReport, Hfta) {
    let mut ex = build(plan);
    for c in chunks {
        ex.offer_chunk(c);
    }
    ex.finish()
}

/// Median-of-five wall clock of the ingestion loop alone: table
/// construction (zeroing hundreds of MB of slots) and the end-of-run
/// flush (a full table scan) are identical on both paths and would
/// only dilute the ratio under measurement, so `setup` and the
/// post-run `finish` stay outside the timer.
fn time_runs(plan: &PhysicalPlan, mut ingest: impl FnMut(&mut Executor)) -> f64 {
    let mut once = || {
        let mut ex = build(plan);
        let t = Instant::now();
        ingest(&mut ex);
        let secs = t.elapsed().as_secs_f64();
        std::hint::black_box(ex.finish());
        secs
    };
    std::hint::black_box(once());
    let mut samples: Vec<f64> = (0..5).map(|_| once()).collect();
    samples.sort_by(f64::total_cmp);
    samples[2]
}

struct Row {
    label: String,
    chunk: usize,
    secs: f64,
    rate: f64,
    speedup: f64,
}

fn main() -> Result<(), MsaError> {
    let scale = scale();
    let records = stream(scale);
    let plan = plan()?;
    let n = records.len();
    println!("Chunked LFTA throughput, one shard, {n} records, 1 epoch");

    // Determinism gate: both paths, twice each, bit-identical outputs —
    // and the chunked output equal to the scalar one.
    let (sr1, sh1) = scalar_run(&plan, &records);
    let (sr2, sh2) = scalar_run(&plan, &records);
    assert_eq!(sr1, sr2, "scalar runs differ");
    assert_eq!(sh1.results(), sh2.results(), "scalar runs differ");
    let window = chunk_stream(&records, PROCESSING_WINDOW_SIZE);
    let (cr1, ch1) = chunked_run(&plan, &window);
    let (cr2, ch2) = chunked_run(&plan, &window);
    assert_eq!(cr1, cr2, "chunked runs differ");
    assert_eq!(ch1.results(), ch2.results(), "chunked runs differ");
    assert_eq!(cr1, sr1, "chunked report != scalar report");
    assert_eq!(ch1.results(), sh1.results(), "chunked results != scalar");
    assert_eq!(sr1.records, n as u64);
    println!("determinism: scalar == chunked, bit for bit, across repeat runs");

    let scalar_secs = time_runs(&plan, |ex| process_all(ex, &records));
    let mut rows = vec![Row {
        label: "scalar".into(),
        chunk: 1,
        secs: scalar_secs,
        rate: n as f64 / scalar_secs,
        speedup: 1.0,
    }];
    for &size in &[64usize, 256, PROCESSING_WINDOW_SIZE] {
        let chunks = chunk_stream(&records, size);
        let secs = time_runs(&plan, |ex| {
            for c in &chunks {
                ex.offer_chunk(c);
            }
        });
        rows.push(Row {
            label: format!("chunked/{size}"),
            chunk: size,
            secs,
            rate: n as f64 / secs,
            speedup: scalar_secs / secs.max(f64::MIN_POSITIVE),
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{:.0}", r.rate / 1e3),
                format!("{:.2}", r.speedup),
                format!("{:.4}", r.secs),
            ]
        })
        .collect();
    print_table(
        "Single-shard ingestion throughput by chunk size",
        &["path", "krec/s", "speedup", "secs"],
        &table,
    );

    let best = rows
        .iter()
        .skip(1)
        .map(|r| r.speedup)
        .fold(0.0f64, f64::max);
    if scale >= 1.0 {
        assert!(
            best >= 2.0,
            "chunked path must clear 2x single-shard scalar throughput at full \
             scale; best measured {best:.2}x"
        );
    }

    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"path\": \"{}\", \"chunk_size\": {}, \"records_per_sec\": {:.0}, \
                 \"secs\": {:.6}, \"speedup_vs_scalar\": {:.3}}}",
                r.label, r.chunk, r.rate, r.secs, r.speedup
            )
        })
        .collect();
    let out = format!(
        "{{\n  \"bench\": \"chunk_throughput\",\n  \"workload\": \"uniform4_memory_bound\",\n  \
         \"records\": {n},\n  \"seed\": {},\n  \"processing_window_size\": {},\n  \
         \"determinism\": \"asserted: two runs per path and chunked==scalar, bit-identical \
         reports and result lists, before timing\",\n  \
         \"target\": \"best chunked speedup >= 2.0 at MSA_SCALE=1 (asserted in-bench)\",\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        seed(),
        PROCESSING_WINDOW_SIZE,
        body.join(",\n")
    );
    std::fs::write("results/BENCH_chunk_throughput.json", &out)
        .map_err(|e| MsaError::TraceIo(e.into()))?;
    println!("wrote results/BENCH_chunk_throughput.json");
    Ok(())
}
