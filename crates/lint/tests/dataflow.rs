//! The dataflow rules (D007 / R007 / R008) against their fixtures —
//! including a three-crate fixture workspace proving the engine tracks
//! taint *across crate boundaries*, not just within a file.
//!
//! Fixtures live under `tests/fixtures/` (skipped by the workspace
//! scan) and are mapped here onto the synthetic workspace-relative
//! paths each rule scopes on.

use msa_lint::dataflow::analyze;
use msa_lint::rules::Finding;

fn run(files: &[(&str, &str)]) -> Vec<Finding> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(rel, src)| ((*rel).to_owned(), (*src).to_owned()))
        .collect();
    analyze(&owned)
}

fn only(findings: &[Finding], rule: &str) -> Vec<Finding> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .cloned()
        .collect()
}

#[test]
fn d007_taint_reaches_sinks_only_through_calls() {
    let pos = include_str!("fixtures/d007_pos.rs");
    let neg = include_str!("fixtures/d007_neg.rs");
    let hits = only(&run(&[("crates/gigascope/src/snapshot.rs", pos)]), "D007");
    // One per sink: the `snap.digest = salt ^ epoch` field write and
    // the `encode_digest(out, salt)` encoder argument. Both salts come
    // out of `tag()` → `widen()` — two calls deep from the `as *const`
    // pointer cast, so a purely lexical check cannot see either.
    assert_eq!(hits.len(), 2, "{hits:?}");
    assert!(
        hits.iter().any(|f| f.message.contains("digest")),
        "{hits:?}"
    );
    assert!(run(&[("crates/gigascope/src/snapshot.rs", neg)]).is_empty());
}

#[test]
fn d007_taint_crosses_crate_boundaries() {
    // timeutil derives a value from thread identity; gigascope's codec
    // writes its parameter into the snapshot digest; core's engine
    // connects the two. The violation exists only in the composition —
    // each crate alone is clean — and must be reported at the engine's
    // call site.
    let timeutil = include_str!("fixtures/xcrate/timeutil.rs");
    let snapshot = include_str!("fixtures/xcrate/gigascope_snapshot.rs");
    let engine = include_str!("fixtures/xcrate/core_engine.rs");
    let hits = only(
        &run(&[
            ("crates/timeutil/src/lib.rs", timeutil),
            ("crates/gigascope/src/snapshot.rs", snapshot),
            ("crates/core/src/engine.rs", engine),
        ]),
        "D007",
    );
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].file, "crates/core/src/engine.rs");
    assert!(
        hits[0].message.contains("encode_digest"),
        "{}",
        hits[0].message
    );
    // Each crate alone: no finding.
    assert!(run(&[("crates/timeutil/src/lib.rs", timeutil)]).is_empty());
    assert!(run(&[("crates/gigascope/src/snapshot.rs", snapshot)]).is_empty());
}

#[test]
fn r007_increment_hidden_behind_a_helper() {
    let pos = include_str!("fixtures/r007_pos.rs");
    let neg = include_str!("fixtures/r007_neg.rs");
    let bounds = "pub struct BoundsReport { pub records_spilled_lost: u64 }";
    // The increment happens inside `bump(&mut self.records_spilled_lost)`
    // — no `+=` ever touches the counter name directly — and the merge
    // fn folds a different field: one conservation finding.
    let hits = only(
        &run(&[
            ("crates/gigascope/src/spill.rs", pos),
            ("crates/gigascope/src/bounds.rs", bounds),
        ]),
        "R007",
    );
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(
        hits[0].message.contains("records_spilled_lost"),
        "{}",
        hits[0].message
    );
    // Same helper-mediated increment, but merge folds the counter and
    // bounds.rs surfaces it: clean.
    assert!(run(&[
        ("crates/gigascope/src/spill.rs", neg),
        ("crates/gigascope/src/bounds.rs", bounds),
    ])
    .is_empty());
}

#[test]
fn r008_panic_sites_on_the_hot_path() {
    let pos = include_str!("fixtures/r008_pos.rs");
    let neg = include_str!("fixtures/r008_neg.rs");
    // offer → admit → probe: the unclamped `%` and the slot indexing
    // both sit two hops from the per-record entry point.
    let hits = only(&run(&[("crates/gigascope/src/table.rs", pos)]), "R008");
    assert_eq!(hits.len(), 2, "{hits:?}");
    for f in &hits {
        assert!(
            f.message.contains("offer -> admit -> probe"),
            "{}",
            f.message
        );
    }
    // Clamped modulo + get_mut, and an unwrap four hops out (beyond the
    // reachability horizon): clean.
    assert!(run(&[("crates/gigascope/src/table.rs", neg)]).is_empty());
    // The chunked ingestion entry point is a root too: a panic site
    // reachable from offer_chunk is on the hot path even when nothing
    // named `offer` exists in the file.
    let chunk_pos = "pub struct Lfta { slots: Vec<u64> }\n\
         impl Lfta {\n\
             pub fn feed(&mut self, keys: &[u64]) {\n\
                 for &k in keys { self.offer_chunk(k); }\n\
             }\n\
             pub fn offer_chunk(&mut self, key: u64) {\n\
                 self.apply(key);\n\
             }\n\
             fn apply(&mut self, key: u64) {\n\
                 let idx = (key % self.slots.len() as u64) as usize;\n\
                 self.slots[idx] += 1;\n\
             }\n\
         }\n";
    let hits = only(
        &run(&[("crates/gigascope/src/executor.rs", chunk_pos)]),
        "R008",
    );
    assert_eq!(hits.len(), 2, "{hits:?}");
    for f in &hits {
        assert!(f.message.contains("offer_chunk -> apply"), "{}", f.message);
    }
    // supervise.rs is the sanctioned catch_unwind boundary: the same
    // violating source there produces no hot-path roots.
    assert!(run(&[("crates/gigascope/src/supervise.rs", pos)]).is_empty());
    // Outside gigascope there is no per-record hot path to protect.
    assert!(run(&[("crates/optimizer/src/table.rs", pos)]).is_empty());
}
