//! Randomized property tests over the core data structures and
//! invariants. Cases are drawn from a seeded [`SplitMix64`] so every run
//! explores the same (large) sample deterministically — the workspace
//! builds offline with no property-testing framework.

use msa_core::{AttrSet, Configuration, CostParams, Executor, LinearModel, Record};
use msa_gigascope::{PhysicalPlan, PlanNode};
use msa_optimizer::cost::{per_record_cost, CostContext};
use msa_optimizer::{AllocStrategy, FeedingGraph};
use msa_stream::hash::FastMap;
use msa_stream::{DatasetStats, GroupKey, SplitMix64};
use std::collections::BTreeSet;

/// A non-empty set of distinct non-empty attribute subsets over 4
/// attributes.
fn query_set(rng: &mut SplitMix64) -> Vec<AttrSet> {
    let n = 1 + rng.gen_index(4);
    let mut bits: BTreeSet<u16> = BTreeSet::new();
    while bits.len() < n {
        bits.insert(1 + rng.gen_u32_below(15) as u16);
    }
    bits.into_iter()
        .map(|b| AttrSet::from_bits(b).expect("within range"))
        .collect()
}

/// A batch of records over small domains (to force collisions).
fn record_batch(rng: &mut SplitMix64) -> Vec<Record> {
    let n = 1 + rng.gen_index(399);
    (0..n)
        .map(|i| {
            let vals = [
                rng.gen_u32_below(7),
                rng.gen_u32_below(5),
                rng.gen_u32_below(4),
                rng.gen_u32_below(3),
            ];
            Record::new(&vals, i as u64)
        })
        .collect()
}

fn exact(records: &[Record], q: AttrSet) -> FastMap<GroupKey, u64> {
    let mut m = FastMap::default();
    for r in records {
        *m.entry(r.project(q)).or_insert(0) += 1;
    }
    m
}

/// The executor produces exact counts for ANY valid plan shape and ANY
/// input batch — the fundamental correctness invariant.
#[test]
fn executor_is_exact_for_any_phantom_tree() {
    let mut rng = SplitMix64::new(0xE0);
    let s = |x: &str| AttrSet::parse(x).unwrap();
    for _ in 0..40 {
        let records = record_batch(&mut rng);
        let buckets = 1 + rng.gen_index(15);
        let plan = PhysicalPlan::new(vec![
            PlanNode {
                attrs: s("ABCD"),
                parent: None,
                buckets,
                is_query: false,
            },
            PlanNode {
                attrs: s("ABC"),
                parent: Some(0),
                buckets,
                is_query: false,
            },
            PlanNode {
                attrs: s("AB"),
                parent: Some(1),
                buckets,
                is_query: true,
            },
            PlanNode {
                attrs: s("C"),
                parent: Some(1),
                buckets,
                is_query: true,
            },
            PlanNode {
                attrs: s("D"),
                parent: Some(0),
                buckets,
                is_query: true,
            },
        ])
        .unwrap();
        let mut ex = Executor::new(plan, CostParams::paper(), u64::MAX, 11);
        ex.run(&records);
        let (_, hfta) = ex.finish();
        for q in ["AB", "C", "D"] {
            assert_eq!(hfta.totals(s(q)), exact(&records, s(q)), "query {q}");
        }
    }
}

/// Feeding-graph candidates are unions of queries, strict supersets of
/// at least two queries, and never queries themselves.
#[test]
fn feeding_graph_candidates_are_sound() {
    let mut rng = SplitMix64::new(0xF1);
    for _ in 0..200 {
        let queries = query_set(&mut rng);
        let graph = FeedingGraph::new(&queries);
        for &p in graph.phantom_candidates() {
            assert!(!queries.contains(&p));
            let covered = queries.iter().filter(|q| q.is_proper_subset_of(p)).count();
            assert!(covered >= 2, "{p} covers {covered} queries");
            let union = queries
                .iter()
                .filter(|q| q.is_subset_of(p))
                .fold(AttrSet::EMPTY, |u, &q| u.union(q));
            assert_eq!(union, p, "candidate {p} is not a union of covered queries");
        }
    }
}

/// Configurations derived from any phantom subset are forests: every
/// non-raw relation's parent is a strict superset, queries are exactly
/// the declared ones, and notation round-trips.
#[test]
fn configuration_tree_invariants() {
    let mut rng = SplitMix64::new(0xC2);
    for _ in 0..200 {
        let queries = query_set(&mut rng);
        let mask = rng.next_u64() % 64;
        let graph = FeedingGraph::new(&queries);
        let phantoms: Vec<AttrSet> = graph
            .phantom_candidates()
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, &p)| p)
            .collect();
        let cfg = Configuration::with_phantoms(&queries, &phantoms);
        assert_eq!(cfg.len(), queries.len() + phantoms.len());
        for r in cfg.relations() {
            if let Some(p) = cfg.parent(r) {
                assert!(r.is_proper_subset_of(p));
                // Parent is minimal: no other instantiated relation
                // strictly between r and p.
                for other in cfg.relations() {
                    assert!(
                        !(r.is_proper_subset_of(other) && other.is_proper_subset_of(p)),
                        "{p} not minimal parent of {r}: {other} between"
                    );
                }
            }
        }
        let round = Configuration::parse(&cfg.notation(), &queries).unwrap();
        assert_eq!(round, cfg);
    }
}

/// Every allocation strategy spends (approximately) the whole budget and
/// gives every table at least one bucket.
#[test]
fn allocations_conserve_budget() {
    let mut rng = SplitMix64::new(0xA3);
    for _ in 0..60 {
        let queries = query_set(&mut rng);
        let mask = rng.next_u64() % 16;
        let m = rng.gen_range_f64(2_000.0, 50_000.0);
        let graph = FeedingGraph::new(&queries);
        let phantoms: Vec<AttrSet> = graph
            .phantom_candidates()
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, &p)| p)
            .collect();
        let cfg = Configuration::with_phantoms(&queries, &phantoms);
        // Synthetic statistics: groups grow with arity.
        let stats =
            DatasetStats::from_group_counts(cfg.relations().map(|r| (r, 100 * r.len())), 100_000);
        let model = LinearModel::paper_no_intercept();
        let ctx = CostContext::new(&stats, &model);
        for strat in AllocStrategy::HEURISTICS {
            let alloc = strat.allocate(&cfg, m, &ctx);
            let spent = alloc.space_words();
            assert!(
                (spent - m).abs() / m < 0.05,
                "{}: spent {spent} of {m}",
                strat.name()
            );
            for (r, b) in alloc.iter() {
                assert!(b >= 1.0, "{}: {r} has {b} buckets", strat.name());
            }
        }
    }
}

/// The numeric optimum never loses to any heuristic (convexity of the
/// posynomial cost in log-space).
#[test]
fn numeric_allocation_dominates_heuristics() {
    let mut rng = SplitMix64::new(0xB4);
    let s = |x: &str| AttrSet::parse(x).unwrap();
    let queries = vec![s("AB"), s("BC"), s("BD"), s("CD")];
    for _ in 0..12 {
        let mask = rng.next_u64() % 16;
        let m = rng.gen_range_f64(4_000.0, 40_000.0);
        let graph = FeedingGraph::new(&queries);
        let phantoms: Vec<AttrSet> = graph
            .phantom_candidates()
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, &p)| p)
            .collect();
        let cfg = Configuration::with_phantoms(&queries, &phantoms);
        let stats = DatasetStats::from_group_counts(
            cfg.relations().map(|r| (r, 300 * r.len() * r.len())),
            100_000,
        );
        let model = LinearModel::paper_no_intercept();
        let ctx = CostContext::new(&stats, &model);
        let numeric = msa_optimizer::alloc::allocate_numeric(&cfg, m, &ctx, 150);
        let c_numeric = per_record_cost(&cfg, &numeric, &ctx);
        for strat in AllocStrategy::HEURISTICS {
            let a = strat.allocate(&cfg, m, &ctx);
            let c = per_record_cost(&cfg, &a, &ctx);
            assert!(
                c_numeric <= c * 1.02,
                "{}: numeric {c_numeric} vs heuristic {c}",
                strat.name()
            );
        }
    }
}

/// Collision models stay within [0, 1], increase with g, decrease with
/// b, and the closed form equals the literal sum.
#[test]
fn collision_model_invariants() {
    use msa_collision::models;
    let mut rng = SplitMix64::new(0xD5);
    for _ in 0..300 {
        let g = 1 + rng.next_u64() % 4999;
        let b = 1 + rng.next_u64() % 4999;
        let x = models::precise(g, b);
        assert!((0.0..=1.0).contains(&x));
        assert!(models::precise(g + 100, b) >= x - 1e-12);
        assert!(models::precise(g, b + 100) <= x + 1e-12);
        if b >= 2 {
            let sum = models::precise_sum(g, b);
            assert!((x - sum).abs() < 1e-8, "g={g} b={b}: {x} vs {sum}");
        }
    }
}

/// GroupKey projection/reprojection consistency for arbitrary records
/// and attribute-set pairs.
#[test]
fn reprojection_commutes() {
    let mut rng = SplitMix64::new(0xE6);
    for _ in 0..500 {
        let mut attrs = [0u32; 8];
        for slot in &mut attrs {
            *slot = rng.next_u32();
        }
        let own_bits = 1 + rng.gen_u32_below(255) as u16;
        let sub_bits = rng.gen_u32_below(256) as u16;
        let own = AttrSet::from_bits(own_bits).unwrap();
        let target = AttrSet::from_bits(sub_bits & own_bits).unwrap();
        if target.is_empty() {
            continue;
        }
        let r = Record {
            attrs,
            ts_micros: 0,
        };
        assert_eq!(r.project(own).reproject(own, target), r.project(target));
    }
}

/// AggState merging is associative and commutative — the invariant that
/// makes partial aggregates combine correctly no matter how evictions
/// interleave along the cascade.
#[test]
fn agg_state_merge_is_order_insensitive() {
    use msa_gigascope::table::AggState;
    let mut rng = SplitMix64::new(0xF7);
    for _ in 0..200 {
        let n = 1 + rng.gen_index(39);
        let values: Vec<u32> = (0..n).map(|_| rng.next_u32()).collect();
        let fold = |order: &[u32]| {
            let mut acc = AggState::from_value(order[0]);
            for &v in &order[1..] {
                acc.merge(&AggState::from_value(v));
            }
            acc
        };
        let forward = fold(&values);
        let mut reversed = values.clone();
        reversed.reverse();
        assert_eq!(forward, fold(&reversed));
        // Tree-shaped combination equals linear combination.
        if values.len() >= 2 {
            let mid = values.len() / 2;
            let mut left = fold(&values[..mid]);
            let right = fold(&values[mid..]);
            left.merge(&right);
            assert_eq!(forward, left);
        }
        assert_eq!(forward.count as usize, values.len());
        assert_eq!(
            forward.sum,
            values.iter().map(|&v| u64::from(v)).sum::<u64>()
        );
        assert_eq!(forward.min, *values.iter().min().unwrap());
        assert_eq!(forward.max, *values.iter().max().unwrap());
    }
}

/// Filters partition the stream: a filtered run plus the
/// complement-filtered run account for every record.
#[test]
fn filter_partitions_records() {
    use msa_core::{CmpOp, Filter};
    let mut rng = SplitMix64::new(0xA8);
    for _ in 0..60 {
        let records = record_batch(&mut rng);
        let threshold = rng.gen_u32_below(7);
        let keep = Filter::all().and(0, CmpOp::Lt, threshold);
        let drop = Filter::all().and(0, CmpOp::Ge, threshold);
        let kept = records.iter().filter(|r| keep.matches(r)).count();
        let dropped = records.iter().filter(|r| drop.matches(r)).count();
        assert_eq!(kept + dropped, records.len());
        // And the executor's filter metering agrees.
        let plan = PhysicalPlan::flat([(AttrSet::parse("A").unwrap(), 16)]);
        let mut ex =
            Executor::new(plan, CostParams::paper(), u64::MAX, 5).with_filter(keep.clone());
        ex.run(&records);
        assert_eq!(ex.report().filtered_out as usize, dropped);
    }
}

/// Trace encoding round-trips arbitrary records bit-exactly.
#[test]
fn trace_io_roundtrips() {
    use msa_stream::io::{decode_records, encode_records};
    let mut rng = SplitMix64::new(0xB9);
    for _ in 0..60 {
        let records = record_batch(&mut rng);
        let arity = 1 + rng.gen_index(4);
        // Zero out attributes beyond the declared arity (the format only
        // stores `arity` values per record).
        let narrowed: Vec<Record> = records
            .iter()
            .map(|r| {
                let mut attrs = [0u32; 8];
                attrs[..arity].copy_from_slice(&r.attrs[..arity]);
                Record {
                    attrs,
                    ts_micros: r.ts_micros,
                }
            })
            .collect();
        let mut buf = Vec::new();
        encode_records(&narrowed, arity, &mut buf);
        let (decoded, got_arity) = decode_records(&mut &buf[..]).unwrap();
        assert_eq!(got_arity, arity);
        assert_eq!(decoded, narrowed);
    }
}

/// The shard partitioner is a pure function of the root seed and the
/// record's grouping attributes: timestamps never influence placement,
/// equal attribute vectors always co-locate, and every assignment is
/// stable across calls and within range.
#[test]
fn partitioner_is_pure_in_seed_and_key() {
    use msa_core::shard_of;
    let mut rng = SplitMix64::new(0xC4A);
    for _ in 0..80 {
        let records = record_batch(&mut rng);
        let seed = rng.next_u64();
        let shards = 1 + rng.gen_index(8);
        let mut by_attrs: FastMap<[u32; 8], usize> = FastMap::default();
        for r in &records {
            let k = shard_of(seed, r, shards);
            assert!(k < shards, "assignment within range");
            // Stable across calls.
            assert_eq!(k, shard_of(seed, r, shards));
            // Timestamps are ignored.
            let shifted = Record {
                ts_micros: r.ts_micros.wrapping_add(rng.next_u64()),
                ..*r
            };
            assert_eq!(k, shard_of(seed, &shifted, shards));
            // Equal keys co-locate.
            match by_attrs.entry(r.attrs) {
                std::collections::hash_map::Entry::Occupied(e) => assert_eq!(*e.get(), k),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(k);
                }
            }
        }
        // A single shard degenerates to the identity placement.
        for r in &records {
            assert_eq!(shard_of(seed, r, 1), 0);
        }
    }
}

/// Chunked ingestion is pure batching: cutting a stream into chunks at
/// ANY set of boundaries — including cuts that straddle epoch flushes,
/// size-1 chunks and one giant chunk — produces outputs bit-identical
/// to offering every record individually.
#[test]
fn chunking_at_any_boundary_equals_per_record_offers() {
    use msa_core::{GuardPolicy, RecordChunk};
    let mut rng = SplitMix64::new(0xC47);
    let s = |x: &str| AttrSet::parse(x).unwrap();
    let plan = || {
        PhysicalPlan::new(vec![
            PlanNode {
                attrs: s("AB"),
                parent: None,
                buckets: 8,
                is_query: false,
            },
            PlanNode {
                attrs: s("A"),
                parent: Some(0),
                buckets: 4,
                is_query: true,
            },
            PlanNode {
                attrs: s("B"),
                parent: Some(0),
                buckets: 4,
                is_query: true,
            },
        ])
        .unwrap()
    };
    for case in 0..40 {
        let records = record_batch(&mut rng);
        // Short epochs (timestamps are 0..n micros) so flushes land
        // inside chunks; sometimes arm the guard.
        let epoch = 1 + rng.next_u64() % 120;
        let guard_on = rng.next_u64().is_multiple_of(2);
        let build = || {
            let mut ex = Executor::new(plan(), CostParams::paper(), epoch, 11);
            if guard_on {
                ex = ex.with_guard(GuardPolicy::new(50.0));
            }
            ex
        };
        let mut oracle = build();
        for r in &records {
            oracle.process(r);
        }
        let (want_report, want_hfta) = oracle.finish();
        // Random cut points: each record independently ends a chunk.
        let mut chunked = build();
        let mut chunk = RecordChunk::new();
        for r in &records {
            chunk.push(r);
            if rng.next_u64().is_multiple_of(4) {
                chunked.offer_chunk(&chunk);
                chunk.clear();
            }
        }
        chunked.offer_chunk(&chunk);
        let (got_report, got_hfta) = chunked.finish();
        assert_eq!(got_report, want_report, "case {case}: report");
        assert_eq!(got_hfta.results(), want_hfta.results(), "case {case}");
        // Size-1 chunks are the per-record offers themselves.
        let mut unit = build();
        for r in &records {
            unit.offer_chunk(&RecordChunk::from_records(std::slice::from_ref(r)));
        }
        let (unit_report, unit_hfta) = unit.finish();
        assert_eq!(unit_report, want_report, "case {case}: size-1 chunks");
        assert_eq!(unit_hfta.results(), want_hfta.results(), "case {case}");
    }
}

/// RecordChunk is a lossless columnar container: record round-trips,
/// split/append reconstruction at any midpoint, and the columnar
/// projection equals per-record projection for every lane and subset.
#[test]
fn record_chunk_split_concat_and_projection_roundtrip() {
    use msa_core::RecordChunk;
    let mut rng = SplitMix64::new(0xB3C);
    for _ in 0..80 {
        let records = record_batch(&mut rng);
        let chunk = RecordChunk::from_records(&records);
        assert_eq!(chunk.to_records(), records);
        // Split at a random midpoint, then append back: identity.
        let mid = rng.gen_index(chunk.len() + 1);
        let mut left = chunk.clone();
        let right = left.split_off(mid);
        assert_eq!(left.len(), mid);
        assert_eq!(right.len(), records.len() - mid);
        let mut rejoined = left;
        let mut tail = right;
        rejoined.append(&mut tail);
        assert!(tail.is_empty());
        assert_eq!(rejoined.to_records(), records);
        // Columnar projection over a random sub-range matches the
        // scalar per-record projection for a random attribute subset.
        let q = AttrSet::from_bits(1 + rng.gen_u32_below(15) as u16).unwrap();
        let from = rng.gen_index(records.len());
        let to = from + rng.gen_index(records.len() - from + 1);
        let mut keys = Vec::new();
        chunk.project_range(q, from, to, &mut keys);
        let want: Vec<GroupKey> = records[from..to].iter().map(|r| r.project(q)).collect();
        assert_eq!(keys, want, "subset {q} over {from}..{to}");
    }
}

/// Permuting the arrival order of a stream never changes the final
/// per-group counts of a sharded run — aggregation is
/// order-insensitive, so within one epoch any interleaving of the same
/// multiset of records yields the same totals (and they equal a naive
/// recount).
#[test]
fn shard_totals_are_arrival_order_invariant() {
    use msa_core::ShardedExecutor;
    let mut rng = SplitMix64::new(0xD5B);
    for _ in 0..20 {
        let queries = query_set(&mut rng);
        let mut records = record_batch(&mut rng);
        let shards = 1 + rng.gen_index(8);
        let seed = rng.next_u64();
        let plan = PhysicalPlan::flat(queries.iter().map(|&q| (q, 8)));
        let run = |records: &[Record]| {
            let mut sx =
                ShardedExecutor::new(plan.clone(), CostParams::paper(), u64::MAX, seed, shards)
                    .unwrap();
            sx.run(records);
            sx.finish()
        };
        let (_, baseline) = run(&records);
        // Fisher–Yates shuffle driven by the deterministic generator.
        for i in (1..records.len()).rev() {
            records.swap(i, rng.gen_index(i + 1));
        }
        let (_, shuffled) = run(&records);
        for &q in &queries {
            let want = exact(&records, q);
            assert_eq!(baseline.totals(q), want, "query {q} vs naive recount");
            assert_eq!(shuffled.totals(q), want, "query {q} after permutation");
        }
    }
}
