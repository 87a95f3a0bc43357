//! The naive reference aggregation every answer is checked against.
//!
//! For each epoch and query it fills one hash map record by record,
//! with no LFTA, no phantoms and no eviction, and keeps only a
//! fingerprint of the finished map: group count, total COUNT, total
//! SUM and an order-independent hash of every `(group, COUNT, SUM)`.
//! An answer matches when every `(query, epoch)` it reports has the
//! same fingerprint and no `(query, epoch)` is missing or repeated.
//! Keeping fingerprints instead of maps keeps the reference a few
//! kilobytes, so it does not blur the program's memory figure.

use msa_gigascope::hfta::EpochResult;
use msa_stream::hash::mix64;
use msa_stream::{AttrSet, Record};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

/// What one `(query, epoch)` answer must match.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    /// Distinct groups.
    pub groups: u64,
    /// Records over all groups.
    pub count: u64,
    /// Metric sum over all groups (0 when nothing is summed).
    pub sum: u64,
    /// Wrapping sum of one hash per `(group, count, sum)`.
    pub hash: u64,
}

impl Fingerprint {
    fn add(&mut self, values: &[u32], count: u64, sum: u64) {
        let mut h = mix64(values.len() as u64 ^ 0x5EED);
        for &v in values {
            h = mix64(h ^ u64::from(v));
        }
        h = mix64(h ^ count);
        h = mix64(h ^ sum.rotate_left(17));
        self.groups += 1;
        self.count += count;
        self.sum = self.sum.wrapping_add(sum);
        self.hash = self.hash.wrapping_add(h);
    }

    /// The fingerprint of a program's result; the SUM counts only when
    /// `summed`.
    pub fn of_result(result: &EpochResult, summed: bool) -> Fingerprint {
        let mut f = Fingerprint::default();
        for (key, agg) in &result.aggregates {
            f.add(key.values(), agg.count, if summed { agg.sum } else { 0 });
        }
        f
    }
}

/// Per-`(query, epoch)` fingerprints of the exact answer.
#[derive(Debug, Default)]
pub struct Reference {
    cells: BTreeMap<(u16, u64), Fingerprint>,
    summed: bool,
    records: u64,
}

impl Reference {
    /// Aggregates each epoch's records (`epochs[e]` indexes `records`)
    /// for every query, summing attribute `value_attr` when given.
    pub fn build(
        records: &[Record],
        epochs: &[Range<usize>],
        queries: &[AttrSet],
        value_attr: Option<usize>,
    ) -> Reference {
        let attrs: Vec<(u16, Vec<usize>)> = queries
            .iter()
            .map(|q| (q.bits(), q.iter().map(usize::from).collect()))
            .collect();
        let mut cells = BTreeMap::new();
        let mut map: HashMap<Vec<u32>, (u64, u64)> = HashMap::new();
        for (epoch, range) in epochs.iter().enumerate() {
            let slice = &records[range.clone()];
            if slice.is_empty() {
                continue;
            }
            for (bits, ids) in &attrs {
                map.clear();
                for r in slice {
                    let key: Vec<u32> = ids.iter().map(|&a| r.attrs[a]).collect();
                    let cell = map.entry(key).or_default();
                    cell.0 += 1;
                    cell.1 += value_attr.map_or(0, |a| u64::from(r.attrs[a]));
                }
                let mut f = Fingerprint::default();
                for (key, &(count, sum)) in &map {
                    f.add(key, count, sum);
                }
                cells.insert((*bits, epoch as u64), f);
            }
        }
        Reference {
            cells,
            summed: value_attr.is_some(),
            records: records.len() as u64,
        }
    }

    /// Records aggregated.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Checks `results`: every `(query, epoch)` with records must appear
    /// exactly once with the reference's fingerprint, and nothing else
    /// may appear except empty results.
    pub fn check(&self, results: &[EpochResult]) -> Result<(), String> {
        let mut seen: BTreeMap<(u16, u64), usize> = BTreeMap::new();
        for r in results.iter().filter(|r| !r.aggregates.is_empty()) {
            let id = (r.query.bits(), r.epoch);
            *seen.entry(id).or_default() += 1;
            let Some(want) = self.cells.get(&id) else {
                return Err(format!(
                    "unexpected result for query {} epoch {}",
                    r.query, r.epoch
                ));
            };
            let got = Fingerprint::of_result(r, self.summed);
            if got != *want {
                return Err(format!(
                    "query {} epoch {}: got {got:?}, reference {want:?}",
                    r.query, r.epoch
                ));
            }
        }
        for (bits, epoch) in self.cells.keys() {
            match seen.get(&(*bits, *epoch)) {
                Some(1) => {}
                Some(n) => return Err(format!("query bits {bits} epoch {epoch}: {n} results")),
                None => return Err(format!("query bits {bits} epoch {epoch}: missing")),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msa_gigascope::table::AggState;
    use msa_stream::hash::FastMap;
    use msa_stream::GroupKey;

    fn q(s: &str) -> AttrSet {
        AttrSet::parse(s).unwrap()
    }

    fn result(query: AttrSet, epoch: u64, groups: &[(&[u32], u64, u64)]) -> EpochResult {
        let mut aggregates = FastMap::default();
        for &(values, count, sum) in groups {
            aggregates.insert(
                GroupKey::from_values(values),
                AggState {
                    count,
                    sum,
                    min: 0,
                    max: 0,
                },
            );
        }
        EpochResult {
            query,
            epoch,
            aggregates,
        }
    }

    /// Two epochs: records 0..3 in epoch 0, record 3 in epoch 1.
    fn records() -> (Vec<Record>, Vec<Range<usize>>) {
        let records = vec![
            Record::new(&[1, 2, 3], 10),
            Record::new(&[1, 5, 4], 20),
            Record::new(&[2, 2, 5], 30),
            Record::new(&[1, 2, 6], 1_000),
        ];
        (records, vec![0..3, 3..4])
    }

    #[test]
    fn count_and_sum_per_query_and_epoch() {
        let (recs, epochs) = records();
        let r = Reference::build(&recs, &epochs, &[q("A"), q("BC")], Some(2));
        assert_eq!(r.records(), 4);
        let good = vec![
            result(q("A"), 0, &[(&[1], 2, 7), (&[2], 1, 5)]),
            result(
                q("BC"),
                0,
                &[(&[2, 3], 1, 3), (&[5, 4], 1, 4), (&[2, 5], 1, 5)],
            ),
            result(q("A"), 1, &[(&[1], 1, 6)]),
            result(q("BC"), 1, &[(&[2, 6], 1, 6)]),
            result(q("A"), 2, &[]),
        ];
        assert_eq!(r.check(&good), Ok(()));
        // One SUM off by one is caught.
        let mut bad_sum = good.clone();
        bad_sum[0] = result(q("A"), 0, &[(&[1], 2, 8), (&[2], 1, 5)]);
        assert!(r.check(&bad_sum).unwrap_err().contains("epoch 0"));
        // Counts moved between groups, totals unchanged, are caught.
        let mut moved = good.clone();
        moved[0] = result(q("A"), 0, &[(&[1], 1, 7), (&[2], 2, 5)]);
        assert!(r.check(&moved).is_err());
        // A group key with swapped attribute values is caught.
        let mut swapped = good;
        swapped[1] = result(
            q("BC"),
            0,
            &[(&[3, 2], 1, 3), (&[5, 4], 1, 4), (&[2, 5], 1, 5)],
        );
        assert!(r.check(&swapped).is_err());
    }

    #[test]
    fn count_only_ignores_sums() {
        let (recs, epochs) = records();
        let r = Reference::build(&recs, &epochs, &[q("A")], None);
        let res = vec![
            result(q("A"), 0, &[(&[1], 2, 99), (&[2], 1, 0)]),
            result(q("A"), 1, &[(&[1], 1, 5)]),
        ];
        assert_eq!(r.check(&res), Ok(()));
        let wrong_count = vec![
            result(q("A"), 0, &[(&[1], 3, 0), (&[2], 1, 0)]),
            result(q("A"), 1, &[(&[1], 1, 0)]),
        ];
        assert!(r.check(&wrong_count).is_err());
    }

    #[test]
    fn rejects_missing_duplicate_and_stray_results() {
        let (recs, epochs) = records();
        let r = Reference::build(&recs, &epochs, &[q("A")], None);
        let e0 = result(q("A"), 0, &[(&[1], 2, 0), (&[2], 1, 0)]);
        let e1 = result(q("A"), 1, &[(&[1], 1, 0)]);
        let missing = vec![e0.clone()];
        assert!(r.check(&missing).unwrap_err().contains("missing"));
        let twice = vec![e0.clone(), e1.clone(), e1.clone()];
        assert!(r.check(&twice).unwrap_err().contains("2 results"));
        let stray = vec![e0, e1, result(q("A"), 7, &[(&[1], 1, 0)])];
        assert!(r.check(&stray).unwrap_err().contains("unexpected"));
    }
}
