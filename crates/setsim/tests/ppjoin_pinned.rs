//! Pins the PPJoin(+) kernel on seeded `datagen` corpora: the candidate
//! count (`PpjoinIndex::candidates_examined`, the prefix-filter survivors
//! before positional and suffix pruning) and a digest of the joined pairs,
//! for the self-join index and the R-S (`for_rs`) index.
//!
//! The pinned numbers were computed with a hash-map candidate accumulator,
//! independent of the dense one the kernel uses now; any change to candidate
//! generation, pruning or verification shows up as a count or digest
//! mismatch.

use datagen::DataRecord;
use setsim::naive::Record;
use setsim::{oracle, ppjoin, rs, FilterConfig, PpjoinIndex, Threshold, WordTokenizer};

fn corpus(records: &[DataRecord]) -> Vec<(u64, String)> {
    records
        .iter()
        .map(|r| (r.rid, r.join_attribute()))
        .collect()
}

fn by_length(records: &[Record]) -> Vec<&Record> {
    let mut sorted: Vec<&Record> = records.iter().collect();
    sorted.sort_by(|a, b| a.1.len().cmp(&b.1.len()).then_with(|| a.0.cmp(&b.0)));
    sorted
}

/// FNV-1a over every `(a, b, sim bits)` row, in order.
fn digest(rows: &[(u64, u64, f64)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(a, b, sim) in rows {
        for word in [a, b, sim.to_bits()] {
            for byte in word.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

fn normalize(mut rows: Vec<(u64, u64, f64)>) -> Vec<(u64, u64, f64)> {
    rows.sort_by(|p, q| p.0.cmp(&q.0).then(p.1.cmp(&q.1)));
    rows.dedup_by(|p, q| p.0 == q.0 && p.1 == q.1);
    rows
}

/// `(pairs, digest, candidates)` of a self-join, driving the index the way
/// `ppjoin::self_join` does so the candidate count is observable.
fn self_join_pin(records: &[Record], t: Threshold, filters: FilterConfig) -> (usize, u64, u64) {
    let mut index = PpjoinIndex::new(t, filters);
    let mut rows = Vec::new();
    for (rid, tokens) in by_length(records) {
        for m in index.probe(tokens) {
            rows.push(((*rid).min(m.rid), (*rid).max(m.rid), m.sim));
        }
        index.insert(*rid, tokens.clone());
    }
    let rows = normalize(rows);
    assert_eq!(rows, ppjoin::self_join(records, &t, filters));
    (rows.len(), digest(&rows), index.candidates_examined())
}

/// `(pairs, digest, candidates)` of an R-S join, driving the `for_rs` index
/// the way `rs::indexed_rs_join` does.
fn rs_join_pin(
    r: &[Record],
    s: &[Record],
    t: Threshold,
    filters: FilterConfig,
) -> (usize, u64, u64) {
    let r_sorted = by_length(r);
    let mut index = PpjoinIndex::for_rs(t, filters);
    let mut next_r = 0;
    let mut rows = Vec::new();
    for (sid, y) in by_length(s) {
        while next_r < r_sorted.len() && r_sorted[next_r].1.len() <= t.upper_bound(y.len()) {
            let (rid, x) = r_sorted[next_r];
            index.insert(*rid, x.clone());
            next_r += 1;
        }
        for m in index.probe(y) {
            rows.push((m.rid, *sid, m.sim));
        }
    }
    let rows = normalize(rows);
    assert_eq!(rows, rs::indexed_rs_join(r, s, &t, filters));
    (rows.len(), digest(&rows), index.candidates_examined())
}

#[test]
fn self_join_candidates_and_pairs_are_pinned() {
    let corpus = corpus(&datagen::dblp(4000, 11));
    let (_, records) = oracle::project_corpus(&WordTokenizer::new(), &corpus);
    assert_eq!(
        self_join_pin(
            &records,
            Threshold::jaccard(0.8),
            FilterConfig::ppjoin_plus()
        ),
        (482, 8243673272186484518, 5008)
    );
    assert_eq!(
        self_join_pin(&records, Threshold::jaccard(0.6), FilterConfig::ppjoin()),
        (743, 11067196501159629739, 37164)
    );
}

#[test]
fn rs_join_candidates_and_pairs_are_pinned() {
    let r_corpus = corpus(&datagen::dblp(3000, 11));
    // S: CITESEERX-style records plus near-copies of every tenth R record
    // (last word dropped), with RIDs above every generated one.
    let mut s_corpus = corpus(&datagen::citeseerx(2000, 99));
    for (rid, attr) in r_corpus.iter().step_by(10) {
        let cut = attr.rfind(' ').unwrap_or(attr.len());
        s_corpus.push((rid + 1_000_000, attr[..cut].to_string()));
    }
    let tok = WordTokenizer::new();
    let (order, r) = oracle::project_corpus(&tok, &r_corpus);
    let s = oracle::project_with_order(&tok, &order, &s_corpus);
    assert_eq!(
        rs_join_pin(&r, &s, Threshold::jaccard(0.8), FilterConfig::ppjoin_plus()),
        (339, 9166662784485309172, 7937)
    );
    assert_eq!(
        rs_join_pin(&r, &s, Threshold::cosine(0.6), FilterConfig::ppjoin()),
        (404, 8751125585347488567, 500740)
    );
}
