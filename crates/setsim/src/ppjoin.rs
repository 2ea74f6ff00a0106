//! The PPJoin / PPJoin+ indexed kernel.
//!
//! This is the "PK" kernel of the paper: an inverted index over *prefix
//! tokens* combined with the length, positional, and (optionally) suffix
//! filters. The streaming interface matches how the paper's stage-2 reducers
//! consume it:
//!
//! * records arrive in **non-decreasing set-size order** (the composite
//!   `(group, length)` key sort guarantees this inside each reduce group);
//! * each record first **probes** the index for joining partners, then is
//!   **inserted**;
//! * as probe lengths grow, indexed records whose size falls below the
//!   length-filter lower bound are **evicted**, which is the memory
//!   optimization the paper highlights ("the index knows the lower bound on
//!   the length of the unseen data elements ... and discards the data
//!   elements below the minimum length").
//!
//! The index exposes its approximate footprint so MapReduce reducers can
//! charge their [`memory gauge`](mapreduce::MemoryGauge)-equivalent budgets.

use std::collections::HashMap;

use crate::measure::Threshold;
use crate::naive::Record;
use crate::suffix::suffix_survives;
use crate::verify::overlap_at_least;

/// Which optional filters the kernel applies (prefix + length are always on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterConfig {
    /// Positional filter (PPJoin).
    pub positional: bool,
    /// Suffix filter (PPJoin+).
    pub suffix: bool,
}

impl FilterConfig {
    /// PPJoin+: positional and suffix filters on — the paper's PK kernel.
    pub fn ppjoin_plus() -> Self {
        FilterConfig {
            positional: true,
            suffix: true,
        }
    }

    /// PPJoin: positional filter only.
    pub fn ppjoin() -> Self {
        FilterConfig {
            positional: true,
            suffix: false,
        }
    }

    /// Prefix + length filters only (All-Pairs-style candidate generation).
    pub fn prefix_only() -> Self {
        FilterConfig {
            positional: false,
            suffix: false,
        }
    }
}

impl Default for FilterConfig {
    fn default() -> Self {
        Self::ppjoin_plus()
    }
}

#[derive(Debug, Clone, Copy)]
struct Posting {
    rec: u32,
    pos: u32,
}

#[derive(Debug, Default)]
struct PostingList {
    /// Postings for evicted records are skipped by advancing `start` —
    /// record indices grow with length, so dead postings form a prefix.
    start: usize,
    posts: Vec<Posting>,
}

struct Stored {
    rid: u64,
    tokens: Vec<u32>,
}

/// Streaming PPJoin(+) index. See the module docs for the usage contract.
pub struct PpjoinIndex {
    t: Threshold,
    filters: FilterConfig,
    index: HashMap<u32, PostingList>,
    records: Vec<Stored>,
    /// First record index not yet evicted by the length watermark.
    live_from: usize,
    /// Length of the longest record seen, to enforce the ordering contract.
    max_len_seen: usize,
    /// If true, index the full probe prefix rather than the shorter index
    /// prefix. Required when probes may be *shorter* than indexed records
    /// (the R-S case); self-joins use the index prefix.
    index_full_prefix: bool,
    approx_bytes: u64,
    /// Candidate overlap accumulator, one slot per record index. A slot
    /// with `overlap == 0` is untouched; every probe resets the slots it
    /// touched before returning.
    cands: Vec<CandState>,
    /// Record indices whose `cands` slot the current probe touched.
    touched: Vec<u32>,
    /// Running count of candidates that reached the accumulator across all
    /// probes (before positional/suffix pruning).
    candidates_examined: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct CandState {
    overlap: u32,
    /// Position after the last matched token in the probe (x) and indexed
    /// record (y), for suffix filtering and verification resume.
    last_x: u32,
    last_y: u32,
    pruned: bool,
}

/// A joining partner reported by [`PpjoinIndex::probe`].
#[derive(Debug, Clone, PartialEq)]
pub struct Match {
    /// Partner record id.
    pub rid: u64,
    /// Exact similarity.
    pub sim: f64,
}

impl PpjoinIndex {
    /// An index for self-joins (records probe then insert, ascending size).
    pub fn new(t: Threshold, filters: FilterConfig) -> Self {
        Self::with_prefix_mode(t, filters, false)
    }

    /// An index that indexes the full probe prefix — required when probing
    /// records may be shorter than indexed ones (R-S joins).
    pub fn for_rs(t: Threshold, filters: FilterConfig) -> Self {
        Self::with_prefix_mode(t, filters, true)
    }

    fn with_prefix_mode(t: Threshold, filters: FilterConfig, full_prefix: bool) -> Self {
        PpjoinIndex {
            t,
            filters,
            index: HashMap::new(),
            records: Vec::new(),
            live_from: 0,
            max_len_seen: 0,
            index_full_prefix: full_prefix,
            approx_bytes: 64,
            cands: Vec::new(),
            touched: Vec::new(),
            candidates_examined: 0,
        }
    }

    /// Total candidates that entered the overlap accumulator across all
    /// probes so far — the prefix-filter survivor count, before positional
    /// and suffix pruning. Drives the candidate-count histograms.
    pub fn candidates_examined(&self) -> u64 {
        self.candidates_examined
    }

    /// Number of records currently indexed and not evicted.
    pub fn live_records(&self) -> usize {
        self.records.len() - self.live_from
    }

    /// Approximate footprint in bytes (records + postings), tracking
    /// evictions. Suitable for charging a task memory budget.
    pub fn approx_bytes(&self) -> u64 {
        self.approx_bytes
    }

    /// Evict records shorter than `min_len` (they can no longer join any
    /// current or future probe). Postings are skipped lazily.
    fn evict_below(&mut self, min_len: usize) {
        while self.live_from < self.records.len()
            && self.records[self.live_from].tokens.len() < min_len
        {
            let evicted = &self.records[self.live_from];
            self.approx_bytes = self
                .approx_bytes
                .saturating_sub(Self::record_bytes(&evicted.tokens));
            self.live_from += 1;
        }
    }

    fn record_bytes(tokens: &[u32]) -> u64 {
        // Tokens + Stored header + amortized posting entries.
        tokens.len() as u64 * 4 + 48
    }

    /// Probe for all indexed records joining `tokens` (sorted ranks).
    /// Does **not** insert.
    pub fn probe(&mut self, tokens: &[u32]) -> Vec<Match> {
        let lx = tokens.len();
        // Future probes are at least as long as this one, so any stored
        // record below this probe's lower bound can never join again.
        self.evict_below(self.t.lower_bound(lx));
        let probe_len = self.t.probe_prefix_len(lx);
        for (i, &tok) in tokens[..probe_len].iter().enumerate() {
            let Some(list) = self.index.get_mut(&tok) else {
                continue;
            };
            // Skip evicted prefix of the posting list.
            while list.start < list.posts.len()
                && (list.posts[list.start].rec as usize) < self.live_from
            {
                list.start += 1;
            }
            for &Posting { rec, pos } in &list.posts[list.start..] {
                let stored = &self.records[rec as usize];
                let ly = stored.tokens.len();
                if !self.t.length_compatible(lx, ly) {
                    continue;
                }
                let state = &mut self.cands[rec as usize];
                if state.overlap == 0 {
                    self.touched.push(rec);
                }
                if state.pruned {
                    continue;
                }
                state.overlap += 1;
                state.last_x = (i + 1) as u32;
                state.last_y = pos + 1;
                if self.filters.positional {
                    let alpha = self.t.overlap_needed(lx, ly);
                    let rest = (lx - i - 1).min(ly - pos as usize - 1);
                    if (state.overlap as usize) + rest < alpha {
                        state.pruned = true;
                    }
                }
            }
        }
        self.candidates_examined += self.touched.len() as u64;
        let mut out = Vec::new();
        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable();
        for &rec in &touched {
            let st = std::mem::take(&mut self.cands[rec as usize]);
            if st.pruned {
                continue;
            }
            let stored = &self.records[rec as usize];
            let y = &stored.tokens;
            let alpha = self.t.overlap_needed(lx, y.len());
            if self.filters.suffix {
                let required_suffix = alpha.saturating_sub(st.last_x.min(st.last_y) as usize);
                if !suffix_survives(
                    &tokens[st.last_x as usize..],
                    &y[st.last_y as usize..],
                    required_suffix,
                ) {
                    continue;
                }
            }
            // Verify by resuming the merge after the last matched positions.
            // The accumulated overlap is exactly
            // |x[..last_x] ∩ y[..last_y]|: every token in y[..last_y] lies in
            // y's indexed prefix and every token in x[..last_x] lies in x's
            // probe prefix, so any shared token in that region was a posting
            // hit and was counted. Seeding the merge with it is therefore
            // exact — the original PPJoin verification optimization.
            if let Some(overlap) = overlap_at_least(
                tokens,
                y,
                st.last_x as usize,
                st.last_y as usize,
                st.overlap as usize,
                alpha,
            ) {
                debug_assert_eq!(
                    overlap,
                    crate::verify::intersection_size(tokens, y),
                    "resumed verification must equal a full recount"
                );
                let sim = self.t.similarity_from_overlap(overlap, lx, y.len());
                out.push(Match {
                    rid: stored.rid,
                    sim,
                });
            }
        }
        touched.clear();
        self.touched = touched;
        out
    }

    /// Insert a record (sorted ranks). Panics in debug builds if records
    /// arrive out of size order.
    pub fn insert(&mut self, rid: u64, tokens: Vec<u32>) {
        debug_assert!(
            tokens.len() >= self.max_len_seen || self.index_full_prefix,
            "self-join inserts must arrive in non-decreasing size order"
        );
        debug_assert!(
            tokens.windows(2).all(|w| w[0] < w[1]),
            "tokens must be a sorted set"
        );
        self.max_len_seen = self.max_len_seen.max(tokens.len());
        let rec = u32::try_from(self.records.len()).expect("too many records in one index");
        let plen = if self.index_full_prefix {
            self.t.probe_prefix_len(tokens.len())
        } else {
            self.t.index_prefix_len(tokens.len())
        };
        for (pos, &tok) in tokens[..plen].iter().enumerate() {
            self.index.entry(tok).or_default().posts.push(Posting {
                rec,
                pos: pos as u32,
            });
        }
        self.approx_bytes += Self::record_bytes(&tokens) + plen as u64 * 8;
        self.records.push(Stored { rid, tokens });
        self.cands.push(CandState::default());
    }
}

/// Self-join a set of records with PPJoin(+). Records need not be
/// pre-sorted; output pairs are id-normalized (`a < b`) and sorted, with
/// exact duplicates removed.
pub fn self_join(records: &[Record], t: &Threshold, filters: FilterConfig) -> Vec<(u64, u64, f64)> {
    let mut sorted: Vec<&Record> = records.iter().collect();
    sorted.sort_by(|a, b| a.1.len().cmp(&b.1.len()).then_with(|| a.0.cmp(&b.0)));
    let mut index = PpjoinIndex::new(*t, filters);
    let mut out = Vec::new();
    for (rid, tokens) in sorted {
        for m in index.probe(tokens) {
            let (a, b) = if *rid < m.rid {
                (*rid, m.rid)
            } else {
                (m.rid, *rid)
            };
            out.push((a, b, m.sim));
        }
        index.insert(*rid, tokens.clone());
    }
    out.sort_by(|p, q| p.0.cmp(&q.0).then(p.1.cmp(&q.1)));
    out.dedup_by(|p, q| p.0 == q.0 && p.1 == q.1);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;

    fn recs(sets: &[&[u32]]) -> Vec<Record> {
        sets.iter()
            .enumerate()
            .map(|(i, s)| (i as u64 + 1, s.to_vec()))
            .collect()
    }

    fn assert_matches_naive(records: &[Record], t: &Threshold, filters: FilterConfig) {
        let expected = naive::self_join(records, t);
        let got = self_join(records, t, filters);
        let e: Vec<(u64, u64)> = expected.iter().map(|(a, b, _)| (*a, *b)).collect();
        let g: Vec<(u64, u64)> = got.iter().map(|(a, b, _)| (*a, *b)).collect();
        assert_eq!(g, e, "filters={filters:?}");
        for ((_, _, s1), (_, _, s2)) in got.iter().zip(&expected) {
            assert!((s1 - s2).abs() < 1e-12);
        }
    }

    #[test]
    fn matches_naive_on_structured_data() {
        let records = recs(&[
            &[1, 2, 3, 4, 5],
            &[1, 2, 3, 4, 6],
            &[2, 3, 4, 5, 6],
            &[10, 11, 12, 13, 14],
            &[10, 11, 12, 13, 15],
            &[1, 2],
            &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        ]);
        for filters in [
            FilterConfig::prefix_only(),
            FilterConfig::ppjoin(),
            FilterConfig::ppjoin_plus(),
        ] {
            for tau in [0.5, 0.6, 0.8, 0.9, 1.0] {
                assert_matches_naive(&records, &Threshold::jaccard(tau), filters);
            }
            assert_matches_naive(&records, &Threshold::cosine(0.8), filters);
            assert_matches_naive(&records, &Threshold::dice(0.8), filters);
            assert_matches_naive(&records, &Threshold::overlap(4), filters);
        }
    }

    #[test]
    fn identical_records_always_found() {
        let records = recs(&[&[5, 6, 7], &[5, 6, 7], &[5, 6, 7]]);
        let t = Threshold::jaccard(1.0);
        let pairs = self_join(&records, &t, FilterConfig::ppjoin_plus());
        assert_eq!(pairs.len(), 3);
        assert!(pairs.iter().all(|(_, _, s)| *s == 1.0));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let t = Threshold::jaccard(0.8);
        assert!(self_join(&[], &t, FilterConfig::ppjoin_plus()).is_empty());
        let one = recs(&[&[1]]);
        assert!(self_join(&one, &t, FilterConfig::ppjoin_plus()).is_empty());
    }

    #[test]
    fn eviction_shrinks_footprint() {
        // Records with rapidly growing lengths: by the time long records
        // probe, short ones must have been evicted.
        let mut records = Vec::new();
        for i in 0..40u64 {
            let len = 3 + (i as usize) * 3;
            let tokens: Vec<u32> = (0..len as u32).map(|k| k * 7 + i as u32).collect();
            let mut t: Vec<u32> = tokens;
            t.sort_unstable();
            t.dedup();
            records.push((i, t));
        }
        let t = Threshold::jaccard(0.9);
        let mut index = PpjoinIndex::new(t, FilterConfig::ppjoin());
        let mut max_live = 0;
        let mut sorted = records.clone();
        sorted.sort_by_key(|(_, t)| t.len());
        for (rid, tokens) in &sorted {
            index.probe(tokens);
            index.insert(*rid, tokens.clone());
            max_live = max_live.max(index.live_records());
        }
        assert!(
            max_live < records.len(),
            "length eviction should keep the live set small: {max_live}"
        );
        assert!(index.approx_bytes() > 0);
    }

    #[test]
    fn probe_without_insert_is_read_only() {
        let t = Threshold::jaccard(0.5);
        let mut index = PpjoinIndex::new(t, FilterConfig::ppjoin_plus());
        index.insert(1, vec![1, 2, 3, 4]);
        let m1 = index.probe(&[1, 2, 3, 5]);
        let m2 = index.probe(&[1, 2, 3, 5]);
        assert_eq!(m1, m2);
        assert_eq!(m1.len(), 1);
        assert_eq!(m1[0].rid, 1);
    }

    #[test]
    fn pruned_candidates_leave_no_state_for_the_next_probe() {
        // Jaccard 0.8 on 5-token sets: the index prefix is one token and a
        // pair needs an overlap of 5.
        let t = Threshold::jaccard(0.8);
        let mut index = PpjoinIndex::new(t, FilterConfig::ppjoin());
        index.insert(1, vec![1, 2, 3, 4, 5]);
        index.insert(2, vec![1, 2, 3, 4, 5]);
        // Token 1 is this probe's second token: at most 1 + 3 tokens can be
        // shared, so the positional filter prunes both candidates.
        assert!(index.probe(&[0, 1, 7, 8, 9]).is_empty());
        assert_eq!(index.candidates_examined(), 2);
        // A stale pruned flag or overlap would hide these matches.
        let rids: Vec<u64> = index
            .probe(&[1, 2, 3, 4, 5])
            .iter()
            .map(|m| m.rid)
            .collect();
        assert_eq!(rids, vec![1, 2]);
        assert_eq!(index.candidates_examined(), 4);
    }

    #[test]
    fn rs_mode_finds_shorter_probes() {
        // In R-S mode a probe shorter than the indexed record must still
        // find it (self-join mode would not guarantee this).
        let t = Threshold::jaccard(0.5);
        let mut index = PpjoinIndex::for_rs(t, FilterConfig::ppjoin());
        index.insert(1, vec![1, 2, 3, 4, 5, 6]);
        let m = index.probe(&[1, 2, 3, 4]);
        // Jaccard(4,6 sharing 4) = 4/6 = 0.66 ≥ 0.5.
        assert_eq!(m.len(), 1);
    }
}
