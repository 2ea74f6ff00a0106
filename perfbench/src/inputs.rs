//! Workload inputs and their single-thread reference results.
//!
//! Every input is a pure function of the workload, the size and the seed.
//! The reference pair set is computed once per process with the `setsim`
//! kernels on one thread, outside every timed interval, and checked once
//! against All-Pairs, a kernel that shares no index code with PPJoin+.

use std::time::Instant;

use datagen::DataRecord;
use fuzzyjoin::{JoinConfig, RecordFormat};
use setsim::{allpairs, oracle, ppjoin, rs, FilterConfig, WordTokenizer};

/// One join result row: `(rid1, rid2, similarity)`.
pub type Row = (u64, u64, f64);

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// DBLP-style self-join through the three-stage pipeline.
    DblpSelf,
    /// DBLP (R) x CITESEERX (S) R-S join through the pipeline.
    DblpCiteRs,
    /// The `dblp-self` corpus joined by `ppjoin::self_join` on one thread.
    Ppjoin1t,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::DblpSelf, Workload::DblpCiteRs, Workload::Ppjoin1t];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::DblpSelf => "dblp-self",
            Workload::DblpCiteRs => "dblp-cite-rs",
            Workload::Ppjoin1t => "ppjoin-1t",
        }
    }

    /// Whether the workload runs the MapReduce pipeline.
    pub fn is_pipeline(self) -> bool {
        self != Workload::Ppjoin1t
    }
}

/// Input cardinalities. `full` is what the benchmark measures; `toy` keeps
/// the benchmark's own tests fast.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// DBLP records of the self-join corpus.
    pub self_records: usize,
    /// DBLP records of R in the R-S join.
    pub r_records: usize,
    /// CITESEERX records of S in the R-S join.
    pub s_records: usize,
}

impl Size {
    pub fn parse(name: &str) -> Option<Size> {
        match name {
            "full" => Some(Size {
                self_records: 200_000,
                r_records: 20_000,
                s_records: 100_000,
            }),
            "toy" => Some(Size {
                self_records: 4_000,
                r_records: 1_000,
                s_records: 3_000,
            }),
            _ => None,
        }
    }
}

/// Share of S records that take a near-duplicate of an R record's
/// title and authors.
pub const S_COPY_SHARE: f64 = 0.10;

/// The R-S result must hold at least this many pairs per copied S record.
/// Each copy is an exact or one-title-token-short duplicate of its R
/// record, so most copies join; a result below the floor means the input
/// no longer exercises stage 3.
pub const RS_PAIR_FLOOR_PER_COPY: f64 = 0.5;

/// The generated input of one workload.
pub struct Inputs {
    pub workload: Workload,
    /// Text lines of R (the only relation of a self-join).
    pub r_lines: Vec<String>,
    /// Text lines of S (R-S join only).
    pub s_lines: Option<Vec<String>>,
    /// S records carrying a copy of an R record's join attribute.
    pub s_copies: usize,
}

impl Inputs {
    pub fn generate(workload: Workload, size: Size, seed: u64) -> Inputs {
        match workload {
            Workload::DblpSelf | Workload::Ppjoin1t => Inputs {
                workload,
                r_lines: datagen::to_lines(&datagen::dblp(size.self_records, seed)),
                s_lines: None,
                s_copies: 0,
            },
            Workload::DblpCiteRs => {
                let r = datagen::dblp(size.r_records, seed);
                let mut s = datagen::citeseerx(size.s_records, seed);
                let s_copies = plant_near_duplicates(&r, &mut s, seed);
                Inputs {
                    workload,
                    r_lines: datagen::to_lines(&r),
                    s_lines: Some(datagen::to_lines(&s)),
                    s_copies,
                }
            }
        }
    }

    /// Input records over both relations.
    pub fn records(&self) -> usize {
        self.r_lines.len() + self.s_lines.as_ref().map_or(0, Vec::len)
    }
}

/// Text bytes of a relation, newline included (what the DFS stores).
pub fn text_mb(lines: &[String]) -> f64 {
    lines.iter().map(|l| l.len() + 1).sum::<usize>() as f64 / 1e6
}

/// A seeded splitmix64 stream: enough randomness to pick copy targets.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Give `S_COPY_SHARE` of the S records the title and authors of a
/// seeded-random R record, half of them with one title token dropped.
/// Abstracts, venues and RIDs stay those of S. Returns the copy count.
fn plant_near_duplicates(r: &[DataRecord], s: &mut [DataRecord], seed: u64) -> usize {
    let mut rng = SplitMix(seed ^ 0x0bad_5eed_cafe_f00d);
    let copies = (s.len() as f64 * S_COPY_SHARE).round() as usize;
    let mut copied = vec![false; s.len()];
    let mut planted = 0;
    while planted < copies {
        let at = rng.below(s.len());
        if std::mem::replace(&mut copied[at], true) {
            continue;
        }
        let source = &r[rng.below(r.len())];
        let mut title: Vec<&str> = source.title.split_whitespace().collect();
        if title.len() > 1 && rng.next().is_multiple_of(2) {
            title.remove(rng.below(title.len()));
        }
        s[at].title = title.join(" ");
        s[at].authors = source.authors.clone();
        planted += 1;
    }
    planted
}

/// The expected pair set of a workload, with the time its computation took.
pub struct Reference {
    pub rows: Vec<Row>,
    /// Tokenize, count and order, and project, on one thread.
    pub tokenize_order_s: f64,
    /// The PPJoin+ kernel join on one thread.
    pub join_s: f64,
}

/// Parse input lines into `(rid, join attribute)` the way the pipeline's
/// mappers do.
pub fn parse_corpus(lines: &[String]) -> Vec<(u64, String)> {
    let format = RecordFormat::bibliographic();
    lines
        .iter()
        .map(|l| format.parse(l).expect("generated lines parse"))
        .collect()
}

/// Compute the reference with the `setsim` kernels on one thread:
/// `ppjoin::self_join` for self-joins, `rs::indexed_rs_join` for R-S.
pub fn reference(inputs: &Inputs, config: &JoinConfig) -> Reference {
    let r = parse_corpus(&inputs.r_lines);
    match &inputs.s_lines {
        None => one_thread_self_join(&r, config),
        Some(s_lines) => one_thread_rs_join(&r, &parse_corpus(s_lines), config),
    }
}

/// Tokenize, order by frequency and join with PPJoin+ on one thread: the
/// `ppjoin-1t` workload and the self-join reference.
pub fn one_thread_self_join(corpus: &[(u64, String)], config: &JoinConfig) -> Reference {
    let started = Instant::now();
    let (_, records) = oracle::project_corpus(&WordTokenizer::new(), corpus);
    let tokenize_order_s = started.elapsed().as_secs_f64();
    let joined = Instant::now();
    let rows = ppjoin::self_join(&records, &config.threshold, FilterConfig::ppjoin_plus());
    Reference {
        rows,
        tokenize_order_s,
        join_s: joined.elapsed().as_secs_f64(),
    }
}

/// The R-S reference: token order from R alone, S tokens outside it
/// dropped, as in the pipeline.
fn one_thread_rs_join(r: &[(u64, String)], s: &[(u64, String)], config: &JoinConfig) -> Reference {
    let tok = WordTokenizer::new();
    let started = Instant::now();
    let (order, r_records) = oracle::project_corpus(&tok, r);
    let s_records = oracle::project_with_order(&tok, &order, s);
    let tokenize_order_s = started.elapsed().as_secs_f64();
    let joined = Instant::now();
    let rows = rs::indexed_rs_join(
        &r_records,
        &s_records,
        &config.threshold,
        FilterConfig::ppjoin_plus(),
    );
    Reference {
        rows,
        tokenize_order_s,
        join_s: joined.elapsed().as_secs_f64(),
    }
}

/// Check a reference against `allpairs::self_join`, which keeps its own
/// inverted index instead of `PpjoinIndex` and has no positional or suffix
/// filter. Both kernels verify with the same `verify_pair`, so the
/// similarities must match bit for bit. A PPJoin+ kernel change that drops
/// or adds pairs moves the reference and the pipeline's PK reducers alike;
/// this check is what catches it. For R-S, All-Pairs self-joins R and S
/// together, S's RIDs moved above R's, and keeps the R-S pairs.
pub fn cross_check(inputs: &Inputs, config: &JoinConfig, expected: &[Row]) -> Result<(), String> {
    let tok = WordTokenizer::new();
    let (order, mut records) = oracle::project_corpus(&tok, &parse_corpus(&inputs.r_lines));
    let rows = match &inputs.s_lines {
        None => allpairs::self_join(&records, &config.threshold),
        Some(s_lines) => {
            let offset = records.iter().map(|(rid, _)| rid + 1).max().unwrap_or(0);
            let s = oracle::project_with_order(&tok, &order, &parse_corpus(s_lines));
            records.extend(s.into_iter().map(|(rid, set)| (rid + offset, set)));
            allpairs::self_join(&records, &config.threshold)
                .into_iter()
                .filter(|&(a, b, _)| a < offset && b >= offset)
                .map(|(a, b, sim)| (a, b - offset, sim))
                .collect()
        }
    };
    let d = oracle::diff(&rows, expected);
    if d.is_empty() {
        return Ok(());
    }
    Err(format!(
        "the reference differs from All-Pairs: {} missing, {} spurious, {} sim mismatches",
        d.missing.len(),
        d.spurious.len(),
        d.sim_mismatches.len()
    ))
}

/// The pair floor of an R-S input; 0 for self-joins.
pub fn pair_floor(inputs: &Inputs) -> usize {
    (inputs.s_copies as f64 * RS_PAIR_FLOOR_PER_COPY).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let size = Size::parse("toy").unwrap();
        let a = Inputs::generate(Workload::DblpCiteRs, size, 5);
        let b = Inputs::generate(Workload::DblpCiteRs, size, 5);
        let c = Inputs::generate(Workload::DblpCiteRs, size, 6);
        assert_eq!(a.r_lines, b.r_lines);
        assert_eq!(a.s_lines, b.s_lines);
        assert_ne!(a.s_lines, c.s_lines);
        assert_eq!(a.s_copies, 300);
    }

    #[test]
    fn all_pairs_agrees_with_the_reference_and_catches_a_wrong_one() {
        let size = Size::parse("toy").unwrap();
        let config = JoinConfig::recommended();
        for workload in [Workload::DblpSelf, Workload::DblpCiteRs] {
            let inputs = Inputs::generate(workload, size, 7);
            let mut rows = reference(&inputs, &config).rows;
            assert!(!rows.is_empty(), "{workload:?}");
            cross_check(&inputs, &config, &rows).unwrap();
            rows.pop();
            assert!(
                cross_check(&inputs, &config, &rows).is_err(),
                "{workload:?}"
            );
        }
    }

    #[test]
    fn planted_copies_join_above_the_floor() {
        let size = Size::parse("toy").unwrap();
        let inputs = Inputs::generate(Workload::DblpCiteRs, size, 9);
        let reference = reference(&inputs, &JoinConfig::recommended());
        assert!(
            reference.rows.len() >= pair_floor(&inputs),
            "{} pairs for {} copies",
            reference.rows.len(),
            inputs.s_copies
        );
    }
}
