//! Stage 1: token ordering.
//!
//! Scans the input records, computes per-token frequencies over the join
//! attribute, and produces the global token list ordered by **increasing**
//! frequency — the order that makes record prefixes hold their rarest
//! tokens, balancing stage-2 workload under token-frequency skew.
//!
//! The paper's two variants, plus one extension:
//!
//! * **BTO** (Basic Token Ordering) — two jobs: (1) classic word-count;
//!   (2) a sort job that swaps `(token, count)` to
//!   `(count, token)` keys and funnels everything through a single reducer,
//!   whose output is the totally ordered token list.
//! * **OPTO** (One-Phase Token Ordering) — one job: same counting map side,
//!   but the single reducer keeps `(token, total)` in memory and sorts the
//!   tokens in its tear-down, trading a second job for reducer memory.
//! * **BTO-R** ([`Stage1Algo::BtoRange`], extension) — BTO with a sampled
//!   range partitioner so the sort runs on many reducers yet still yields
//!   one total order, removing the single-reducer bottleneck the paper
//!   measures.
//!
//! All three count with in-mapper combining (Lin & Dyer, *Data-Intensive
//! Text Processing with MapReduce*, ch. 3) instead of the paper's combiner:
//! a map task emits one `(token, count)` per distinct token it saw, not one
//! `(token, 1)` per occurrence, so nothing is left for a combiner to do.

use std::collections::HashMap;
use std::sync::Arc;

use mapreduce::{
    range_partitioner, sample_boundaries, seq_input, text_input, ByteReader, Cluster, Codec, Dfs,
    Emit, Job, Mapper, MrError, PipelineMetrics, Reducer, Result, TaskContext,
};

use crate::config::{BadRecordPolicy, JoinConfig, RecordFormat, Stage1Algo, TokenizerKind};
use crate::recovery::{self, Recovery};
use crate::tokenizer_cache::CachedTokenizer;

/// Mapper shared by BTO job 1 and OPTO: parse the record, tokenize the join
/// attribute, and count tokens per task, emitting `(token, count)` once per
/// distinct token in `cleanup`.
///
/// The counts are charged to the task's memory gauge. When the budget cannot
/// hold another token the counts so far are flushed downstream and counting
/// starts over; the sum reducers add up the repeated keys.
#[derive(Clone)]
pub struct TokenCountMapper {
    format: RecordFormat,
    tokenizer: CachedTokenizer,
    bad_records: BadRecordPolicy,
    counts: HashMap<String, u64>,
    charged: u64,
}

impl TokenCountMapper {
    /// Build from the join configuration.
    pub fn new(format: RecordFormat, tokenizer: TokenizerKind) -> Self {
        Self::with_policy(format, tokenizer, BadRecordPolicy::Strict)
    }

    /// Build with an explicit bad-record policy.
    pub fn with_policy(
        format: RecordFormat,
        tokenizer: TokenizerKind,
        bad_records: BadRecordPolicy,
    ) -> Self {
        TokenCountMapper {
            format,
            tokenizer: CachedTokenizer::new(tokenizer),
            bad_records,
            counts: HashMap::new(),
            charged: 0,
        }
    }

    /// Emit every held count and release its memory charge.
    fn flush(&mut self, out: &mut dyn Emit<String, u64>, ctx: &TaskContext) -> Result<()> {
        for (token, n) in self.counts.drain() {
            out.emit(token, n)?;
        }
        ctx.memory().release(self.charged);
        self.charged = 0;
        Ok(())
    }
}

impl Mapper for TokenCountMapper {
    type InKey = u64;
    type InValue = String;
    type OutKey = String;
    type OutValue = u64;

    fn map(
        &mut self,
        _offset: &u64,
        line: &String,
        out: &mut dyn Emit<String, u64>,
        ctx: &TaskContext,
    ) -> Result<()> {
        let attr = match self.format.parse(line) {
            Ok((_rid, attr)) => attr,
            Err(e) => return self.bad_records.on_bad_record(ctx, e),
        };
        ctx.counter("stage1.records").incr();
        for token in self.tokenizer.tokenize(&attr) {
            if let Some(n) = self.counts.get_mut(&token) {
                *n += 1;
                continue;
            }
            let bytes = token.len() as u64 + 32;
            if ctx.memory().available() < bytes {
                self.flush(out, ctx)?;
                if ctx.memory().available() < bytes {
                    // Not even one count fits: pass the occurrence through.
                    out.emit(token, 1)?;
                    continue;
                }
            }
            ctx.memory().charge(bytes)?;
            self.charged += bytes;
            self.counts.insert(token, 1);
        }
        Ok(())
    }

    fn cleanup(&mut self, out: &mut dyn Emit<String, u64>, ctx: &TaskContext) -> Result<()> {
        self.flush(out, ctx)
    }
}

/// Reducer of BTO job 1: total count per token.
#[derive(Clone, Default)]
struct SumReducer;

impl Reducer for SumReducer {
    type Key = String;
    type InValue = u64;
    type OutKey = String;
    type OutValue = u64;

    fn reduce(
        &mut self,
        key: &String,
        values: &mut dyn Iterator<Item = (String, u64)>,
        out: &mut dyn Emit<String, u64>,
        _ctx: &TaskContext,
    ) -> Result<()> {
        out.emit(key.clone(), values.map(|(_, n)| n).sum())
    }
}

/// Mapper of BTO job 2: swap `(token, count)` into a `(count, token)` key so
/// the framework sorts by frequency (token as tiebreak for determinism).
#[derive(Clone, Default)]
struct SwapForSortMapper;

impl Mapper for SwapForSortMapper {
    type InKey = String;
    type InValue = u64;
    type OutKey = (u64, String);
    type OutValue = ();

    fn map(
        &mut self,
        token: &String,
        count: &u64,
        out: &mut dyn Emit<(u64, String), ()>,
        _ctx: &TaskContext,
    ) -> Result<()> {
        out.emit((*count, token.clone()), ())
    }
}

/// Reducer of BTO job 2: echo tokens in sorted order (single reducer).
#[derive(Clone, Default)]
struct EmitTokenReducer;

impl Reducer for EmitTokenReducer {
    type Key = (u64, String);
    type InValue = ();
    type OutKey = String;
    type OutValue = ();

    fn reduce(
        &mut self,
        key: &(u64, String),
        _values: &mut dyn Iterator<Item = ((u64, String), ())>,
        out: &mut dyn Emit<String, ()>,
        _ctx: &TaskContext,
    ) -> Result<()> {
        // Job 1 reduced per token, so each token arrives in exactly one
        // `(count, token)` key and the group holds that single record.
        out.emit(key.1.clone(), ())
    }
}

/// OPTO reducer: accumulate totals in memory, sort in tear-down.
#[derive(Clone, Default)]
struct OptoReducer {
    acc: Vec<(String, u64)>,
    charged: u64,
}

impl Reducer for OptoReducer {
    type Key = String;
    type InValue = u64;
    type OutKey = String;
    type OutValue = ();

    fn reduce(
        &mut self,
        key: &String,
        values: &mut dyn Iterator<Item = (String, u64)>,
        _out: &mut dyn Emit<String, ()>,
        ctx: &TaskContext,
    ) -> Result<()> {
        let total: u64 = values.map(|(_, n)| n).sum();
        let bytes = key.len() as u64 + 32;
        ctx.memory().charge(bytes)?;
        self.charged += bytes;
        self.acc.push((key.clone(), total));
        Ok(())
    }

    fn cleanup(&mut self, out: &mut dyn Emit<String, ()>, ctx: &TaskContext) -> Result<()> {
        self.acc
            .sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        for (token, _) in self.acc.drain(..) {
            out.emit(token, ())?;
        }
        ctx.memory().release(self.charged);
        self.charged = 0;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Process-isolated execution
// ---------------------------------------------------------------------------

/// Factory name under which the BTO count job is registered for
/// process-isolated workers (see [`register_process_jobs`]).
pub const BTO_COUNT_FACTORY: &str = "core.stage1.bto-count";

/// Factory name under which the BTO sort job is registered for
/// process-isolated workers (see [`register_process_jobs`]).
pub const BTO_SORT_FACTORY: &str = "core.stage1.bto-sort";

/// Wire form of the count job's parameters: everything the worker-side
/// factory needs to rebuild the job from scratch.
struct CountPayload {
    input: String,
    output: String,
    rid_field: u64,
    join_fields: Vec<u64>,
    tokenizer: u8,
    qgram: u64,
    bad_records: u8,
    bad_limit: u64,
}

impl Codec for CountPayload {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.input.encode(buf);
        self.output.encode(buf);
        self.rid_field.encode(buf);
        self.join_fields.encode(buf);
        self.tokenizer.encode(buf);
        self.qgram.encode(buf);
        self.bad_records.encode(buf);
        self.bad_limit.encode(buf);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(CountPayload {
            input: Codec::decode(r)?,
            output: Codec::decode(r)?,
            rid_field: Codec::decode(r)?,
            join_fields: Codec::decode(r)?,
            tokenizer: Codec::decode(r)?,
            qgram: Codec::decode(r)?,
            bad_records: Codec::decode(r)?,
            bad_limit: Codec::decode(r)?,
        })
    }
}

impl CountPayload {
    fn new(input: &str, output: &str, config: &JoinConfig) -> Self {
        let (tokenizer, qgram) = match config.tokenizer {
            TokenizerKind::Word => (0, 0),
            TokenizerKind::QGram(q) => (1, q as u64),
        };
        let (bad_records, bad_limit) = match config.bad_records {
            BadRecordPolicy::Strict => (0, 0),
            BadRecordPolicy::Skip => (1, 0),
            BadRecordPolicy::SkipUpTo(n) => (2, n),
        };
        CountPayload {
            input: input.to_string(),
            output: output.to_string(),
            rid_field: config.format.rid_field as u64,
            join_fields: config
                .format
                .join_fields
                .iter()
                .map(|&f| f as u64)
                .collect(),
            tokenizer,
            qgram,
            bad_records,
            bad_limit,
        }
    }

    fn mapper(&self) -> Result<TokenCountMapper> {
        let tokenizer = match self.tokenizer {
            0 => TokenizerKind::Word,
            1 => TokenizerKind::QGram(self.qgram as usize),
            t => return Err(MrError::Codec(format!("unknown tokenizer tag {t}"))),
        };
        let bad_records = match self.bad_records {
            0 => BadRecordPolicy::Strict,
            1 => BadRecordPolicy::Skip,
            2 => BadRecordPolicy::SkipUpTo(self.bad_limit),
            t => return Err(MrError::Codec(format!("unknown bad-record tag {t}"))),
        };
        let format = RecordFormat {
            rid_field: self.rid_field as usize,
            join_fields: self.join_fields.iter().map(|&f| f as usize).collect(),
        };
        Ok(TokenCountMapper::with_policy(
            format,
            tokenizer,
            bad_records,
        ))
    }
}

/// BTO job 1, built through one function on both the driver and the
/// worker-side factory so the two can never diverge.
fn bto_count_job(
    dfs: &Dfs,
    input: &str,
    output: &str,
    mapper: TokenCountMapper,
) -> Result<Job<TokenCountMapper, SumReducer>> {
    Ok(Job::new("stage1-bto-count", mapper, SumReducer)
        .inputs(text_input(dfs, input)?)
        .output_seq(output))
}

/// BTO job 2, shared the same way. The payload is just the two paths.
fn bto_sort_job(
    dfs: &Dfs,
    counts: &str,
    tokens: &str,
) -> Result<Job<SwapForSortMapper, EmitTokenReducer>> {
    Ok(
        Job::new("stage1-bto-sort", SwapForSortMapper, EmitTokenReducer)
            .inputs(seq_input::<String, u64>(dfs, counts)?)
            .reducers(1)
            .output_text(tokens, Arc::new(|k: &String, _v: &()| k.clone())),
    )
}

/// Register the worker-side factories for the stage-1 jobs that can run
/// process-isolated (the two BTO jobs; OPTO and the range-partitioned sort
/// carry driver-computed closures and take the in-process fallback).
///
/// Any binary that should execute these jobs remotely must call this
/// before [`mapreduce::process_worker_main`]. Idempotent.
pub fn register_process_jobs() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        mapreduce::register_job_factory(BTO_COUNT_FACTORY, |payload, dfs| {
            let p = CountPayload::from_bytes(payload)?;
            bto_count_job(dfs, &p.input, &p.output, p.mapper()?)
        });
        mapreduce::register_job_factory(BTO_SORT_FACTORY, |payload, dfs| {
            let (counts, tokens) = <(String, String)>::from_bytes(payload)?;
            bto_sort_job(dfs, &counts, &tokens)
        });
    });
}

/// Run stage 1 over the records at `input`, writing the ordered token list
/// (one token per line, ascending frequency) to `{work}/tokens`.
///
/// Returns the token-list path and per-job metrics.
pub fn run(
    cluster: &Cluster,
    input: &str,
    config: &JoinConfig,
    work: &str,
) -> Result<(String, PipelineMetrics)> {
    run_with(cluster, input, config, work, &mut Recovery::disabled())
}

/// [`run`] with resume support: jobs whose commit manifest validates against
/// the current inputs and config are skipped (see [`crate::recovery`]).
pub fn run_with(
    cluster: &Cluster,
    input: &str,
    config: &JoinConfig,
    work: &str,
    rec: &mut Recovery,
) -> Result<(String, PipelineMetrics)> {
    let tokens_path = format!("{}/tokens", work.trim_end_matches('/'));
    let mut metrics = PipelineMetrics::default();
    let tag = recovery::stage1_tag(config);
    let mapper =
        TokenCountMapper::with_policy(config.format.clone(), config.tokenizer, config.bad_records);

    match config.stage1 {
        Stage1Algo::Bto => {
            let counts_path = format!("{}/token-counts", work.trim_end_matches('/'));
            let fp1 = recovery::job_fingerprint(cluster.dfs(), "stage1-bto-count", &[input], &tag);
            if rec.should_skip(cluster, "stage1-bto-count", &counts_path, fp1) {
                metrics.push(Recovery::skipped_job_metrics("stage1-bto-count"));
            } else {
                let payload = CountPayload::new(input, &counts_path, config).to_bytes();
                let job1 = bto_count_job(cluster.dfs(), input, &counts_path, mapper)?
                    .fingerprint(fp1)
                    .remote(BTO_COUNT_FACTORY, payload);
                metrics.push(cluster.run(job1)?);
            }

            let fp2 =
                recovery::job_fingerprint(cluster.dfs(), "stage1-bto-sort", &[&counts_path], &tag);
            if rec.should_skip(cluster, "stage1-bto-sort", &tokens_path, fp2) {
                metrics.push(Recovery::skipped_job_metrics("stage1-bto-sort"));
            } else {
                let payload = (counts_path.clone(), tokens_path.clone()).to_bytes();
                let job2 = bto_sort_job(cluster.dfs(), &counts_path, &tokens_path)?
                    .fingerprint(fp2)
                    .remote(BTO_SORT_FACTORY, payload);
                metrics.push(cluster.run(job2)?);
            }
        }
        Stage1Algo::Opto => {
            let fp = recovery::job_fingerprint(cluster.dfs(), "stage1-opto", &[input], &tag);
            if rec.should_skip(cluster, "stage1-opto", &tokens_path, fp) {
                metrics.push(Recovery::skipped_job_metrics("stage1-opto"));
            } else {
                let job = Job::new("stage1-opto", mapper, OptoReducer::default())
                    .inputs(text_input(cluster.dfs(), input)?)
                    .reducers(1)
                    .output_text(&tokens_path, Arc::new(|k: &String, _v: &()| k.clone()))
                    .fingerprint(fp);
                metrics.push(cluster.run(job)?);
            }
        }
        Stage1Algo::BtoRange => {
            let counts_path = format!("{}/token-counts", work.trim_end_matches('/'));
            let fp1 = recovery::job_fingerprint(cluster.dfs(), "stage1-btor-count", &[input], &tag);
            if rec.should_skip(cluster, "stage1-btor-count", &counts_path, fp1) {
                metrics.push(Recovery::skipped_job_metrics("stage1-btor-count"));
            } else {
                let job1 = Job::new("stage1-btor-count", mapper, SumReducer)
                    .inputs(text_input(cluster.dfs(), input)?)
                    .output_seq(&counts_path)
                    .fingerprint(fp1);
                metrics.push(cluster.run(job1)?);
            }

            let fp2 =
                recovery::job_fingerprint(cluster.dfs(), "stage1-btor-sort", &[&counts_path], &tag);
            if rec.should_skip(cluster, "stage1-btor-sort", &tokens_path, fp2) {
                metrics.push(Recovery::skipped_job_metrics("stage1-btor-sort"));
            } else {
                // Driver-side sampling, the equivalent of building Hadoop's
                // TotalOrderPartitioner partition file: read the (small) count
                // output, sort, and take quantile boundaries.
                let mut sample: Vec<(u64, String)> = cluster
                    .dfs()
                    .read_seq::<String, u64>(&counts_path)?
                    .into_iter()
                    .map(|(t, c)| (c, t))
                    .collect();
                sample.sort();
                let reducers = cluster.config().default_reducers();
                let boundaries = sample_boundaries(&sample, reducers);

                let job2 = Job::new("stage1-btor-sort", SwapForSortMapper, EmitTokenReducer)
                    .inputs(seq_input::<String, u64>(cluster.dfs(), &counts_path)?)
                    .partitioner(range_partitioner(boundaries))
                    .reducers(reducers)
                    .output_text(&tokens_path, Arc::new(|k: &String, _v: &()| k.clone()))
                    .fingerprint(fp2);
                metrics.push(cluster.run(job2)?);
            }
        }
    }
    Ok((tokens_path, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce::ClusterConfig;

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::with_nodes(3), 512).unwrap()
    }

    fn write_records(cluster: &Cluster) {
        // Frequencies over title+authors: rare=1, mid=2, common=3.
        let lines = [
            "1\tcommon mid\trare\tmisc",
            "2\tcommon\tmid\tmisc",
            "3\tcommon\t\tmisc",
        ];
        cluster.dfs().write_text("/in", lines).unwrap();
    }

    fn config(algo: Stage1Algo) -> JoinConfig {
        JoinConfig {
            stage1: algo,
            ..JoinConfig::recommended()
        }
    }

    #[test]
    fn bto_orders_tokens_by_ascending_frequency() {
        let c = cluster();
        write_records(&c);
        let (path, m) = run(&c, "/in", &config(Stage1Algo::Bto), "/work").unwrap();
        assert_eq!(m.jobs.len(), 2);
        let tokens = c.dfs().read_text(&path).unwrap();
        assert_eq!(tokens, vec!["rare", "mid", "common"]);
    }

    #[test]
    fn opto_matches_bto_output() {
        let c1 = cluster();
        write_records(&c1);
        let (p1, m1) = run(&c1, "/in", &config(Stage1Algo::Bto), "/work").unwrap();
        let bto = c1.dfs().read_text(&p1).unwrap();

        let c2 = cluster();
        write_records(&c2);
        let (p2, m2) = run(&c2, "/in", &config(Stage1Algo::Opto), "/work").unwrap();
        let opto = c2.dfs().read_text(&p2).unwrap();

        assert_eq!(bto, opto);
        assert_eq!(m2.jobs.len(), 1, "OPTO is one job");
        assert_eq!(m1.jobs.len(), 2, "BTO is two jobs");
    }

    #[test]
    fn opto_respects_memory_budget() {
        let mut cc = ClusterConfig::with_nodes(2);
        cc.task_memory = Some(50); // absurdly small: token list cannot fit
        let c = Cluster::new(cc, 512).unwrap();
        write_records(&c);
        let err = run(&c, "/in", &config(Stage1Algo::Opto), "/work").unwrap_err();
        assert!(err.is_out_of_memory());
    }

    #[test]
    fn bto_range_matches_bto_with_many_reducers() {
        let c1 = cluster();
        write_records(&c1);
        let (p1, _) = run(&c1, "/in", &config(Stage1Algo::Bto), "/work").unwrap();
        let bto = c1.dfs().read_text(&p1).unwrap();

        let c2 = cluster();
        write_records(&c2);
        let (p2, m2) = run(&c2, "/in", &config(Stage1Algo::BtoRange), "/work").unwrap();
        let btor = c2.dfs().read_text(&p2).unwrap();
        assert_eq!(
            btor, bto,
            "range-partitioned sort must preserve the total order"
        );
        assert!(
            m2.jobs[1].reduce.tasks > 1,
            "sort phase must use multiple reducers"
        );
    }

    #[test]
    fn bto_range_on_larger_dictionary() {
        let c = cluster();
        // 60 tokens with distinct frequencies spread across reducers.
        let mut lines = Vec::new();
        for i in 0..60 {
            for _ in 0..=i {
                lines.push(format!("{}\ttok{i:02}\tx\t", lines.len() + 1));
            }
        }
        c.dfs().write_text("/big", &lines).unwrap();
        let (path, _) = run(&c, "/big", &config(Stage1Algo::BtoRange), "/w").unwrap();
        let tokens = c.dfs().read_text(&path).unwrap();
        let mut expected: Vec<String> = (0..60).map(|i| format!("tok{i:02}")).collect();
        expected.push("x".to_string()); // the author field token, most frequent
        assert_eq!(tokens, expected);
        // Output spans multiple part files.
        assert!(c.dfs().data_files(&path).len() > 1);
    }

    /// 1,830 records over 61 distinct tokens: `tokNN` occurs NN + 1 times,
    /// `x` in every record. Round `r` holds `tok{r}`..`tok59`, so
    /// neighbouring records, and hence every map task, see many tokens.
    fn write_dictionary(cluster: &Cluster) -> u64 {
        let mut lines = Vec::new();
        for round in 0..60 {
            for i in round..60 {
                lines.push(format!("{}\ttok{i:02}\tx\t", lines.len() + 1));
            }
        }
        cluster.dfs().write_text("/big", &lines).unwrap();
        2 * lines.len() as u64
    }

    fn tokens_with(task_memory: Option<u64>, algo: Stage1Algo) -> (Vec<String>, PipelineMetrics) {
        let mut cc = ClusterConfig::with_nodes(3);
        cc.task_memory = task_memory;
        let c = Cluster::new(cc, 512).unwrap();
        write_dictionary(&c);
        let (path, m) = run(&c, "/big", &config(algo), "/w").unwrap();
        (c.dfs().read_text(&path).unwrap(), m)
    }

    #[test]
    fn count_mapper_flushes_under_a_small_budget() {
        let (opto, _) = tokens_with(None, Stage1Algo::Opto);
        for algo in [Stage1Algo::Bto, Stage1Algo::BtoRange] {
            let (free, m_free) = tokens_with(None, algo);
            assert_eq!(free, opto, "{algo:?}");
            let free_records = m_free.jobs[0].map_output_records;

            // 120 bytes hold three counts, so every task flushes repeatedly.
            let (tight, m) = tokens_with(Some(120), algo);
            assert_eq!(tight, free, "{algo:?} with a 120-byte budget");
            let count = &m.jobs[0];
            assert!(
                count.map_output_records > free_records + 2 * count.map.tasks as u64,
                "{algo:?}: {} records vs {free_records} unconstrained",
                count.map_output_records
            );

            // 10 bytes hold no count: every occurrence passes straight through.
            let (none, m) = tokens_with(Some(10), algo);
            assert_eq!(none, free, "{algo:?} with a 10-byte budget");
            assert_eq!(m.jobs[0].map_output_records, 2 * 1830);
        }
    }

    #[test]
    fn count_job_emits_once_per_distinct_token_per_task() {
        let c = cluster();
        let occurrences = write_dictionary(&c);
        let (_, m) = run(&c, "/big", &config(Stage1Algo::Bto), "/w").unwrap();
        let count = &m.jobs[0];
        assert!(count.map.tasks > 1);
        assert!(count.map_output_records <= 61 * count.map.tasks as u64);
        assert!(count.map_output_records < occurrences);

        // One split: exactly one record per distinct token.
        let one = Cluster::new(ClusterConfig::with_nodes(3), 1 << 20).unwrap();
        write_dictionary(&one);
        let (_, m) = run(&one, "/big", &config(Stage1Algo::Bto), "/w").unwrap();
        assert_eq!(m.jobs[0].map.tasks, 1);
        assert_eq!(m.jobs[0].map_output_records, 61);
        assert_eq!(
            m.jobs[0].combine_input_records, 0,
            "stage 1 has no combiner"
        );
    }

    #[test]
    fn counters_track_records() {
        let c = cluster();
        write_records(&c);
        let (_, m) = run(&c, "/in", &config(Stage1Algo::Bto), "/work").unwrap();
        assert_eq!(m.jobs[0].counter("stage1.records"), 3);
    }
}
