//! One run of a workload: set-up, the timed join, and verification of its
//! output against the reference. Every layer is timed from outside, around
//! the benchmark's calls into the public API.

use std::time::Instant;

use fuzzyjoin::{
    read_joined, read_rid_pairs, stage1, stage2, stage3, Cluster, ClusterConfig, JoinConfig,
    JoinOutcome,
};
use setsim::oracle;

use crate::inputs::{self, Inputs, Row};

/// Simulated nodes of every pipeline workload.
pub const NODES: usize = 4;
/// DFS block size, as the command-line tool uses.
const BLOCK_BYTES: usize = 4 << 20;
const R_PATH: &str = "/input/r";
const S_PATH: &str = "/input/s";
const WORK: &str = "/work";

/// A named interval of one run, in seconds from the run's start.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_s: f64,
    pub end_s: f64,
}

/// What the timed part of a pipeline run produced.
pub struct PipelineRun {
    /// Time spent writing the inputs into the DFS.
    pub load_s: f64,
    /// Time of each `stageN::run*` call.
    pub stage_wall_s: [f64; 3],
    /// The stages' job metrics.
    pub outcome: JoinOutcome,
    /// Distinct RID pairs in the stage-2 output.
    pub distinct_pairs: usize,
}

/// The layer detail of one run.
pub enum Detail {
    Pipeline(Box<PipelineRun>),
    OneThread { tokenize_order_s: f64, join_s: f64 },
}

/// One verified run.
pub struct RunRecord {
    /// Cluster creation plus input load (pipeline), or parsing the input
    /// text into records (one-thread reference).
    pub setup_s: f64,
    /// From the first stage call to the last return (pipeline), or
    /// tokenize + order + join (one-thread reference).
    pub wall_s: f64,
    pub spans: Vec<Span>,
    pub detail: Detail,
}

/// The cluster every pipeline run gets: the default in-process backend.
pub fn cluster_config(threads: usize, profile: bool) -> ClusterConfig {
    ClusterConfig {
        execution_threads: Some(threads),
        profile,
        ..ClusterConfig::with_nodes(NODES)
    }
}

fn err(e: fuzzyjoin::MrError) -> String {
    e.to_string()
}

/// Run the three stages on a fresh cluster and verify the output.
pub fn pipeline(
    inputs: &Inputs,
    expected: &[Row],
    config: &JoinConfig,
    cluster: ClusterConfig,
) -> Result<RunRecord, String> {
    let origin = Instant::now();
    let at = |t: Instant| t.duration_since(origin).as_secs_f64();
    let cluster = Cluster::new(cluster, BLOCK_BYTES).map_err(err)?;
    let cluster_ready = Instant::now();
    cluster
        .dfs()
        .write_text(R_PATH, &inputs.r_lines)
        .map_err(err)?;
    let s_path = match &inputs.s_lines {
        Some(lines) => {
            cluster.dfs().write_text(S_PATH, lines).map_err(err)?;
            Some(S_PATH)
        }
        None => None,
    };
    let loaded = Instant::now();

    let (tokens_path, m1) = stage1::run(&cluster, R_PATH, config, WORK).map_err(err)?;
    let stage1_done = Instant::now();
    let (ridpairs_path, m2) = match s_path {
        None => stage2::run_self(&cluster, R_PATH, &tokens_path, config, WORK),
        Some(s) => stage2::run_rs(&cluster, R_PATH, s, &tokens_path, config, WORK),
    }
    .map_err(err)?;
    let stage2_done = Instant::now();
    let (joined_path, m3) = match s_path {
        None => stage3::run_self(&cluster, R_PATH, &ridpairs_path, config, WORK),
        Some(s) => stage3::run_rs(&cluster, R_PATH, s, &ridpairs_path, config, WORK),
    }
    .map_err(err)?;
    let stage3_done = Instant::now();

    let outcome = JoinOutcome {
        tokens_path,
        ridpairs_path,
        joined_path,
        stage1: m1,
        stage2: m2,
        stage3: m3,
        recovery: Default::default(),
    };
    let distinct_pairs = verify_pipeline(&cluster, &outcome, expected)?;
    let verified = Instant::now();

    let span = |name, parent, start, end| Span {
        name,
        parent,
        start_s: at(start),
        end_s: at(end),
    };
    Ok(RunRecord {
        setup_s: at(loaded),
        wall_s: stage3_done.duration_since(loaded).as_secs_f64(),
        spans: vec![
            span("run", None, origin, verified),
            span("setup", Some("run"), origin, loaded),
            span("cluster_new", Some("setup"), origin, cluster_ready),
            span("dfs.load", Some("setup"), cluster_ready, loaded),
            span("stage1", Some("run"), loaded, stage1_done),
            span("stage2", Some("run"), stage1_done, stage2_done),
            span("stage3", Some("run"), stage2_done, stage3_done),
            span("verify", Some("run"), stage3_done, verified),
        ],
        detail: Detail::Pipeline(Box::new(PipelineRun {
            load_s: loaded.duration_since(cluster_ready).as_secs_f64(),
            stage_wall_s: [
                stage1_done.duration_since(loaded).as_secs_f64(),
                stage2_done.duration_since(stage1_done).as_secs_f64(),
                stage3_done.duration_since(stage2_done).as_secs_f64(),
            ],
            outcome,
            distinct_pairs,
        })),
    })
}

/// Compare a result set with the reference, naming the first difference.
fn same_rows(what: &str, expected: &[Row], actual: &[Row]) -> Result<(), String> {
    let d = oracle::diff(expected, actual);
    if d.is_empty() {
        return Ok(());
    }
    let first = d
        .missing
        .first()
        .map(|r| format!("missing {r:?}"))
        .or_else(|| d.spurious.first().map(|r| format!("spurious {r:?}")))
        .or_else(|| d.sim_mismatches.first().map(|r| format!("sim {r:?}")))
        .unwrap_or_default();
    Err(format!(
        "{what} differ from the reference: {} missing, {} spurious, {} sim mismatches; first {first}",
        d.missing.len(),
        d.spurious.len(),
        d.sim_mismatches.len()
    ))
}

/// Check the stage-2 RID pairs against the reference and that stage 3
/// joined exactly one record pair per RID pair. Returns the distinct RID
/// pair count.
fn verify_pipeline(
    cluster: &Cluster,
    outcome: &JoinOutcome,
    expected: &[Row],
) -> Result<usize, String> {
    let pairs = read_rid_pairs(cluster, &outcome.ridpairs_path).map_err(err)?;
    same_rows("RID pairs", expected, &pairs)?;
    let joined = read_joined(cluster, &outcome.joined_path).map_err(err)?;
    if joined.len() != pairs.len() {
        return Err(format!(
            "stage 3 joined {} record pairs for {} RID pairs",
            joined.len(),
            pairs.len()
        ));
    }
    for (((a, b), (first, second, sim)), &(ea, eb, esim)) in joined.iter().zip(&pairs) {
        let holds = |line: &str, rid: u64| line.split('\t').next() == Some(&rid.to_string()[..]);
        if (*a, *b) != (ea, eb) || sim.to_bits() != esim.to_bits() {
            return Err(format!(
                "joined pair ({a}, {b}, {sim}) where ({ea}, {eb}, {esim}) was due"
            ));
        }
        if !holds(first, ea) || !holds(second, eb) {
            return Err(format!("joined pair ({a}, {b}) carries the wrong records"));
        }
    }
    Ok(pairs.len())
}

/// The one-thread reference workload: parse, then tokenize, order and join.
pub fn one_thread(
    inputs: &Inputs,
    expected: &[Row],
    config: &JoinConfig,
) -> Result<RunRecord, String> {
    let origin = Instant::now();
    let at = |t: Instant| t.duration_since(origin).as_secs_f64();
    let corpus = inputs::parse_corpus(&inputs.r_lines);
    let parsed = Instant::now();
    let result = inputs::one_thread_self_join(&corpus, config);
    let joined = Instant::now();
    same_rows("pairs", expected, &result.rows)?;
    let verified = Instant::now();
    let ordered = at(parsed) + result.tokenize_order_s;
    let span = |name, parent, start_s, end_s| Span {
        name,
        parent,
        start_s,
        end_s,
    };
    Ok(RunRecord {
        setup_s: at(parsed),
        wall_s: joined.duration_since(parsed).as_secs_f64(),
        spans: vec![
            span("run", None, 0.0, at(verified)),
            span("setup", Some("run"), 0.0, at(parsed)),
            span("ppjoin.tokenize_order", Some("run"), at(parsed), ordered),
            span("ppjoin.join", Some("run"), ordered, at(joined)),
            span("verify", Some("run"), at(joined), at(verified)),
        ],
        detail: Detail::OneThread {
            tokenize_order_s: result.tokenize_order_s,
            join_s: result.join_s,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{Size, Workload};

    #[test]
    fn a_wrong_reference_fails_the_run() {
        let size = Size::parse("toy").unwrap();
        let config = JoinConfig::recommended();
        for workload in Workload::ALL {
            let inputs = Inputs::generate(workload, size, 23);
            let mut wrong = inputs::reference(&inputs, &config).rows;
            wrong.push((u64::MAX, u64::MAX, 1.0));
            let run = if workload.is_pipeline() {
                pipeline(&inputs, &wrong, &config, cluster_config(2, false))
            } else {
                one_thread(&inputs, &wrong, &config)
            };
            assert!(run.is_err(), "{workload:?}");
        }
    }
}
