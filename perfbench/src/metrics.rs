//! Metrics of a measured workload: the end-to-end figures over the untraced
//! runs, the per-layer figures of the traced run, and its spans.

use fuzzyjoin::JoinOutcome;
use fuzzyjoin_bench::perflab::aggregate_profile;
use fuzzyjoin_bench::stats;
use mapreduce::{obj, Json, PipelineMetrics, HIST_REDUCE_GROUP_RECORDS};

use crate::inputs::Reference;
use crate::run::{Detail, PipelineRun, RunRecord};

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push(Metric { name, unit, value });
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|m| {
                    let value = obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.into())),
                    ]);
                    (m.name.to_string(), value)
                })
                .collect(),
        )
    }
}

const MB: f64 = 1e6;

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`; `None` below eleven samples.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 11 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let k = n - 11;
    Some((100.0 * (k + 1) as f64 / n as f64, sorted[k]))
}

/// The end-to-end metrics over the untraced runs.
/// `peak_rss_bytes` holds each run's peak resident memory.
pub fn end_to_end(runs: &[RunRecord], records: usize, peak_rss_bytes: &[f64]) -> Metrics {
    let over_runs = |f: fn(&RunRecord) -> f64| {
        let values: Vec<f64> = runs.iter().map(f).collect();
        stats::median(&values)
    };
    let wall = over_runs(|r| r.wall_s);
    let mut m = Metrics::default();
    m.push("wall_s", "s", wall);
    m.push("records_per_s", "records/s", records as f64 / wall);
    m.push("setup_s", "s", over_runs(|r| r.setup_s));
    m.push("peak_rss_mb", "MB", stats::median(peak_rss_bytes) / MB);
    m.push("shuffle_mb", "MB", over_runs(shuffle_mb));
    m
}

/// Bytes shuffled over all jobs of a run, in MB; 0 without the engine.
fn shuffle_mb(run: &RunRecord) -> f64 {
    match &run.detail {
        Detail::Pipeline(p) => p.outcome.shuffle_bytes() as f64 / MB,
        Detail::OneThread { .. } => 0.0,
    }
}

fn counter(stage: &PipelineMetrics, name: &str) -> u64 {
    stage.jobs.iter().map(|j| j.counter(name)).sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `(busy map exec, busy reduce exec, busy spill)` seconds of one stage.
fn stage_busy(stage: &PipelineMetrics) -> (f64, f64, f64) {
    let one_stage = JoinOutcome {
        stage1: stage.clone(),
        ..Default::default()
    };
    let (p, _) = aggregate_profile(&one_stage);
    let s = |us: u64| us as f64 / 1e6;
    (
        s(p.busy_map_exec_us),
        s(p.busy_reduce_exec_us),
        s(p.busy_spill_us),
    )
}

/// A stage's call time not covered by its jobs' wall time.
pub fn stage_driver_s(p: &PipelineRun, stage: usize) -> f64 {
    let metrics = [&p.outcome.stage1, &p.outcome.stage2, &p.outcome.stage3][stage];
    p.stage_wall_s[stage] - metrics.wall_secs()
}

/// Every per-layer metric of the traced run. Layers a workload does not
/// run read 0: the engine, DFS and stage metrics of `ppjoin-1t`. The
/// `ppjoin.*` metrics of a pipeline workload are its one-thread reference
/// computation on the same input.
pub fn per_layer(
    traced: &RunRecord,
    untraced_wall_s: f64,
    input_mb: f64,
    reference: &Reference,
) -> Metrics {
    let mut m = Metrics::default();
    let empty = PipelineRun {
        load_s: 0.0,
        stage_wall_s: [0.0; 3],
        outcome: JoinOutcome::default(),
        distinct_pairs: 0,
    };
    let (p, input_mb, tokenize_order_s, join_s) = match &traced.detail {
        Detail::Pipeline(p) => (
            p.as_ref(),
            input_mb,
            reference.tokenize_order_s,
            reference.join_s,
        ),
        Detail::OneThread {
            tokenize_order_s,
            join_s,
        } => (&empty, 0.0, *tokenize_order_s, *join_s),
    };
    let o = &p.outcome;

    m.push("dfs.load_s", "s", p.load_s);
    m.push("dfs.input_mb", "MB", input_mb);

    let (map1, _, spill1) = stage_busy(&o.stage1);
    let combine_in: u64 = o.stage1.jobs.iter().map(|j| j.combine_input_records).sum();
    let combine_out: u64 = o.stage1.jobs.iter().map(|j| j.combine_output_records).sum();
    m.push("stage1.wall_s", "s", p.stage_wall_s[0]);
    m.push("stage1.driver_s", "s", stage_driver_s(p, 0));
    m.push("stage1.map_exec_s", "s", map1);
    m.push("stage1.spill_s", "s", spill1);
    m.push(
        "stage1.combine_ratio",
        "ratio",
        ratio(combine_out as f64, combine_in as f64),
    );
    m.push(
        "stage1.shuffle_mb",
        "MB",
        o.stage1.shuffle_bytes() as f64 / MB,
    );

    let (map2, reduce2, _) = stage_busy(&o.stage2);
    let verified = counter(&o.stage2, "stage2.pairs_emitted");
    let max_group = o
        .stage2
        .jobs
        .iter()
        .filter_map(|j| j.histogram(HIST_REDUCE_GROUP_RECORDS))
        .map(|h| h.max)
        .fold(0.0, f64::max);
    m.push("stage2.wall_s", "s", p.stage_wall_s[1]);
    m.push("stage2.driver_s", "s", stage_driver_s(p, 1));
    m.push("stage2.map_exec_s", "s", map2);
    m.push("stage2.reduce_exec_s", "s", reduce2);
    m.push(
        "stage2.shuffle_mb",
        "MB",
        o.stage2.shuffle_bytes() as f64 / MB,
    );
    m.push(
        "stage2.replication",
        "ratio",
        ratio(
            counter(&o.stage2, "stage2.routed_pairs") as f64,
            counter(&o.stage2, "stage2.projections") as f64,
        ),
    );
    m.push("stage2.max_group_records", "count", max_group);
    m.push(
        "stage2.candidates",
        "count",
        counter(&o.stage2, "stage2.candidates") as f64,
    );
    m.push("stage2.verified", "count", verified as f64);
    m.push(
        "stage2.dup_ratio",
        "ratio",
        ratio(verified as f64, p.distinct_pairs as f64),
    );
    m.push(
        "stage2.index_peak_mb",
        "MB",
        counter(&o.stage2, "stage2.index_peak_bytes") as f64 / MB,
    );

    let (map3, reduce3, _) = stage_busy(&o.stage3);
    m.push("stage3.wall_s", "s", p.stage_wall_s[2]);
    m.push("stage3.driver_s", "s", stage_driver_s(p, 2));
    m.push("stage3.map_exec_s", "s", map3);
    m.push("stage3.reduce_exec_s", "s", reduce3);
    m.push(
        "stage3.shuffle_mb",
        "MB",
        o.stage3.shuffle_bytes() as f64 / MB,
    );
    m.push(
        "stage3.joined_pairs",
        "count",
        counter(&o.stage3, "stage3.joined_pairs") as f64,
    );

    m.push(
        "driver_s",
        "s",
        (0..3).map(|i| stage_driver_s(p, i)).sum::<f64>(),
    );

    let (total, jobs_wall) = aggregate_profile(o);
    let s = |us: u64| us as f64 / 1e6;
    let jobs = || o.all_jobs();
    m.push("engine.setup_s", "s", s(total.wall_setup_us));
    m.push("engine.map_s", "s", s(total.wall_map_us));
    m.push("engine.reduce_s", "s", s(total.wall_reduce_us));
    m.push("engine.commit_s", "s", s(total.wall_commit_us));
    m.push("engine.finalize_s", "s", s(total.wall_finalize_us));
    m.push("engine.spill_s", "s", s(total.busy_spill_us));
    m.push("engine.merge_s", "s", s(total.busy_merge_us));
    m.push(
        "engine.spills",
        "count",
        jobs().map(|j| j.spills).sum::<u64>() as f64,
    );
    m.push(
        "engine.merge_passes",
        "count",
        jobs().map(|j| j.merge_passes).sum::<u64>() as f64,
    );
    m.push(
        "engine.shuffle_records",
        "count",
        jobs().map(|j| j.shuffle_records).sum::<u64>() as f64,
    );
    m.push("engine.task_retries", "count", o.task_retries() as f64);
    m.push(
        "engine.reduce_task_skew",
        "ratio",
        jobs()
            .filter(|j| j.reduce.tasks > 0)
            .map(|j| j.reduce.skew())
            .fold(0.0, f64::max),
    );
    let coverage = if jobs_wall > 0.0 {
        total.coverage(jobs_wall)
    } else {
        0.0
    };
    m.push("engine.coverage", "ratio", coverage);

    m.push("ppjoin.tokenize_order_s", "s", tokenize_order_s);
    m.push("ppjoin.join_s", "s", join_s);
    m.push("trace.overhead_s", "s", traced.wall_s - untraced_wall_s);
    m
}

/// The traced run's spans as JSON lines, each stage span carrying its
/// jobs' metrics and phase profiles as attributed counts.
pub fn spans_jsonl(traced: &RunRecord, run_id: &str) -> String {
    let id_of = |name: &str| traced.spans.iter().position(|s| s.name == name);
    let stages = match &traced.detail {
        Detail::Pipeline(p) => Some(p),
        Detail::OneThread { .. } => None,
    };
    let mut out = String::new();
    for (id, span) in traced.spans.iter().enumerate() {
        let mut fields = vec![
            ("run_id", Json::Str(run_id.into())),
            ("id", Json::Num(id as f64)),
            (
                "parent",
                span.parent
                    .and_then(id_of)
                    .map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("name", Json::Str(span.name.into())),
            ("start_s", Json::Num(span.start_s)),
            ("end_s", Json::Num(span.end_s)),
        ];
        let stage = ["stage1", "stage2", "stage3"]
            .iter()
            .position(|s| *s == span.name);
        if let (Some(p), Some(i)) = (stages, stage) {
            let metrics = [&p.outcome.stage1, &p.outcome.stage2, &p.outcome.stage3][i];
            fields.push(("self_s", Json::Num(stage_driver_s(p, i))));
            fields.push((
                "jobs",
                Json::Arr(metrics.jobs.iter().map(job_json).collect()),
            ));
        }
        out.push_str(&obj(fields).to_string());
        out.push('\n');
    }
    out
}

fn job_json(job: &mapreduce::JobMetrics) -> Json {
    let profile = mapreduce::JobProfile::from_metrics(job);
    obj(vec![
        ("name", Json::Str(job.name.clone())),
        ("wall_s", Json::Num(job.wall_secs)),
        ("shuffle_bytes", Json::Num(job.shuffle_bytes as f64)),
        ("shuffle_records", Json::Num(job.shuffle_records as f64)),
        ("map_tasks", Json::Num(job.map.tasks as f64)),
        ("reduce_tasks", Json::Num(job.reduce.tasks as f64)),
        (
            "counters",
            Json::Obj(
                job.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                    .collect(),
            ),
        ),
        ("profile", profile.to_json(job.wall_secs)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_value_with_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 10]), None);
        let samples: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        // Ten samples (11..=20) lie beyond the 10th smallest.
        assert_eq!(tail(&samples), Some((50.0, 10.0)));
        assert_eq!(tail(&samples[..11]), Some((100.0 / 11.0, 10.0)));
    }
}
