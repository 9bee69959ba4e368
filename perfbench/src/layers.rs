//! Per-layer counters, read after each call from what the program already
//! exposes: `OptimizerStats`, `ExecStats` (`NodeProfile`, `ScanPruneStats`,
//! filter observations) and the plan's own estimates.

use std::sync::Arc;

use bfq::core::OptimizerStats;
use bfq::exec::{ExecStats, ScanPruneStats};
use bfq::plan::{PhysicalNode, PhysicalPlan};

use crate::report::Metrics;
use crate::DOP;

/// Operator classes that executor self time is split into.
pub const CLASSES: [&str; 7] = [
    "scan", "hashjoin", "nljoin", "agg", "sort", "exchange", "other",
];
pub const NLJOIN: usize = 2;

fn class_of(node: &PhysicalNode) -> usize {
    match node {
        PhysicalNode::Scan { .. } | PhysicalNode::DerivedScan { .. } => 0,
        PhysicalNode::HashJoin { .. } => 1,
        PhysicalNode::NestLoopJoin { .. } => NLJOIN,
        PhysicalNode::HashAgg { .. } => 3,
        PhysicalNode::Sort { .. } => 4,
        PhysicalNode::Exchange { .. } => 5,
        _ => 6,
    }
}

/// Self time per operator class, in wall-clock nanoseconds. A chain
/// operator's `NodeProfile` is self time summed over the workers that ran
/// its morsels (`min(dop, morsels)` of them in strict mode), so it is
/// divided by that count; a pipeline breaker's (no morsels) is the wall
/// time of its whole stage, so the wall time its inputs account for is
/// taken off. Classes then add up to the execution's wall time, less what
/// no node profile covers (stage set-up, gather, result assembly).
///
/// Also returns by how much inputs' times exceeded their breaker's stage
/// time, summed: 0 when chain and breaker times are on one basis.
pub fn class_self_ns(plan: &Arc<PhysicalPlan>, stats: &ExecStats) -> ([u64; 7], u64) {
    fn cover(
        node: &Arc<PhysicalPlan>,
        stats: &ExecStats,
        out: &mut [u64; 7],
        overshoot: &mut u64,
    ) -> u64 {
        let below: u64 = node
            .children()
            .into_iter()
            .map(|c| cover(c, stats, out, overshoot))
            .sum();
        match stats.profile_of(node.id) {
            None => below,
            Some(p) if p.morsels == 0 => {
                out[class_of(&node.node)] += p.wall_ns.saturating_sub(below);
                *overshoot += below.saturating_sub(p.wall_ns);
                p.wall_ns
            }
            Some(p) => {
                let wall = p.wall_ns / p.morsels.min(DOP as u64);
                out[class_of(&node.node)] += wall;
                wall + below
            }
        }
    }
    let (mut out, mut overshoot) = ([0u64; 7], 0);
    cover(plan, stats, &mut out, &mut overshoot);
    for step in plan.schedule.iter().flat_map(|s| &s.steps) {
        cover(step, stats, &mut out, &mut overshoot);
    }
    (out, overshoot)
}

/// Pass fractions below this are floored before taking a q-error.
const PASS_FLOOR: f64 = 1e-4;

/// One runtime filter's predicted pass fraction next to the observed one.
#[derive(Clone, Copy)]
pub struct FilterPass {
    pub predicted: f64,
    pub observed: f64,
}

impl FilterPass {
    pub fn qerr(&self) -> f64 {
        let (p, o) = (
            self.predicted.max(PASS_FLOOR),
            self.observed.max(PASS_FLOOR),
        );
        (p / o).max(o / p)
    }
}

/// Every runtime filter of `plan` that saw rows.
pub fn filter_passes(plan: &Arc<PhysicalPlan>, stats: &ExecStats) -> Vec<FilterPass> {
    let mut out = Vec::new();
    plan.visit(&mut |node| {
        let predicted: Vec<(u32, f64)> = match &node.node {
            PhysicalNode::Scan { blooms, .. } | PhysicalNode::DerivedScan { blooms, .. } => blooms
                .iter()
                .map(|b| (b.filter.0, b.predicted_pass))
                .collect(),
            PhysicalNode::SemijoinReduce {
                filter,
                predicted_pass,
                ..
            } => vec![(filter.0, *predicted_pass)],
            _ => return,
        };
        for (id, predicted) in predicted {
            if let Some(observed) = stats.filter_observation(id).and_then(|o| o.pass_rate()) {
                out.push(FilterPass {
                    predicted,
                    observed,
                });
            }
        }
    });
    out
}

/// The filter whose prediction was furthest from what it observed.
pub fn worst_filter(passes: &[FilterPass]) -> Option<FilterPass> {
    passes
        .iter()
        .copied()
        .max_by(|a, b| a.qerr().total_cmp(&b.qerr()))
}

/// Counters summed over the statements of a measured window.
#[derive(Default)]
pub struct Totals {
    pub stmts: u64,
    pub candidates: u64,
    pub phase1_pairs: u64,
    pub phase2_pairs: u64,
    pub generated: u64,
    pub kept: u64,
    pub filters_cbo: u64,
    pub filters_post: u64,
    pub programs: u64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub prune: ScanPruneStats,
    /// Chunks skipped, all tiers (the scrape has no per-tier split).
    pub skipped: u64,
    pub qerr_sum: f64,
    pub qerr_nodes: u64,
    pub qerr_max: f64,
    pub pass_qerr_max: f64,
    pub bloom_builds: u64,
    pub bloom_build_ns: u64,
    pub bloom_rows_in: u64,
    pub bloom_rows_out: u64,
    pub class_ns: [u64; 7],
    pub class_overshoot_ns: u64,
    pub probe_candidates: u64,
    pub probe_verified: u64,
    pub window_stalls: u64,
    pub peak_buffered_rows: u64,
}

impl Totals {
    pub fn add_plan(&mut self, s: &OptimizerStats) {
        self.candidates += s.candidates as u64;
        self.phase1_pairs += s.phase1.pairs_visited as u64;
        self.phase2_pairs += s.phase2.pairs as u64;
        self.generated += s.phase2.generated as u64;
        self.kept += s.phase2.kept as u64;
        self.filters_cbo += s.cbo_filters as u64;
        self.filters_post += s.post_filters as u64;
        self.programs += s.programs as u64;
    }

    /// Fold in one execution; returns its class self times and filters.
    pub fn add_exec(
        &mut self,
        plan: &Arc<PhysicalPlan>,
        stats: &ExecStats,
    ) -> ([u64; 7], Vec<FilterPass>) {
        self.stmts += 1;
        let prune = stats.prune_totals();
        self.prune.merge(&prune);
        self.skipped += prune.skipped();
        plan.visit(&mut |node| {
            if let Some(actual) = stats.actual(node.id) {
                let (e, a) = (node.est_rows.max(1.0), (actual as f64).max(1.0));
                let q = (e / a).max(a / e);
                self.qerr_sum += q;
                self.qerr_nodes += 1;
                self.qerr_max = self.qerr_max.max(q);
            }
        });
        let passes = filter_passes(plan, stats);
        for f in &passes {
            self.pass_qerr_max = self.pass_qerr_max.max(f.qerr());
        }
        for o in stats.filter_observations().values() {
            self.bloom_rows_in += o.rows_in;
            self.bloom_rows_out += o.rows_out;
        }
        self.bloom_builds += stats.filter_builds();
        self.bloom_build_ns += stats.filter_build_ns();
        let (classes, overshoot) = class_self_ns(plan, stats);
        self.class_overshoot_ns += overshoot;
        for (t, c) in self.class_ns.iter_mut().zip(classes) {
            *t += c;
        }
        self.probe_candidates += stats.join_probe_candidates();
        self.probe_verified += stats.join_probe_verified();
        self.window_stalls += stats.window_stalls();
        self.peak_buffered_rows = self.peak_buffered_rows.max(stats.peak_buffered_rows());
        (classes, passes)
    }

    /// The counter-based per-layer metrics. Counts and class times are
    /// means per statement; `_frac` values are ratios over the window.
    pub fn put_metrics(&self, m: &mut Metrics) {
        let per = |v: u64| v as f64 / self.stmts.max(1) as f64;
        let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let p = &self.prune;
        m.put("index.chunks", per(p.chunks), "count/stmt");
        m.put("index.skip_frac", frac(self.skipped, p.chunks), "frac");
        m.put(
            "index.skipped_zonemap",
            per(p.skipped_zonemap),
            "count/stmt",
        );
        m.put("index.skipped_bloom", per(p.skipped_bloom), "count/stmt");
        m.put(
            "index.skipped_rfilter",
            per(p.skipped_rfilter),
            "count/stmt",
        );
        m.put(
            "index.skipped_rfsummary",
            per(p.skipped_rfsummary),
            "count/stmt",
        );
        m.put("index.rows_pruned", per(p.rows_pruned), "rows/stmt");
        m.put("core.candidates", per(self.candidates), "count/stmt");
        m.put("core.phase1_pairs", per(self.phase1_pairs), "count/stmt");
        m.put("core.phase2_pairs", per(self.phase2_pairs), "count/stmt");
        m.put("core.subplans_generated", per(self.generated), "count/stmt");
        m.put("core.subplans_kept", per(self.kept), "count/stmt");
        m.put("core.kept_frac", frac(self.kept, self.generated), "frac");
        m.put("core.filters_cbo", per(self.filters_cbo), "count/stmt");
        m.put("core.filters_post", per(self.filters_post), "count/stmt");
        m.put("core.programs", per(self.programs), "count/stmt");
        m.put(
            "core.plan_cache_hit_rate",
            frac(self.cache_hits, self.cache_lookups),
            "frac",
        );
        let qerr_mean = if self.qerr_nodes == 0 {
            0.0
        } else {
            self.qerr_sum / self.qerr_nodes as f64
        };
        m.put("cost.qerror_mean", qerr_mean, "ratio");
        m.put("cost.qerror_max", self.qerr_max, "ratio");
        m.put("cost.filter_pass_qerr_max", self.pass_qerr_max, "ratio");
        m.put("bloom.builds", per(self.bloom_builds), "count/stmt");
        m.put("bloom.build_ms", per(self.bloom_build_ns) / 1e6, "ms/stmt");
        m.put("bloom.rows_in", per(self.bloom_rows_in), "rows/stmt");
        m.put(
            "bloom.pass_frac",
            frac(self.bloom_rows_out, self.bloom_rows_in),
            "frac",
        );
        for (class, ns) in CLASSES.iter().zip(self.class_ns) {
            m.put(&format!("exec.{class}_ms"), per(ns) / 1e6, "ms/stmt");
        }
        m.put(
            "exec.class_overshoot_frac",
            frac(self.class_overshoot_ns, self.class_ns.iter().sum()),
            "frac",
        );
        m.put(
            "exec.join_probe_candidates",
            per(self.probe_candidates),
            "count/stmt",
        );
        m.put(
            "exec.join_probe_verified",
            per(self.probe_verified),
            "count/stmt",
        );
        m.put(
            "exec.probe_verified_frac",
            frac(self.probe_verified, self.probe_candidates),
            "frac",
        );
        m.put("exec.window_stalls", per(self.window_stalls), "count/stmt");
        m.put(
            "exec.peak_buffered_rows",
            self.peak_buffered_rows as f64,
            "rows",
        );
    }
}

/// A per-statement timer as its median and mean, in milliseconds.
pub fn put_timer(m: &mut Metrics, name: &str, samples_ms: &[f64]) {
    let (p50, mean) = if samples_ms.is_empty() {
        (0.0, 0.0)
    } else {
        (
            crate::stats::median(samples_ms),
            samples_ms.iter().sum::<f64>() / samples_ms.len() as f64,
        )
    };
    m.put(&format!("{name}_p50"), p50, "ms");
    m.put(&format!("{name}_mean"), mean, "ms");
}
