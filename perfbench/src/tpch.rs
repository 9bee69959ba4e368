//! The TPC-H workloads: one closed-loop caller runs the 22 queries in a
//! seeded shuffled order per pass, planning every query from its text (no
//! plan cache), at dop 2, BF-CBO, `determinism=strict`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bfq::catalog::Catalog;
use bfq::common::{Determinism, Result};
use bfq::core::{optimize, BloomMode, OptimizedQuery, OptimizerConfig};
use bfq::exec::{execute_plan_pipelined_cfg, ExecOptions, QueryOutput};
use bfq::plan::Bindings;
use bfq::sql::{bind, parse_select};
use bfq::tpch::{gen, query_text};

use crate::check::Rows;
use crate::layers::{self, FilterPass, Totals, CLASSES, NLJOIN};
use crate::report::{peak_rss_mb, Metrics, Outcome};
use crate::stats::{self, Rng};
use crate::trace::{SpanId, Tracer};
use crate::{Args, DOP};

const QUERIES: usize = 22;
/// The tail percentile is at most p90: a statement beyond p99 is Q20 alone
/// (1 in 22), so a faster run that crossed 1000 samples would report a
/// different query, not a different tail.
const TAIL_MAX_Q: f64 = 0.90;
/// Passes go on past `--seconds` until every query has this many
/// samples (at SF 0.2 a pass takes about 3 s).
const MIN_PASSES: usize = 10;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

fn config(mode: BloomMode) -> OptimizerConfig {
    OptimizerConfig::with_mode(mode)
        .dop(DOP)
        .determinism(Determinism::Strict)
}

/// Text to gathered rows, with a span around each layer call.
fn run_statement(
    sql: &str,
    catalog: &Arc<Catalog>,
    config: &OptimizerConfig,
    tracer: &mut Tracer,
    stmt: u64,
) -> Result<(OptimizedQuery, QueryOutput, Duration)> {
    let start = Instant::now();
    let root = tracer.begin("statement", SpanId::NONE, stmt);
    let span = tracer.begin("sql.parse", root, stmt);
    let parsed = parse_select(sql)?;
    tracer.end(span);
    let span = tracer.begin("sql.bind", root, stmt);
    let mut bindings = Bindings::new();
    let bound = bind(&parsed, catalog, &mut bindings)?;
    tracer.end(span);
    let span = tracer.begin("core.optimize", root, stmt);
    let planned = optimize(&bound.plan, &mut bindings, catalog, config)?;
    tracer.end(span);
    let span = tracer.begin("exec.execute", root, stmt);
    let out = execute_plan_pipelined_cfg(
        &planned.plan,
        catalog.clone(),
        ExecOptions {
            dop: config.dop,
            index_mode: config.index_mode,
            bloom_layout: config.bloom_layout,
            determinism: config.determinism,
            profile: config.profile,
            ..Default::default()
        },
    )?;
    tracer.end(span);
    tracer.end(root);
    Ok((planned, out, start.elapsed()))
}

/// What the per-query table shows for one query.
#[derive(Default)]
struct PerQuery {
    latencies_ms: Vec<f64>,
    class_ns: [u64; 7],
    worst: Option<FilterPass>,
}

pub fn run(sf: f64, args: &Args) -> Outcome {
    let label = format!("tpch-sf{sf}");
    println!(
        "# {label}: seed {} dop {DOP} bf-cbo strict, {}s",
        args.seed, args.seconds
    );

    let mut setup_s = Vec::new();
    let mut catalog = None;
    for _ in 0..if args.quick { 1 } else { SETUPS } {
        drop(catalog.take());
        let t = Instant::now();
        let db = gen::generate(sf, args.seed).expect("generate TPC-H");
        catalog = Some(Arc::new(db.catalog));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let catalog = catalog.expect("set up at least once");
    let queries: Vec<String> = (1..=QUERIES).map(|q| query_text(q, sf)).collect();
    let mut tracer = Tracer::new();

    // Reference results, outside the timed window: no Bloom filters.
    let reference: Vec<Rows> = queries
        .iter()
        .map(|sql| {
            let (_, out, _) =
                run_statement(sql, &catalog, &config(BloomMode::None), &mut tracer, 0)
                    .expect("reference query");
            Rows::from_chunk(&out.chunk)
        })
        .collect();

    let cbo = config(BloomMode::Cbo);
    let mut rng = Rng::new(args.seed);
    let mut order: Vec<usize> = (0..QUERIES).collect();
    if !args.quick {
        for q in &order {
            run_statement(&queries[*q], &catalog, &cbo, &mut tracer, 0).expect("warm-up query");
        }
    }

    let mut per_query: Vec<PerQuery> = (0..QUERIES).map(|_| PerQuery::default()).collect();
    let mut totals = Totals::default();
    let mut all_ms = Vec::new();
    // Mean statement latency of traced and of untraced passes.
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut wrong) = (0u64, 0u64, 0u64);
    let window = Instant::now();
    let mut pass = 0;
    while pass == 0
        || (!args.quick && (window.elapsed().as_secs_f64() < args.seconds || pass < MIN_PASSES))
    {
        // In a traced run every other pass records spans, so the untraced
        // passes between them measure what tracing costs.
        let traced = args.trace && pass % 2 == 0;
        tracer.set_on(traced);
        rng.shuffle(&mut order);
        let mut pass_ms = Vec::with_capacity(QUERIES);
        for &q in &order {
            attempted += 1;
            let stmt = attempted;
            match run_statement(&queries[q], &catalog, &cbo, &mut tracer, stmt) {
                Ok((planned, out, took)) => {
                    let ms = took.as_secs_f64() * 1e3;
                    if !Rows::from_chunk(&out.chunk).matches(&reference[q]) {
                        eprintln!("# Q{} result differs from the reference", q + 1);
                        wrong += 1;
                    }
                    totals.add_plan(&planned.stats);
                    let (classes, passes) = totals.add_exec(&planned.plan, &out.stats);
                    let pq = &mut per_query[q];
                    pq.latencies_ms.push(ms);
                    for (t, c) in pq.class_ns.iter_mut().zip(classes) {
                        *t += c;
                    }
                    pq.worst = layers::worst_filter(&passes);
                    pass_ms.push(ms);
                    all_ms.push(ms);
                }
                Err(e) => {
                    eprintln!("# Q{} failed: {e}", q + 1);
                    failed += 1;
                }
            }
        }
        let mean = pass_ms.iter().sum::<f64>() / pass_ms.len().max(1) as f64;
        if traced {
            traced_ms.push(mean)
        } else {
            untraced_ms.push(mean)
        }
        pass += 1;
    }
    let window_s = window.elapsed().as_secs_f64();
    tracer.set_on(false);

    print_per_query(&per_query);
    println!(
        "# {pass} passes, {} statements in {window_s:.2}s; reference checked with bloom_mode=none",
        all_ms.len()
    );
    if wrong > 0 || failed > 0 {
        return Outcome::wrong(attempted, failed);
    }
    let mut m = Metrics::default();
    if args.trace {
        m.put("tpch.generate_s", stats::median(&setup_s), "s");
        totals.put_metrics(&mut m);
        let self_ms = tracer.self_times_ms();
        let samples = |name: &str| self_ms.get(name).cloned().unwrap_or_default();
        layers::put_timer(&mut m, "sql.parse_ms", &samples("sql.parse"));
        layers::put_timer(&mut m, "sql.bind_ms", &samples("sql.bind"));
        layers::put_timer(&mut m, "core.optimize_ms", &samples("core.optimize"));
        layers::put_timer(&mut m, "exec.execute_ms", &samples("exec.execute"));
        put_server_absent(&mut m);
        let execute: Vec<f64> = samples("exec.execute");
        let class_sum: f64 = totals.class_ns.iter().sum::<u64>() as f64 / 1e6;
        println!(
            "# operator-class self times sum to {:.3} ms/stmt; exec.execute spans average {:.3} ms",
            class_sum / totals.stmts.max(1) as f64,
            execute.iter().sum::<f64>() / execute.len().max(1) as f64
        );
        let covered: f64 = self_ms.values().flatten().sum();
        let unattributed: f64 = samples("statement").iter().sum();
        m.put(
            "obs.unattributed_frac",
            unattributed / covered.max(1e-9),
            "frac",
        );
        let overhead = if untraced_ms.is_empty() {
            0.0
        } else {
            stats::median(&traced_ms) / stats::median(&untraced_ms) - 1.0
        };
        m.put("obs.trace_overhead_frac", overhead, "frac");
        m.put("error_rate", failed as f64 / attempted as f64, "frac");
        let path = args
            .trace_dir
            .join(format!("{label}-seed{}.jsonl", args.seed));
        match tracer.write(&path) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("# could not write spans to {}: {e}", path.display()),
        }
    } else {
        let sorted = stats::sorted(&all_ms);
        let tail = stats::tail(&sorted, TAIL_MAX_Q);
        println!(
            "# latency_tail_ms is {} ({} samples beyond it, {} in all)",
            tail.label,
            tail.beyond,
            sorted.len()
        );
        let medians: Vec<f64> = per_query
            .iter()
            .map(|p| stats::median(&p.latencies_ms))
            .collect();
        m.put("setup_s", stats::median(&setup_s), "s");
        m.put("throughput_qps", all_ms.len() as f64 / window_s, "1/s");
        m.put("latency_p50_ms", stats::quantile(&sorted, 0.5), "ms");
        m.put("latency_tail_ms", tail.value, "ms");
        m.put("geomean_ms", stats::geomean(&medians), "ms");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
    }
    m.print_table();
    Outcome {
        correct: true,
        attempted,
        failed,
        metrics: m,
    }
}

/// TPC-H runs in-process: the server layer is not on its path.
fn put_server_absent(m: &mut Metrics) {
    for (name, unit) in [
        ("server.rtt_p50_ms", "ms"),
        ("server.engine_ms_p50", "ms"),
        ("server.overhead_frac", "frac"),
        ("server.gen_lag_p99_ms", "ms"),
        ("server.rejected", "count"),
        ("server.max_rate_qps", "1/s"),
    ] {
        m.put(name, 0.0, unit);
    }
}

/// Median latency, operator-class self time and the worst filter
/// estimate of every query.
fn print_per_query(per_query: &[PerQuery]) {
    print!("# {:<4} {:>4} {:>9}", "q", "n", "p50_ms");
    for class in CLASSES {
        print!(" {:>9}", format!("{class}_ms"));
    }
    println!("  worst filter pass (predicted vs observed)");
    for (i, pq) in per_query.iter().enumerate() {
        if pq.latencies_ms.is_empty() {
            continue;
        }
        let n = pq.latencies_ms.len();
        print!(
            "# Q{:<3} {n:>4} {:>9.2}",
            i + 1,
            stats::median(&pq.latencies_ms)
        );
        for ns in pq.class_ns {
            print!(" {:>9.2}", ns as f64 / 1e6 / n as f64);
        }
        match pq.worst {
            Some(f) => print!(
                "  {:.4} vs {:.4} (q-err {:.1})",
                f.predicted,
                f.observed,
                f.qerr()
            ),
            None => print!("  -"),
        }
        let nlj = pq.class_ns[NLJOIN] as f64 / 1e6 / n as f64;
        if nlj > 0.5 * stats::median(&pq.latencies_ms) {
            print!("  <- NestLoopJoin dominates");
        }
        println!();
    }
}
