//! `serve-mixed`: bfq-server on loopback at SF 0.02, two connections.
//! Throughput is what a saturated closed loop completes; latency is taken
//! from an open loop of independent users, each connection on its own
//! seeded paced schedule, every request timed from the moment it was due.
//!
//! The mix, the same on both connections, with weights 1 : 1 : 2: a
//! prepared point lookup, a prepared `l_orderkey < ?` aggregate, and an
//! ad-hoc point lookup whose literal comes from the whole order-key space
//! (far larger than the 128-plan cache). The prepared pair, the
//! aggregate's text and its parameter range are those of the
//! `fig_server_concurrency` bench bin (one point lookup and one aggregate
//! per round). The ad-hoc share is this benchmark's own choice: as many
//! ad-hoc statements as prepared ones.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bfq::catalog::Catalog;
use bfq::common::{Datum, Determinism};
use bfq::core::{BloomMode, OptimizerConfig};
use bfq::prelude::{Engine, EngineConfig};
use bfq::tpch::gen;
use bfq_server::{Client, Server, ServerConfig};

use crate::check::Rows;
use crate::layers::Totals;
use crate::report::{peak_rss_mb, Metrics, Outcome};
use crate::stats::{self, Rng};
use crate::{Args, DOP};

const SF: f64 = 0.02;
const CONNECTIONS: usize = 2;
const SETUPS: usize = 3;
/// Statements/s a closed loop of two connections completes with this mix
/// at SF 0.02 and dop 2 on a 2-vCPU x86-64 host. It fixes the offered
/// rates; the measured figure is `throughput_qps`.
const CAPACITY: f64 = 460.0;
/// Offered load of the latency window, statements/s over both
/// connections: a fifth of CAPACITY. Each connection is then busy with an
/// aggregate about an eighth of the time, so about two thirds of all
/// requests are lookups that found their connection idle, and the median
/// sits among them rather than in the queueing delay behind an aggregate.
const RATE: f64 = CAPACITY * 0.2;
/// Share of `--seconds` the saturated closed loop runs for, in ROUNDS
/// bursts; `throughput_qps` is their median rate.
const CLOSED_SHARE: f64 = 0.4;
const ROUNDS: usize = 8;
/// The rate ladder, in tenths of CAPACITY, and the p99 limit each rung
/// must meet (about three aggregates back to back).
const LADDER: [f64; 9] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
const LIMIT_MS: f64 = 40.0;
const KINDS: [Kind; 3] = [Kind::Point, Kind::Agg, Kind::AdHoc];
/// Distinct aggregate thresholds, evenly spaced over `1 ..= order rows`,
/// the range `fig_server_concurrency` draws its parameter from (order
/// keys are sparse, so it reads up to about a quarter of `lineitem`).
const THRESHOLDS: usize = 64;
/// The window is cut by due time into this many slices of equal count;
/// `latency_tail_ms` is the median of their tails, so a host stall inside
/// one slice moves it little.
const TAIL_SLICES: usize = 4;

const POINT_SQL: &str = "select o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate \
     from orders where o_orderkey = ?";
const AGG_SQL: &str = "select l_returnflag, count(*) as n, sum(l_quantity) as q \
     from lineitem where l_orderkey < ? group by l_returnflag order by l_returnflag";

fn adhoc_sql(key: i64) -> String {
    POINT_SQL.replace('?', &key.to_string())
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Point,
    Agg,
    AdHoc,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Point => "point",
            Kind::Agg => "agg",
            Kind::AdHoc => "adhoc",
        }
    }
}

struct Req {
    /// Seconds after the window starts.
    due_s: f64,
    kind: Kind,
    key: i64,
}

struct Done {
    kind: Kind,
    key: i64,
    due: Instant,
    sent: Instant,
    done: Instant,
    result: Result<Rows, String>,
}

impl Done {
    /// From due time to reply; a failed request counts as never served.
    fn latency_ms(&self) -> f64 {
        match self.result {
            Ok(_) => ms(self.done - self.due),
            Err(_) => f64::INFINITY,
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct Served {
    server: Server,
    clients: Vec<Client>,
    engine: Arc<Engine>,
    catalog: Arc<Catalog>,
}

/// Generate the data, build the engine, start the server, connect and
/// prepare. Returns the generation time separately.
fn set_up(seed: u64) -> (Served, f64) {
    let start = Instant::now();
    let db = gen::generate(SF, seed).expect("generate TPC-H");
    let generate_s = start.elapsed().as_secs_f64();
    let catalog = Arc::new(db.catalog);
    let optimizer = OptimizerConfig::with_mode(BloomMode::Cbo)
        .dop(DOP)
        .determinism(Determinism::Strict);
    let engine = Engine::over_catalog(
        catalog.clone(),
        EngineConfig {
            optimizer,
            ..EngineConfig::default()
        },
    );
    let server = Server::start(
        engine.clone(),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: CONNECTIONS,
            queue_depth: CONNECTIONS,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let clients = (0..CONNECTIONS)
        .map(|_| {
            let mut c = Client::connect(server.local_addr()).expect("connect");
            c.prepare("point", POINT_SQL).expect("prepare point");
            c.prepare("agg", AGG_SQL).expect("prepare agg");
            c
        })
        .collect();
    (
        Served {
            server,
            clients,
            engine,
            catalog,
        },
        generate_s,
    )
}

/// Every order key, ascending.
fn order_keys(catalog: &Catalog) -> Vec<i64> {
    let id = catalog.meta_by_name("orders").expect("orders").id;
    let mut keys: Vec<i64> = catalog
        .data(id)
        .expect("orders data")
        .chunks()
        .iter()
        .flat_map(|c| c.column(0).as_i64().expect("o_orderkey is Int64").to_vec())
        .collect();
    keys.sort_unstable();
    keys
}

/// The inputs requests draw from.
struct Keys {
    /// Every order key.
    orders: Vec<i64>,
    /// Aggregate thresholds.
    thresholds: Vec<i64>,
}

impl Keys {
    fn new(catalog: &Catalog) -> Keys {
        let orders = order_keys(catalog);
        let rows = orders.len();
        let thresholds = (0..THRESHOLDS)
            .map(|i| 1 + (rows * i / (THRESHOLDS - 1)) as i64)
            .collect();
        Keys { orders, thresholds }
    }

    /// The next statement of a connection and its key: a point lookup,
    /// an aggregate or an ad-hoc lookup with weights 1 : 1 : 2.
    fn draw(&self, rng: &mut Rng) -> (Kind, i64) {
        let kind = match rng.below(4) {
            0 => Kind::Point,
            1 => Kind::Agg,
            _ => Kind::AdHoc,
        };
        let key = match kind {
            Kind::Agg => self.thresholds[rng.below(self.thresholds.len())],
            _ => self.orders[rng.below(self.orders.len())],
        };
        (kind, key)
    }
}

/// Per-connection schedules for `seconds` at `rate` statements/s. Each
/// connection is paced: gaps are uniform in [0.5, 1.5] of the mean, so
/// the offered load is the same in every run and bursts stay short.
fn schedule(rng: &mut Rng, rate: f64, seconds: f64, keys: &Keys) -> Vec<Vec<Req>> {
    let gap = CONNECTIONS as f64 / rate;
    (0..CONNECTIONS)
        .map(|_| {
            let mut reqs = Vec::new();
            let mut due_s = rng.unit() * gap;
            while due_s < seconds || reqs.is_empty() {
                let (kind, key) = keys.draw(rng);
                reqs.push(Req { due_s, kind, key });
                due_s += gap * (0.5 + rng.unit());
            }
            reqs
        })
        .collect()
}

/// Send one statement and read its reply.
fn send(client: &mut Client, kind: Kind, key: i64) -> Result<Rows, String> {
    let param = [Datum::Int(key)];
    let reply = match kind {
        Kind::Point => client.execute("point", &param),
        Kind::Agg => client.execute("agg", &param),
        Kind::AdHoc => client.query(&adhoc_sql(key)),
    };
    reply
        .map(|rs| Rows::new(rs.rows))
        .map_err(|e| e.to_string())
}

/// Run one window of the open loop: each connection sends its requests
/// when due, or at once when it is behind.
fn drive(clients: &mut [Client], plan: Vec<Vec<Req>>) -> Vec<Done> {
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(plan)
            .map(|(client, reqs)| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(reqs.len());
                    for r in reqs {
                        let due = start + Duration::from_secs_f64(r.due_s);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let result = send(client, r.kind, r.key);
                        out.push(Done {
                            kind: r.kind,
                            key: r.key,
                            due,
                            sent,
                            done: Instant::now(),
                            result,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("connection thread"))
            .collect()
    })
}

/// The saturated closed loop: each connection sends its next statement as
/// soon as the last reply is in, until `seconds` have gone. Returns the
/// replies and the statements completed per second.
fn saturate(clients: &mut [Client], rng: &mut Rng, seconds: f64, keys: &Keys) -> (Vec<Done>, f64) {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let done: Vec<Done> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let mut rng = Rng::new(rng.next_u64());
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while Instant::now() < end {
                        let (kind, key) = keys.draw(&mut rng);
                        let sent = Instant::now();
                        let result = send(client, kind, key);
                        out.push(Done {
                            kind,
                            key,
                            due: sent,
                            sent,
                            done: Instant::now(),
                            result,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("connection thread"))
            .collect()
    });
    let last = done.iter().map(|d| d.done).max().unwrap_or(start);
    let qps = done.len() as f64 / (last - start).as_secs_f64().max(1e-9);
    (done, qps)
}

/// The server's metrics scrape as `name -> value`.
fn scrape(client: &mut Client) -> HashMap<String, f64> {
    client
        .metrics()
        .expect("metrics scrape")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
        .collect()
}

fn delta(before: &HashMap<String, f64>, after: &HashMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// Check every reply against an in-process `Connection` on a reference
/// engine (no Bloom filters, dop 1) over the same catalog. Returns the
/// number of mismatches.
fn verify(catalog: &Arc<Catalog>, done: &[&Done]) -> u64 {
    let reference = Engine::over_catalog(
        catalog.clone(),
        EngineConfig {
            optimizer: OptimizerConfig::with_mode(BloomMode::None).dop(1),
            ..EngineConfig::default()
        },
    );
    let conn = reference.connect();
    let point = conn.prepare(POINT_SQL).expect("reference prepare");
    let agg = conn.prepare(AGG_SQL).expect("reference prepare");
    let mut expected: BTreeMap<(bool, i64), Rows> = BTreeMap::new();
    let mut wrong = 0;
    for d in done {
        let Ok(got) = &d.result else { continue };
        let is_agg = d.kind == Kind::Agg;
        let want = expected.entry((is_agg, d.key)).or_insert_with(|| {
            let stmt = if is_agg { &agg } else { &point };
            let r = stmt.execute(&[Datum::Int(d.key)]).expect("reference query");
            Rows::from_chunk(&r.chunk)
        });
        if !got.matches(want) {
            eprintln!("# {} {} differs from the reference", d.kind.name(), d.key);
            wrong += 1;
        }
    }
    wrong
}

/// One rung of the ladder: p99 within the limit, nothing failed, and the
/// generator did not fall further behind over the rung.
fn rung_ok(done: &[Done]) -> (bool, f64) {
    let lat = stats::sorted(&done.iter().map(Done::latency_ms).collect::<Vec<_>>());
    let p99 = stats::quantile(&lat, 0.99);
    let mut by_due: Vec<&Done> = done.iter().collect();
    by_due.sort_by_key(|d| d.due);
    let q = (by_due.len() / 4).max(1);
    let lag = |s: &[&Done]| s.iter().map(|d| ms(d.sent - d.due)).sum::<f64>() / s.len() as f64;
    let growing = lag(&by_due[by_due.len() - q..]) > lag(&by_due[..q]) + 0.25 * LIMIT_MS;
    (p99 <= LIMIT_MS && !growing, p99)
}

pub fn run(args: &Args) -> Outcome {
    println!(
        "# serve-mixed: seed {} dop {DOP} bf-cbo strict, {CONNECTIONS} connections, closed loop then {RATE}/s offered, {}s",
        args.seed, args.seconds
    );
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut served = None;
    for _ in 0..if args.quick { 1 } else { SETUPS } {
        if let Some(old) = served.take() {
            let Served {
                server, clients, ..
            } = old;
            for c in clients {
                c.quit().expect("quit");
            }
            server.shutdown();
        }
        let start = Instant::now();
        let (s, g) = set_up(args.seed);
        setup_s.push(start.elapsed().as_secs_f64());
        generate_s.push(g);
        served = Some(s);
    }
    let Served {
        server,
        mut clients,
        engine,
        catalog,
    } = served.expect("set up at least once");

    let keys = Keys::new(&catalog);
    let mut rng = Rng::new(args.seed);
    let seconds = if args.quick { 0.2 } else { args.seconds };

    // Warm up the connections and the data path, untimed.
    drive(
        &mut clients,
        schedule(&mut rng, RATE, if args.quick { 0.1 } else { 1.0 }, &keys),
    );

    // An untraced run alternates closed-loop bursts, which measure
    // capacity, with stretches of the open loop at the fixed rate, so both
    // see the host in the same state; a traced run gives half its time to
    // the rate ladder instead.
    let rounds = if args.quick || args.trace { 1 } else { ROUNDS };
    let window_s = seconds * if args.trace { 0.5 } else { 1.0 - CLOSED_SHARE };
    let (mut saturated, mut burst_qps, mut done) = (Vec::new(), Vec::new(), Vec::new());
    let before = scrape(&mut clients[0]);
    let cache_before = engine.cache_stats();
    for _ in 0..rounds {
        if !args.trace {
            let burst_s = seconds * CLOSED_SHARE / rounds as f64;
            let (replies, qps) = saturate(&mut clients, &mut rng, burst_s, &keys);
            saturated.extend(replies);
            burst_qps.push(qps);
        }
        let plan = schedule(&mut rng, RATE, window_s / rounds as f64, &keys);
        done.extend(drive(&mut clients, plan));
    }
    let cache_after = engine.cache_stats();
    let after = scrape(&mut clients[0]);

    let mut ladder = Vec::new();
    if args.trace {
        let rung_s = (seconds - window_s) / LADDER.len() as f64;
        for tenths in LADDER {
            let rate = CAPACITY * tenths / 10.0;
            let rung = drive(&mut clients, schedule(&mut rng, rate, rung_s, &keys));
            let (ok, p99) = rung_ok(&rung);
            println!(
                "# ladder {rate:>5}/s: {} requests, p99 {p99:.2}ms -> {}",
                rung.len(),
                if ok { "met" } else { "missed" }
            );
            ladder.push((rate, ok, rung));
            if !ok {
                break;
            }
        }
    }
    for c in clients {
        c.quit().expect("quit");
    }
    server.shutdown();

    let all: Vec<&Done> = saturated
        .iter()
        .chain(&done)
        .chain(ladder.iter().flat_map(|(_, _, r)| r))
        .collect();
    let attempted = all.len() as u64;
    let failed = all.iter().filter(|d| d.result.is_err()).count() as u64;
    for d in all.iter().filter(|d| d.result.is_err()) {
        eprintln!(
            "# {} {} failed: {:?}",
            d.kind.name(),
            d.key,
            d.result.as_ref().err()
        );
    }
    let wrong = verify(&catalog, &all);
    println!("# {} statements in the window, {attempted} in all; every reply checked against an in-process Connection", done.len());

    let lat: Vec<f64> = done.iter().map(Done::latency_ms).collect();
    let sorted = stats::sorted(&lat);
    if wrong > 0 || failed > 0 {
        return Outcome::wrong(attempted, failed);
    }
    let mut m = Metrics::default();
    if args.trace {
        m.put("tpch.generate_s", stats::median(&generate_s), "s");
        let served_stmts = delta(&before, &after, "bfq_queries_total");
        if served_stmts == 0.0 {
            println!(
                "# the scrape counted none of the {} served statements: engine-side layers read 0",
                done.len()
            );
        }
        let mut totals = Totals {
            stmts: done.len() as u64,
            cache_hits: cache_after.hits - cache_before.hits,
            cache_lookups: (cache_after.hits + cache_after.misses)
                - (cache_before.hits + cache_before.misses),
            bloom_builds: delta(&before, &after, "bfq_filter_builds_total") as u64,
            bloom_rows_in: delta(&before, &after, "bfq_filter_probe_rows_total") as u64,
            bloom_rows_out: delta(&before, &after, "bfq_filter_pass_rows_total") as u64,
            probe_candidates: delta(&before, &after, "bfq_join_probe_candidates_total") as u64,
            probe_verified: delta(&before, &after, "bfq_join_probe_verified_total") as u64,
            window_stalls: delta(&before, &after, "bfq_window_stalls_total") as u64,
            skipped: delta(&before, &after, "bfq_prune_chunks_skipped_total") as u64,
            ..Totals::default()
        };
        totals.prune.chunks = delta(&before, &after, "bfq_prune_chunks_total") as u64;
        totals.prune.rows_pruned = delta(&before, &after, "bfq_prune_rows_total") as u64;
        totals.put_metrics(&mut m);
        // Engine-side phase times come from the scrape's summaries.
        let summary = |name: &str| {
            let count = delta(&before, &after, &format!("{name}_count"));
            let mean = if count > 0.0 {
                delta(&before, &after, &format!("{name}_sum")) / count * 1e3
            } else {
                0.0
            };
            let p50 = after
                .get(&format!("{name}{{quantile=\"0.5\"}}"))
                .copied()
                .unwrap_or(0.0)
                * 1e3;
            (p50, mean, count)
        };
        for (metric, name) in [
            ("sql.parse_ms", "bfq_parse_seconds"),
            ("sql.bind_ms", "bfq_bind_seconds"),
            ("core.optimize_ms", "bfq_optimize_seconds"),
            ("exec.execute_ms", "bfq_execute_seconds"),
        ] {
            let (p50, mean, _) = summary(name);
            m.put(&format!("{metric}_p50"), p50, "ms");
            m.put(&format!("{metric}_mean"), mean, "ms");
        }
        let (engine_p50, engine_mean, engine_count) = summary("bfq_query_seconds");
        let rtt: Vec<f64> = done.iter().map(|d| ms(d.done - d.sent)).collect();
        let rtt_sum: f64 = rtt.iter().sum();
        m.put("server.rtt_p50_ms", stats::median(&rtt), "ms");
        m.put("server.engine_ms_p50", engine_p50, "ms");
        m.put(
            "server.overhead_frac",
            (rtt_sum - engine_mean * engine_count) / rtt_sum,
            "frac",
        );
        let lag = stats::sorted(&done.iter().map(|d| ms(d.sent - d.due)).collect::<Vec<_>>());
        m.put("server.gen_lag_p99_ms", stats::quantile(&lag, 0.99), "ms");
        let busy = all
            .iter()
            .filter(|d| matches!(&d.result, Err(e) if e.contains("server_busy")))
            .count();
        m.put(
            "server.rejected",
            delta(&before, &after, "bfq_server_connections_rejected_total") + busy as f64,
            "count",
        );
        let max_rate = ladder
            .iter()
            .take_while(|(_, ok, _)| *ok)
            .map(|(r, _, _)| *r)
            .last()
            .unwrap_or(0.0);
        m.put("server.max_rate_qps", max_rate, "1/s");

        // No layer span is recorded on the served path: the benchmark's
        // only call site is the client round trip, which `server.*` times.
        m.put("obs.unattributed_frac", 0.0, "frac");
        m.put("obs.trace_overhead_frac", 0.0, "frac");
        m.put(
            "error_rate",
            failed as f64 / attempted.max(1) as f64,
            "frac",
        );
    } else {
        let mut by_due: Vec<&Done> = done.iter().collect();
        by_due.sort_by_key(|d| d.due);
        let slice_tails: Vec<stats::Tail> = by_due
            .chunks(by_due.len().div_ceil(TAIL_SLICES))
            .map(|slice| {
                let lat: Vec<f64> = slice.iter().map(|d| d.latency_ms()).collect();
                stats::tail(&stats::sorted(&lat), 0.99)
            })
            .collect();
        for t in &slice_tails {
            println!(
                "# slice tail {} {:.3}ms ({} samples beyond it)",
                t.label, t.value, t.beyond
            );
        }
        let tail_ms = stats::median(&slice_tails.iter().map(|t| t.value).collect::<Vec<_>>());
        println!(
            "# latency_tail_ms is the median of {} slices' tails, {} statements in all",
            slice_tails.len(),
            sorted.len()
        );
        let medians: Vec<f64> = KINDS
            .iter()
            .filter_map(|kind| {
                let v: Vec<f64> = done
                    .iter()
                    .filter(|d| d.kind == *kind)
                    .map(Done::latency_ms)
                    .collect();
                let med = (!v.is_empty()).then(|| stats::median(&v))?;
                println!(
                    "# {:<6} {:>6} requests, p50 {med:.3}ms",
                    kind.name(),
                    v.len()
                );
                Some(med)
            })
            .collect();
        let capacity_qps = stats::median(&burst_qps);
        println!(
            "# closed loop: {} statements in {} bursts, median {capacity_qps:.1}/s",
            saturated.len(),
            burst_qps.len()
        );
        m.put("setup_s", stats::median(&setup_s), "s");
        m.put("throughput_qps", capacity_qps, "1/s");
        m.put("latency_p50_ms", stats::quantile(&sorted, 0.5), "ms");
        m.put("latency_tail_ms", tail_ms, "ms");
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
