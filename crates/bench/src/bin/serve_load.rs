//! Saturation-curve load run against a self-hosted `qpp serve` daemon.
//!
//! Starts the daemon in-process on an ephemeral loopback port, trains one
//! model per tier ({edge, paper}), then drives it:
//!
//! * a **closed-loop** leg per tier (peak sustainable throughput —
//!   this leg doubles as the CI smoke run), then
//! * an **open-loop rate sweep** per tier with Zipf(0.99)-skewed
//!   template selection, recording p50/p95/p99/p999 latency (measured
//!   from *scheduled* arrival, so queueing shows) and drop counts, then
//! * a closed-loop **adversarial leg** with all-distinct plans
//!   (`--unique`), which defeats the Zipf skew so the daemon's
//!   whole-plan prediction memo can never hit — its probe+insert
//!   overhead is what that row measures.
//!
//! Results print as a table and persist to `BENCH_serve.json` at the
//! workspace root. Exits nonzero if any leg completes zero requests or
//! produces an empty histogram — the CI smoke assertion.
//!
//! ```text
//! serve_load [--queries N] [--requests N] [--rates r1,r2,...]
//!            [--conns C] [--shards S] [--zipf S]
//!            [--tiers edge,paper] [--unique both|0|1] [--smoke]
//! ```
//!
//! `--smoke` shrinks everything for a seconds-scale CI run. Each tier
//! runs one daemon with the default configuration: one request path
//! per verb, the prediction memo on. `--unique both` (the default)
//! keeps the standard legs Zipf-skewed and appends one all-distinct
//! closed-loop leg per daemon; `1` makes every leg all-distinct, `0`
//! drops the adversarial leg.

use std::collections::HashMap;
use std::time::Duration;

use qpp_bench::load::{run_load, LoadMode, LoadSpec, ServeRow};
use qpp_plansim::catalog::Workload;
use qpp_plansim::dataset::Dataset;
use qpp_plansim::plan::{Plan, PlanNode};
use qppnet::serve::{Client, ServeAddr, ServeConfig, Server};
use qppnet::{QppConfig, QppNet};

fn parse_flags() -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if let Some(name) = a.strip_prefix("--") {
            if name == "smoke" {
                flags.insert(name.to_string(), "1".to_string());
            } else {
                let v = args.next().unwrap_or_default();
                flags.insert(name.to_string(), v);
            }
        }
    }
    flags
}

fn get<'a>(flags: &'a HashMap<String, String>, k: &str, default: &'a str) -> &'a str {
    flags.get(k).map(String::as_str).unwrap_or(default)
}

fn fitted_model(ds: &Dataset, cfg: &QppConfig) -> QppNet {
    // Two epochs: weights don't matter for serving-path timing, the
    // unit architecture does.
    let cfg = QppConfig { epochs: 2, ..cfg.clone() };
    let mut model = QppNet::new(cfg, &ds.catalog);
    let train: Vec<&Plan> = ds.plans.iter().take(60).collect();
    model.fit(&train);
    model
}

fn main() {
    let flags = parse_flags();
    let smoke = flags.contains_key("smoke");
    let queries: usize = get(&flags, "queries", if smoke { "24" } else { "120" }).parse().unwrap();
    let requests: usize =
        get(&flags, "requests", if smoke { "200" } else { "2000" }).parse().unwrap();
    let conns: usize = get(&flags, "conns", "2").parse().unwrap();
    let shards: usize = get(&flags, "shards", "1").parse().unwrap();
    let zipf_s: f64 = get(&flags, "zipf", "0.99").parse().unwrap();
    let rates: Vec<f64> = get(&flags, "rates", if smoke { "500" } else { "500,1000,2000,4000,8000" })
        .split(',')
        .map(|r| r.trim().parse().expect("bad --rates entry"))
        .collect();
    let tiers: Vec<String> =
        get(&flags, "tiers", if smoke { "edge" } else { "edge,paper" })
            .split(',')
            .map(|t| t.trim().to_string())
            .collect();
    // both = standard legs stay Zipf-skewed, one adversarial all-distinct
    // closed-loop leg rides along per daemon; 1 = every leg all-distinct;
    // 0 = no adversarial leg.
    let (unique_all, unique_extra) = match get(&flags, "unique", "both") {
        "both" => (false, true),
        "0" => (false, false),
        "1" => (true, false),
        other => panic!("bad --unique `{other}` (want both|0|1)"),
    };

    let ds = Dataset::generate(Workload::TpcH, 100.0, queries, 9);
    let templates: Vec<PlanNode> = ds.plans.iter().map(|p| p.root.clone()).collect();
    println!(
        "serve_load: {} templates, {} requests/leg, zipf s={zipf_s}, {} conns, {} shards",
        templates.len(),
        requests,
        conns,
        shards
    );

    let mut rows: Vec<ServeRow> = Vec::new();
    let mut failed = false;

    for tier in &tiers {
        let cfg = match tier.as_str() {
            "edge" => QppConfig::tiny(),
            "paper" => QppConfig::default(),
            other => panic!("unknown tier `{other}` (want edge|paper)"),
        };
        let model = fitted_model(&ds, &cfg);
        let serve_cfg = ServeConfig { shards, ..ServeConfig::default() };
        let mut server =
            Server::bind(&ServeAddr::parse("127.0.0.1:0").unwrap(), serve_cfg).unwrap();
        server.register(&model);
        let addr = server.local_addr().clone();
        println!("[{tier}] daemon on {addr}");

        std::thread::scope(|scope| {
            let server = &server;
            scope.spawn(move || server.run().expect("server run failed"));

            let mut ctl = Client::connect(&addr).expect("control connection");

            let mut legs: Vec<(LoadMode, bool)> = vec![(LoadMode::Closed, unique_all)];
            legs.extend(rates.iter().map(|&r| (LoadMode::Open { rate_hz: r }, unique_all)));
            if unique_extra {
                legs.push((LoadMode::Closed, true));
            }
            for (mode, unique) in legs {
                let spec = LoadSpec {
                    addr: addr.clone(),
                    templates: &templates,
                    mode,
                    connections: conns,
                    requests,
                    zipf_s,
                    seed: 42,
                    timeout: Duration::from_secs(2),
                    unique,
                };
                // The memo hit rate of *this leg* comes from the
                // daemon's stats delta around the run.
                let before = ctl.stats().expect("stats verb");
                let report = run_load(&spec);
                let after = ctl.stats().expect("stats verb");
                let dh = after.cache_hits - before.cache_hits;
                let dm = after.cache_misses - before.cache_misses;
                let hit_rate = if dh + dm == 0 { 0.0 } else { dh as f64 / (dh + dm) as f64 };
                let row = ServeRow::from_report(tier, &spec, &report, hit_rate);
                println!(
                    "[{tier}] uniq={} {:>6} target {:>7.0}/s -> {:>7.0}/s \
                     | hit {:>4.0}% | p50 {:>7}µs p95 {:>7}µs p99 {:>7}µs p999 {:>7}µs \
                     | sent {} done {} drop {} err {}",
                    u8::from(unique),
                    row.mode,
                    row.target_rate_hz,
                    row.achieved_rate_hz,
                    row.cache_hit_rate * 100.0,
                    row.p50_us,
                    row.p95_us,
                    row.p99_us,
                    row.p999_us,
                    row.sent,
                    row.completed,
                    row.dropped,
                    row.errors
                );
                if report.completed == 0 || report.hist.is_empty() {
                    eprintln!("[{tier}] FAILED: empty histogram for {:?}", spec.mode);
                    failed = true;
                }
                rows.push(row);
            }

            let stats = ctl.stats().expect("stats verb");
            println!(
                "[{tier}] server counters: {} conns, {} reqs, {} errors, {} general-path \
                 admit_predicts, {} fast-path, {} resident, {} steady allocs, \
                 cache {}/{} hits ({} entries, {} evicted)",
                stats.connections,
                stats.requests,
                stats.errors,
                stats.batches,
                stats.fast_path_predicted,
                stats.resident_plans,
                stats.steady_allocs,
                stats.cache_hits,
                stats.cache_hits + stats.cache_misses,
                stats.cache_entries,
                stats.cache_evictions
            );
            ctl.shutdown().expect("clean shutdown");
        });
        println!("[{tier}] daemon stopped cleanly");
    }

    qpp_bench::load::write_serve_rows("BENCH_serve.json", &rows);
    if failed {
        std::process::exit(1);
    }
}
