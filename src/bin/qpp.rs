//! `qpp` — command-line interface to the QPPNet reproduction.
//!
//! Workflow:
//!
//! ```text
//! qpp generate   --workload tpch --sf 10 --queries 500 --out dataset.json
//! qpp train      --dataset dataset.json --epochs 100 --out model.json
//! qpp evaluate   --dataset dataset.json --model model.json
//! qpp predict    --dataset dataset.json --model model.json --query 3
//! qpp predict    --input plans.json --model model.json --engine program
//! qpp explain    --dataset dataset.json --query 3
//! qpp importance --dataset dataset.json --model model.json --top 15
//! qpp serve      --model model.json --addr 127.0.0.1:7878 --shards 4
//! ```
//!
//! `generate` writes an executed workload (plans with EXPLAIN-style
//! estimates and simulated EXPLAIN ANALYZE actuals); `train` fits a QPPNet
//! on the paper split and snapshots the model; `evaluate`/`predict`/
//! `importance` use the snapshot without retraining.
//!
//! `predict` has three modes: `--query N` scores one plan with a
//! per-operator breakdown; `--input plans.json` scores *every* plan
//! of a (possibly heterogeneous) batch through the chosen inference
//! engine — `program` (default) compiles the wavefront-batched
//! [`qpp::net::PlanProgram`], `classes` uses per-equivalence-class
//! evaluation — and reports throughput; `--input plans.json --stream W`
//! replays the batch as a **live admission stream** through the sharded
//! incremental path ([`qpp::net::ShardedStream`]): arrivals route by
//! content hash to `--shards` per-shard builders (default: the first
//! `--threads` entry), bursts of `--burst` concurrent requests coalesce
//! into one wavefront run via [`qpp::net::MicroBatcher`], and plans
//! retire once a sliding window of `W` resident plans is exceeded
//! (`--stream 0` never retires) — with per-shard
//! [`qpp::net::ProgramStats`] (CSE dedup ratio, feature-cache hit rate),
//! micro-batch coalescing stats and resident-executor pool stats
//! reported at the end. `--threads` takes a comma list of worker counts
//! (e.g. `--threads 1,2,4`; predictions use the first entry — thread
//! count never changes them), and `--repeat N` (N > 1) prints one
//! throughput table covering every engine × thread-count combination,
//! including precompiled steady-state serving and incremental admission,
//! so the README's scaling numbers reproduce with a single command.
//!
//! Extensions: `generate --max-mpl 8` produces a concurrent workload
//! (§8 future work), `train --load-aware true` exposes the system load as
//! a feature, and `train --threads N` runs both gradient sweeps across a
//! worker pool. Training runs on the differentiable wavefront engine by
//! default (one gemm per operator family per wavefront across the whole
//! shuffled batch — see DESIGN.md §9) and prints the run's
//! [`qpp::net::TrainStats`] line; `--train-engine classes` keeps the
//! per-equivalence-class arrangement (the §5.1 ablation layout and the
//! wavefront engine's differential oracle).
//!
//! `serve` turns a fitted snapshot into a long-running prediction daemon
//! ([`qpp::net::serve`]): resident [`qpp::net::ShardedStream`]s behind a
//! JSON-lines wire protocol (admit / retire / predict / admit_predict /
//! stats / shutdown) over TCP or `unix:` sockets, with one request path
//! per verb and multi-model tenancy via a comma-separated `--model` list.
//! Drive it with the `serve_load` bench bin for saturation curves.
//!
//! Each subcommand accepts only the flags it reads (`accepted_flags`);
//! any other flag, a typo included, is a usage error.

use qpp::net::config::TrainEngine;
use qpp::net::{permutation_importance, InferEngine, QppConfig, QppNet};
use qpp::plansim::features::Featurizer;
use qpp::plansim::prelude::*;
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage("missing subcommand");
    };
    let Some(accepted) = accepted_flags(cmd) else {
        return usage(&format!("unknown subcommand `{cmd}`"));
    };
    let flags = match parse_flags(rest, accepted) {
        Ok(f) => f,
        Err(e) => return usage(&format!("qpp {cmd}: {e}")),
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&flags),
        "train" => cmd_train(&flags),
        "evaluate" => cmd_evaluate(&flags),
        "predict" => cmd_predict(&flags),
        "explain" => cmd_explain(&flags),
        "importance" => cmd_importance(&flags),
        "serve" => cmd_serve(&flags),
        "serve-stats" => cmd_serve_stats(&flags),
        _ => unreachable!("accepted_flags names every subcommand"),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => usage(&e),
    }
}

fn usage(error: &str) -> ExitCode {
    eprintln!("error: {error}\n");
    eprintln!(
        "usage:\n\
         qpp generate   --workload tpch|tpcds --sf F --queries N --seed N --out FILE [--max-mpl N]\n\
         qpp train      --dataset FILE --out FILE [--epochs N] [--batch N] [--seed N]\n\
                        [--threads N] [--train-engine classes|program] [--load-aware true]\n\
         qpp evaluate   --dataset FILE --model FILE [--seed N]\n\
         qpp predict    --dataset FILE --model FILE --query N\n\
         qpp predict    --input FILE --model FILE [--engine classes|program]\n\
                        [--threads N[,N...]] [--repeat N] [--stream WINDOW]\n\
                        [--shards N] [--burst N]\n\
         qpp explain    --dataset FILE --query N\n\
         qpp importance --dataset FILE --model FILE [--seed N] [--top N]\n\
         qpp serve      --model FILE[,FILE...] [--addr HOST:PORT|unix:PATH]\n\
                        [--shards N] [--threads N]\n\
         qpp serve-stats [--addr HOST:PORT|unix:PATH]"
    );
    ExitCode::from(2)
}

/// The flags each subcommand reads, or `None` for an unknown subcommand.
fn accepted_flags(cmd: &str) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "generate" => &["workload", "sf", "queries", "seed", "out", "max-mpl"],
        "train" => &[
            "dataset", "out", "seed", "epochs", "batch", "threads", "train-engine", "load-aware",
        ],
        "evaluate" => &["dataset", "model", "seed"],
        "predict" => &[
            "dataset", "model", "query", "input", "engine", "threads", "repeat", "stream",
            "shards", "burst",
        ],
        "explain" => &["dataset", "query"],
        "importance" => &["dataset", "model", "seed", "top"],
        "serve" => &["model", "addr", "shards", "threads"],
        "serve-stats" => &["addr"],
        _ => return None,
    })
}

fn parse_flags(args: &[String], accepted: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got `{}`", args[i]))?;
        if !accepted.contains(&key) {
            return Err(format!("unknown flag --{key}"));
        }
        let value = args.get(i + 1).ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn get<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags.get(key).map(String::as_str).ok_or_else(|| format!("missing --{key}"))
}

fn get_or<'a>(flags: &'a HashMap<String, String>, key: &str, default: &'a str) -> &'a str {
    flags.get(key).map(String::as_str).unwrap_or(default)
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what}: `{s}`"))
}

fn load_dataset(flags: &HashMap<String, String>) -> Result<Dataset, String> {
    let path = get(flags, "dataset")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&json).map_err(|e| format!("parsing {path}: {e}"))
}

fn load_model(flags: &HashMap<String, String>) -> Result<QppNet, String> {
    let path = get(flags, "model")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    QppNet::from_json(&json).map_err(|e| format!("parsing {path}: {e}"))
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let workload = match get_or(flags, "workload", "tpch") {
        "tpch" => Workload::TpcH,
        "tpcds" => Workload::TpcDs,
        other => return Err(format!("unknown workload `{other}` (tpch|tpcds)")),
    };
    let sf: f64 = parse(get_or(flags, "sf", "10"), "scale factor")?;
    let queries: usize = parse(get_or(flags, "queries", "500"), "query count")?;
    let seed: u64 = parse(get_or(flags, "seed", "42"), "seed")?;
    let max_mpl: u32 = parse(get_or(flags, "max-mpl", "1"), "max multiprogramming level")?;
    let out = get(flags, "out")?;

    eprintln!(
        "generating {queries} {} queries at sf {sf}{}...",
        workload.name(),
        if max_mpl > 1 { format!(" under MPL 1..={max_mpl}") } else { String::new() }
    );
    let ds = Dataset::generate_concurrent(workload, sf, queries, seed, max_mpl);
    let json = serde_json::to_string(&ds).map_err(|e| e.to_string())?;
    std::fs::write(out, json).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!(
        "wrote {out}: {} plans, {} operators, mean latency {:.1}s",
        ds.len(),
        ds.total_operators(),
        ds.mean_latency_ms(&(0..ds.len()).collect::<Vec<_>>()) / 1000.0
    );
    Ok(())
}

fn cmd_train(flags: &HashMap<String, String>) -> Result<(), String> {
    let ds = load_dataset(flags)?;
    let out = get(flags, "out")?;
    let seed: u64 = parse(get_or(flags, "seed", "42"), "seed")?;
    let mut config = QppConfig { seed, ..QppConfig::default() };
    config.epochs = parse(get_or(flags, "epochs", "100"), "epochs")?;
    config.batch_size = parse(get_or(flags, "batch", "256"), "batch size")?;
    config.threads = parse(get_or(flags, "threads", "1"), "thread count")?;
    config.train_engine = TrainEngine::parse(get_or(flags, "train-engine", "program"))
        .ok_or_else(|| "invalid --train-engine (classes|program)".to_string())?;
    let load_aware: bool = parse(get_or(flags, "load-aware", "false"), "load-aware flag")?;

    let split = ds.paper_split(seed);
    let train = ds.select(&split.train);
    let test = ds.select(&split.test);
    eprintln!("training on {} plans ({} held out)...", train.len(), test.len());

    let mut model = if load_aware {
        QppNet::with_featurizer(config, Featurizer::with_system_load(&ds.catalog))
    } else {
        QppNet::new(config, &ds.catalog)
    };
    let history = model.fit(&train);
    eprintln!(
        "trained {} epochs in {:.1}s ({} parameters, {} kernels)",
        history.train_loss.len(),
        history.total_seconds(),
        model.num_params(),
        qpp::nn::KernelTier::current()
    );
    eprintln!("{}", history.stats);

    if !test.is_empty() {
        let m = model.evaluate(&test);
        println!(
            "test metrics: relative error {:.1}%, MAE {:.2} min, R<=1.5 {:.0}%",
            m.relative_error_pct(),
            m.mae_minutes(),
            m.r_le_15 * 100.0
        );
    }

    std::fs::write(out, model.to_json()).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("wrote model snapshot to {out}");
    Ok(())
}

fn cmd_evaluate(flags: &HashMap<String, String>) -> Result<(), String> {
    let ds = load_dataset(flags)?;
    let model = load_model(flags)?;
    let seed: u64 = parse(get_or(flags, "seed", "42"), "seed")?;
    let split = ds.paper_split(seed);
    let test = ds.select(&split.test);
    if test.is_empty() {
        return Err("empty test split".into());
    }
    let report = model.evaluate_stratified(&test);
    let m = &report.overall;
    println!("queries evaluated:   {}", m.count);
    println!("relative error:      {:.1}%", m.relative_error_pct());
    println!("mean absolute error: {:.2} min", m.mae_minutes());
    println!("RMSE:                {:.2} min", m.rmse_ms / 60_000.0);
    println!("R <= 1.5:            {:.0}%", m.r_le_15 * 100.0);
    println!("1.5 < R < 2:         {:.0}%", m.r_15_to_2 * 100.0);
    println!("R >= 2:              {:.0}%", m.r_ge_2 * 100.0);

    // Stratified breakdowns: a flat aggregate can hide a predictor that
    // is wrong exactly where admission control needs it (one operator
    // family, or the deep-plan stratum).
    println!("\nby operator family (descending MAE):");
    println!(
        "{:<14} {:>7} {:>12} {:>8} {:>9} {:>7} {:>8}",
        "family", "count", "MAE (ms)", "mean R", "median R", "p90 R", "R<=1.5"
    );
    for f in &report.families {
        println!(
            "{:<14} {:>7} {:>12.2} {:>8.2} {:>9.2} {:>7.2} {:>7.0}%",
            format!("{:?}", f.kind),
            f.count,
            f.mae_ms,
            f.mean_r,
            f.median_r,
            f.p90_r,
            f.r_le_15 * 100.0
        );
    }
    println!("\nby plan height (root predictions):");
    println!(
        "{:<7} {:>7} {:>12} {:>8} {:>9} {:>7} {:>8}",
        "height", "count", "MAE (min)", "mean R", "median R", "p90 R", "R<=1.5"
    );
    for h in &report.heights {
        println!(
            "{:<7} {:>7} {:>12.2} {:>8.2} {:>9.2} {:>7.2} {:>7.0}%",
            h.height,
            h.count,
            h.mae_ms / 60_000.0,
            h.mean_r,
            h.median_r,
            h.p90_r,
            h.r_le_15 * 100.0
        );
    }
    // Rank-based latency strata: equal query counts per row, so the
    // slow tail (where admission control lives) gets its own Q-error
    // instead of disappearing into the aggregate.
    println!("\nby actual-latency decile (0 = fastest tenth):");
    println!(
        "{:<7} {:>7} {:>21} {:>12} {:>8} {:>9} {:>7} {:>8}",
        "decile", "count", "latency range (s)", "MAE (min)", "mean R", "median R", "p90 R", "R<=1.5"
    );
    for d in &report.deciles {
        println!(
            "{:<7} {:>7} {:>21} {:>12.2} {:>8.2} {:>9.2} {:>7.2} {:>7.0}%",
            d.decile,
            d.count,
            format!("{:.1} - {:.1}", d.lo_ms / 1000.0, d.hi_ms / 1000.0),
            d.mae_ms / 60_000.0,
            d.mean_r,
            d.median_r,
            d.p90_r,
            d.r_le_15 * 100.0
        );
    }
    Ok(())
}

fn cmd_predict(flags: &HashMap<String, String>) -> Result<(), String> {
    if flags.contains_key("input") {
        return cmd_predict_batch(flags);
    }
    let ds = load_dataset(flags)?;
    let model = load_model(flags)?;
    let q: usize = parse(get(flags, "query")?, "query index")?;
    let plan = ds.plans.get(q).ok_or_else(|| format!("query {q} out of range"))?;
    let pred = model.predict(plan);
    println!("template:  {} q{}", plan.workload.name(), plan.template_id);
    println!("operators: {}", plan.node_count());
    println!("predicted: {:.2}s", pred / 1000.0);
    println!("actual:    {:.2}s", plan.latency_ms() / 1000.0);
    println!("R(q):      {:.2}", qpp::net::r_factor(plan.latency_ms(), pred));

    // Per-operator breakdown (post order, inclusive latencies).
    println!("\nper-operator breakdown (predicted vs actual, inclusive ms):");
    let per_op = model.predict_operators(plan);
    let nodes = plan.root.postorder();
    for (node, pred_ms) in nodes.iter().zip(&per_op) {
        println!(
            "  {:<24} {:>12.2} {:>12.2}",
            node.op.display_name(),
            pred_ms,
            node.actual.latency_ms
        );
    }
    Ok(())
}

/// `predict --input plans.json`: score a whole (heterogeneous) plan batch
/// through the chosen inference engine and report throughput.
fn cmd_predict_batch(flags: &HashMap<String, String>) -> Result<(), String> {
    let path = get(flags, "input")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let ds: Dataset = serde_json::from_str(&json).map_err(|e| format!("parsing {path}: {e}"))?;
    if ds.plans.is_empty() {
        return Err(format!("{path} contains no plans"));
    }
    let model = load_model(flags)?;
    let engine_flag = flags.get("engine").map(String::as_str);
    let engine = InferEngine::parse(engine_flag.unwrap_or("program"))
        .ok_or_else(|| "invalid --engine (classes|program)".to_string())?;
    let threads: Vec<usize> = get_or(flags, "threads", "1")
        .split(',')
        .map(|t| parse::<usize>(t, "thread count").and_then(|n| {
            if n == 0 { Err("invalid thread count: `0`".into()) } else { Ok(n) }
        }))
        .collect::<Result<_, _>>()?;
    let repeat: usize = parse(get_or(flags, "repeat", "1"), "repeat count")?;
    let repeat = repeat.max(1);
    // Predictions are printed once, from the requested engine at the first
    // thread count — by the engine's determinism contract every other row
    // of the throughput table produces the same numbers.
    let engine = engine.with_threads(threads[0]);

    // Structural validation up front: the input is user-supplied JSON, and
    // a malformed tree (wrong child count for an operator family) should
    // be a clean CLI error, not a library panic mid-compile.
    for plan in &ds.plans {
        let mut bad = None;
        plan.root.visit_postorder(&mut |n| {
            if n.children.len() != n.op.kind().arity() && bad.is_none() {
                bad = Some(format!(
                    "{:?} node with {} children (expected {})",
                    n.op.kind(),
                    n.children.len(),
                    n.op.kind().arity()
                ));
            }
        });
        if let Some(why) = bad {
            return Err(format!("{path}: malformed plan #{}: {why}", plan.query_id));
        }
    }

    if let Some(w) = flags.get("stream") {
        if engine_flag == Some("classes") {
            return Err("--stream uses the incremental program engine; drop --engine classes".into());
        }
        let window: usize = parse(w, "stream window")?;
        let shards: usize = parse(get_or(flags, "shards", &threads[0].to_string()), "shard count")?;
        if shards == 0 {
            return Err("invalid shard count: `0`".into());
        }
        let burst: usize = parse(get_or(flags, "burst", "1"), "burst width")?;
        if burst == 0 {
            return Err("invalid burst width: `0`".into());
        }
        return cmd_predict_stream(&ds, &model, window, threads[0], shards, burst, repeat);
    }

    let plans: Vec<&Plan> = ds.plans.iter().collect();
    let start = std::time::Instant::now();
    let preds = model.predict_batch_with(&plans, engine);
    let first_run = start.elapsed().as_secs_f64();
    for (plan, pred) in plans.iter().zip(&preds) {
        println!(
            "{} q{} #{}: predicted {:.2}s actual {:.2}s",
            plan.workload.name(),
            plan.template_id,
            plan.query_id,
            pred / 1000.0,
            plan.latency_ms() / 1000.0
        );
    }
    let shapes: std::collections::HashSet<String> =
        plans.iter().map(|p| p.signature()).collect();

    // Mean seconds per run of `f`, over `repeat` runs.
    let time = |f: &mut dyn FnMut()| {
        let start = std::time::Instant::now();
        for _ in 0..repeat {
            f();
        }
        start.elapsed().as_secs_f64() / repeat as f64
    };

    if repeat == 1 {
        // One-shot mode: report the timing of the run already printed
        // above — no extra pipeline pass just to hold a stopwatch.
        let elapsed = first_run;
        eprintln!(
            "engine {} ({} thread{}, {} kernels): {} plans ({} distinct shapes) in {:.2} ms -> {:.0} plans/s",
            engine.name(),
            engine.threads(),
            if engine.threads() == 1 { "" } else { "s" },
            qpp::nn::KernelTier::current(),
            plans.len(),
            shapes.len(),
            elapsed * 1e3,
            plans.len() as f64 / elapsed
        );
        return Ok(());
    }

    // `--repeat N` (N > 1): one table covering every engine × thread-count
    // combination (plus precompiled steady-state serving), so scaling
    // numbers reproduce with a single command. An explicit --engine flag
    // restricts the table to that engine.
    eprintln!(
        "\nthroughput, mean over {repeat} runs ({} plans, {} distinct shapes, {} kernels):",
        plans.len(),
        shapes.len(),
        qpp::nn::KernelTier::current()
    );
    eprintln!("{:<22} {:>7} {:>12} {:>10} {:>8}", "engine", "threads", "ms/batch", "plans/s", "vs 1st");
    let mut baseline = None;
    let mut report = |label: &str, t: usize, secs: f64| {
        let base = *baseline.get_or_insert(secs);
        eprintln!(
            "{:<22} {:>7} {:>12.2} {:>10.0} {:>7.2}x",
            label,
            t,
            secs * 1e3,
            plans.len() as f64 / secs,
            base / secs
        );
    };
    let only = engine_flag.map(|_| engine.name());
    if only.is_none() || only == Some("classes") {
        let secs = time(&mut || {
            let _ = model.predict_batch_with(&plans, InferEngine::Classes);
        });
        report("classes", 1, secs);
    }
    if only.is_none() || only == Some("program") {
        for &t in &threads {
            let secs = time(&mut || {
                let _ = model.predict_batch_with(&plans, InferEngine::Program { threads: t });
            });
            report("program", t, secs);
        }
        let mut compiled = model.compile_program(&plans);
        for &t in &threads {
            let secs = time(&mut || {
                let _ = model.predict_compiled_with(&mut compiled, t);
            });
            report("program precompiled", t, secs);
        }
        // Incremental admission churn: admit the whole batch into a
        // persistent streaming session, score it, retire it. Later
        // repeats run against a warm feature cache — exactly a live
        // stream's steady state.
        let mut stream = model.serve_stream();
        let mut ids = Vec::with_capacity(plans.len());
        for &t in &threads {
            let secs = time(&mut || {
                for plan in &plans {
                    ids.push(stream.admit(&plan.root));
                }
                let _ = stream.predict_roots_threaded(t);
                for id in ids.drain(..) {
                    stream.retire(id);
                }
            });
            report("program incremental", t, secs);
        }
        eprintln!("\nstream stats after churn: {}", stream.stats());
    }
    Ok(())
}

/// `predict --input plans.json --stream W`: replay the batch as a live
/// admission stream through the **sharded** serving path
/// ([`qpp::net::ShardedStream`]): arrivals are grouped into bursts of
/// `--burst` concurrent requests, each burst is admitted in parallel
/// across `--shards` per-shard builders (routed by plan content hash) and
/// scored in **one** coalesced wavefront run via the micro-batching front
/// door ([`qpp::net::MicroBatcher`]), then plans are retired once the
/// sliding window of `W` resident plans is exceeded (`W = 0` never
/// retires). `--repeat N` replays the stream N times against the same
/// session: the per-shard feature caches stay warm across passes, exactly
/// as they would across a long-lived server. Reports per-shard
/// [`qpp::net::ProgramStats`], micro-batch coalescing stats and the
/// resident executor's pool stats.
fn cmd_predict_stream(
    ds: &Dataset,
    model: &QppNet,
    window: usize,
    threads: usize,
    shards: usize,
    burst: usize,
    repeat: usize,
) -> Result<(), String> {
    let mut stream = model.serve_sharded(shards);
    let mut front = qpp::net::MicroBatcher::new();
    let mut resident = std::collections::VecDeque::new();
    let mut per_pass = Vec::with_capacity(repeat);
    let mut first_pass_preds = Vec::new();
    for pass in 0..repeat {
        let start = std::time::Instant::now();
        for chunk in ds.plans.chunks(burst) {
            for plan in chunk {
                front.submit(&plan.root);
            }
            let (ids, preds) = front.flush_resident(&mut stream, threads);
            if pass == 0 {
                // Collected and printed after the stopwatch — stdout must
                // not skew the per-arrival timing this mode exists to
                // report.
                first_pass_preds.extend(preds);
            }
            resident.extend(ids);
            while window > 0 && resident.len() > window {
                stream.retire(resident.pop_front().expect("window non-empty"));
            }
        }
        per_pass.push(start.elapsed().as_secs_f64());
        if pass == 0 {
            for (plan, pred) in ds.plans.iter().zip(first_pass_preds.drain(..)) {
                println!(
                    "{} q{} #{}: predicted {:.2}s actual {:.2}s",
                    plan.workload.name(),
                    plan.template_id,
                    plan.query_id,
                    pred / 1000.0,
                    plan.latency_ms() / 1000.0
                );
            }
        }
        if pass + 1 < repeat {
            // Drain the window so every pass replays the same arrivals
            // (the feature caches deliberately persist).
            while let Some(id) = resident.pop_front() {
                stream.retire(id);
            }
        }
    }
    let mean = per_pass.iter().sum::<f64>() / per_pass.len() as f64;
    eprintln!(
        "stream ({} thread{}, {} shard{}, burst {}, window {}): {} arrivals in {:.2} ms \
         -> {:.0} admissions/s{}",
        threads,
        if threads == 1 { "" } else { "s" },
        shards,
        if shards == 1 { "" } else { "s" },
        burst,
        window,
        ds.plans.len(),
        mean * 1e3,
        ds.plans.len() as f64 / mean,
        if repeat > 1 { format!(" (mean over {repeat} passes)") } else { String::new() }
    );
    for (i, st) in stream.shard_stats().iter().enumerate() {
        eprintln!("shard {i}: {st}");
    }
    eprintln!("aggregate: {}", stream.stats());
    eprintln!("micro-batch: {}", front.stats());
    eprintln!("executor pool: {}", qpp::nn::Executor::global().stats());
    Ok(())
}

fn cmd_importance(flags: &HashMap<String, String>) -> Result<(), String> {
    let ds = load_dataset(flags)?;
    let model = load_model(flags)?;
    let seed: u64 = parse(get_or(flags, "seed", "42"), "seed")?;
    let top: usize = parse(get_or(flags, "top", "15"), "top count")?;
    let split = ds.paper_split(seed);
    let test = ds.select(&split.test);
    if test.is_empty() {
        return Err("empty test split".into());
    }
    let imp = permutation_importance(&model, &test, seed);
    println!("{:<12} {:<36} {:>12}", "operator", "feature", "dMAE (ms)");
    for f in imp.iter().take(top) {
        println!("{:<12} {:<36} {:>12.2}", format!("{:?}", f.kind), f.label, f.delta_mae_ms);
    }
    Ok(())
}

fn cmd_explain(flags: &HashMap<String, String>) -> Result<(), String> {
    let ds = load_dataset(flags)?;
    let q: usize = parse(get(flags, "query")?, "query index")?;
    let plan = ds.plans.get(q).ok_or_else(|| format!("query {q} out of range"))?;
    println!("template:  {} q{} (query #{})", plan.workload.name(), plan.template_id, plan.query_id);
    println!("signature: {}", plan.signature());
    println!("{}", plan.explain());
    Ok(())
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    use qpp::net::serve::{ServeAddr, ServeConfig, Server};

    let addr = ServeAddr::parse(get_or(flags, "addr", "127.0.0.1:7878"))?;
    let cfg = ServeConfig {
        shards: parse(get_or(flags, "shards", "1"), "shard count")?,
        threads: parse(get_or(flags, "threads", "1"), "thread count")?,
        ..ServeConfig::default()
    };
    if cfg.shards == 0 || cfg.threads == 0 {
        return Err("--shards/--threads must be >= 1".into());
    }

    // One or more fitted model snapshots; the first is the default
    // tenant, the rest are addressable by fingerprint. Each keeps how
    // its checkpoint loaded (bytes, read and parse times) for the log.
    let mut models = Vec::new();
    for path in get(flags, "model")?.split(',') {
        let t0 = std::time::Instant::now();
        let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let t1 = std::time::Instant::now();
        let model = QppNet::from_json(&json).map_err(|e| format!("parsing {path}: {e}"))?;
        let load = (json.len(), t1 - t0, t1.elapsed());
        if !model.is_fitted() {
            return Err(format!("{path}: model is not fitted"));
        }
        models.push((path.to_string(), model, load));
    }

    let mut server =
        Server::bind(&addr, cfg.clone()).map_err(|e| format!("binding {addr}: {e}"))?;
    for (path, model, (bytes, read, parse)) in &models {
        let fp = server.register(model);
        println!(
            "tenant {fp:016x} <- {path} ({:.1} MB checkpoint, read {:.0} ms, parse {:.0} ms)",
            *bytes as f64 / 1e6,
            read.as_secs_f64() * 1e3,
            parse.as_secs_f64() * 1e3
        );
    }
    println!(
        "qpp serve: listening on {} ({} shards, {} threads)",
        server.local_addr(),
        cfg.shards,
        cfg.threads
    );
    println!(
        "kernel tier: {}; one path per verb: one-shot admit_predict takes the \
         zero-allocation fast path, anything else the general decoder; \
         whole-plan prediction memo on every admit_predict; predict by id \
         runs only the rows admitted since the last run",
        qpp::nn::KernelTier::current()
    );
    println!("protocol: one JSON object per line; send {{\"v\":1,\"op\":\"shutdown\"}} to stop");
    server.run().map_err(|e| format!("serve loop failed: {e}"))
}

/// Connects to a running daemon, fetches the `stats` verb, and renders
/// the counters — including the fast path's per-phase latency breakdown
/// and the steady-state allocation counter.
fn cmd_serve_stats(flags: &HashMap<String, String>) -> Result<(), String> {
    use qpp::net::serve::{Client, ServeAddr};

    let addr = ServeAddr::parse(get_or(flags, "addr", "127.0.0.1:7878"))?;
    let mut client = Client::connect(&addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    client
        .set_timeout(Some(std::time::Duration::from_secs(10)))
        .map_err(|e| format!("timeout: {e}"))?;
    let s = client.stats().map_err(|e| format!("stats request failed: {e}"))?;

    println!("server:   {} connections, {} requests, {} errors", s.connections, s.requests, s.errors);
    println!(
        "plans:    {} admitted, {} retired, {} predicted ({} general-path admit_predicts)",
        s.admitted, s.retired, s.predicted, s.batches
    );
    println!(
        "resident: {} tenants, {} plans, {} logical nodes, {} shared rows",
        s.tenants, s.resident_plans, s.logical_nodes, s.shared_rows
    );
    println!("fast path: {} one-shot predicts served", s.fast_path_predicted);
    if s.fast_path_predicted > 0 {
        let per = |ns: u64| ns as f64 / s.fast_path_predicted as f64 / 1_000.0;
        println!(
            "  per-request: parse {:.1}us, featurize {:.1}us, run {:.1}us, serialize {:.1}us",
            per(s.parse_ns),
            per(s.featurize_ns),
            per(s.run_ns),
            per(s.serialize_ns)
        );
        println!("  steady-state allocations: {}", s.steady_allocs);
    }
    let probes = s.cache_hits + s.cache_misses;
    println!(
        "cache:    {} hits / {} misses ({:.0}% hit), {} entries, {} evicted",
        s.cache_hits,
        s.cache_misses,
        if probes == 0 { 0.0 } else { s.cache_hits as f64 / probes as f64 * 100.0 },
        s.cache_entries,
        s.cache_evictions
    );
    if s.cache_hits > 0 {
        println!(
            "  per-hit probe: {:.1}us",
            s.cache_hit_ns as f64 / s.cache_hits as f64 / 1_000.0
        );
    }
    Ok(())
}
