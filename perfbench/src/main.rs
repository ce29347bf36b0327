//! `perfbench`: the repository's benchmark, one command for the whole
//! engine.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_skewed --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. A run generates its inputs from the
//! seed, trains the paper-tier model (timing training and batch scoring
//! and checking held-out accuracy), writes the model as a checkpoint,
//! starts the serving daemon on it in a child process three times (the
//! median start is `setup_s`), then drives the last one with the
//! workload's open-loop traffic, checking every reply byte for byte.
//! The last line of standard output is the result: every end-to-end
//! metric with `--trace 0`, every per-layer metric with `--trace 1`.
//! `perfbench/README.md` says why each workload exists and which metrics
//! each layer should move.

mod daemon;
mod loadgen;
mod metrics;
mod replay;
mod schedule;
mod serving;
mod sys;
mod trace;
mod train;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use daemon::Daemon;
use metrics::{Kind, Values};
use trace::Tracer;
use workload::Workload;

/// Daemon starts per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Where runs leave their result files and spans, relative to the
/// repository root.
const OUT_DIR: &str = "perfbench/out";

const USAGE: &str = "usage: perfbench --workload <serve_skewed|serve_unique|serve_resident> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| *s > 0.0)
                            .ok_or_else(bad)?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Deletes the checkpoint however the run ends.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn run(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir)?;
    let name = opts.workload.name();
    let provenance = sys::provenance_json();
    println!(
        "perfbench {name} seed {} seconds {} trace {}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!("provenance {provenance}");
    let tracer = opts.trace.then(Tracer::default);
    let mut values = Values::default();
    let mut speed = sys::HostSpeed::default();
    speed.sample(3);

    let data = workload::generate(opts.seed);
    let mut trained = train::run(&data, opts.seed, &mut values, tracer.as_ref());
    println!(
        "train: {} plans x {} epochs in {:.2}s; held-out {} plans: median rel err {:.1}%, R<=1.5 share {:.3}",
        data.train.plans.len(),
        train::EPOCHS,
        trained.history.total_seconds(),
        trained.attempted,
        values.get("median_rel_err_pct").unwrap_or(0.0),
        values.get("r15_share").unwrap_or(0.0),
    );

    let checkpoint = RemoveOnDrop(out_dir.join(format!("model-{}.json", std::process::id())));
    std::fs::write(&checkpoint.0, trained.model.to_json())?;
    let templates: Vec<_> = data.train.plans.iter().map(|p| p.root.clone()).collect();
    let traffic = match opts.workload {
        Workload::Skewed => workload::skewed(
            &templates,
            &workload::expected(&trained.model, templates.clone()),
        ),
        Workload::Unique => workload::unique(&trained.model, &templates, opts.seed),
        Workload::Resident => workload::resident(
            &templates,
            &workload::expected(&trained.model, templates.clone()),
        ),
    };

    let mut setups = Vec::with_capacity(SETUPS);
    let mut daemon = None;
    for i in 0..SETUPS {
        speed.sample(1);
        let (d, took) = Daemon::start(&checkpoint.0)?;
        setups.push(took.as_secs_f64());
        if i + 1 < SETUPS {
            d.stop()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("the last daemon is kept");
    setups.sort_by(f64::total_cmp);
    values.set("setup_s", setups[SETUPS / 2]);
    println!("setup: daemon ready in {setups:.3?} s");

    let mut between = || {
        trained.score(&data, 5);
        speed.sample(4);
    };
    let served = serving::run(
        opts.workload,
        &traffic,
        &daemon,
        opts.seed,
        opts.seconds,
        &mut values,
        tracer.as_ref(),
        &mut between,
    )?;
    daemon.stop()?;
    trained.finish(&data, opts.seed, &mut values);
    speed.sample(3);
    let slowdown = speed.slowdown();
    values.set("host.slowdown", slowdown);
    for (name, per_second) in [
        ("p50_light_us", false),
        ("p50_heavy_us", false),
        ("server_cpu_us_per_req", false),
        ("serve.p99_light_us", false),
        ("serve.p99_heavy_us", false),
        ("train_plans_per_s", true),
        ("predict_plans_per_s", true),
        ("serve.max_rate_hz", true),
    ] {
        if let Some(v) = values.get(name) {
            values.set(
                name,
                if per_second {
                    v * slowdown
                } else {
                    v / slowdown
                },
            );
        }
    }
    println!(
        "host slowdown {slowdown:.3}; normalized: train {:.0} plans/s over both fits' steady epochs, \
         held-out scoring {:.0} plans/s over {} scorings",
        values.get("train_plans_per_s").unwrap_or(0.0),
        values.get("predict_plans_per_s").unwrap_or(0.0),
        trained.score_s.len(),
    );

    if let Some(tracer) = &tracer {
        replay::run(
            opts.workload,
            &traffic,
            &data,
            &trained,
            opts.seed,
            tracer,
            &mut values,
        );
        tracer.write_tsv(&out_dir.join(format!("spans-{name}.tsv")))?;
    }

    let attempted = served.attempted + trained.attempted;
    let failed = served.failed + trained.failed;
    values.set("ok_share", 1.0 - failed as f64 / attempted as f64);
    let correct = served.correct && trained.failed == 0;
    let kind = if opts.trace {
        Kind::PerLayer
    } else {
        Kind::EndToEnd
    };
    let line = values.result_line(kind, correct, attempted, failed);
    std::fs::write(
        out_dir.join(format!("result-{name}-seed{}-trace{}.json", opts.seed, u8::from(opts.trace))),
        format!(
            "{{\"workload\": \"{name}\", \"seed\": {}, \"seconds\": {}, \"provenance\": {provenance}, \"result\": {line}}}\n",
            opts.seed, opts.seconds
        ),
    )?;
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("daemon") {
        let Some(model) = args.iter().skip_while(|a| *a != "--model").nth(1) else {
            eprintln!("usage: perfbench daemon --model <checkpoint.json>");
            return ExitCode::from(2);
        };
        return match daemon::child_main(model) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench daemon: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn options_parse_the_benchmark_command_line() {
        let o = Options::parse(&args(
            "--workload serve_unique --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Workload::Unique, 7, 10.0, true)
        );
        assert!(Options::parse(&args("--workload nope --seed 7 --seconds 10 --trace 1")).is_err());
        assert!(Options::parse(&args("--workload serve_unique --seed 7 --seconds 10")).is_err());
        assert!(Options::parse(&args(
            "--workload serve_unique --seed 7 --seconds 0 --trace 0"
        ))
        .is_err());
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let doc =
            serde_json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let Some(serde_json::Value::Array(list)) = doc.as_object().and_then(|m| m.get("workloads"))
        else {
            panic!("BENCHMARK.json has no workload list");
        };
        let names: Vec<&str> = list
            .iter()
            .map(|w| w.as_object().unwrap()["name"].as_str().unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }
}
