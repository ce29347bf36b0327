//! The serving phase: open-loop legs against the daemon child at the
//! workload's fixed light and heavy rates and, in a traced run, the
//! search for the highest rate that keeps p99 within 2 ms.

use std::io;

use qppnet::serve::ServeStats;

use crate::daemon::Daemon;
use crate::loadgen::{
    probe_holds, quantile, run_leg, search_max_rate, Conn, Latency, LegOutcome, WINDOW_SAMPLES,
};
use crate::metrics::Values;
use crate::schedule::{arrivals, deal, resident_script, skewed_draws, Op, Slot};
use crate::sys;
use crate::trace::Tracer;
use crate::workload::{Traffic, Workload, TEMPLATES, UNIQUE_POOL, ZIPF_S};

/// Share of `--seconds` each fixed-rate leg runs in total: untraced, and
/// traced (where an untraced light leg and the max-rate search ride
/// along).
const LEG_SHARE: f64 = 0.4;
const TRACED_LEG_SHARE: f64 = 0.2;
/// Rounds the fixed-rate legs are split into. Each round runs a slice of
/// the light leg and then a slice of the heavy leg, so both sample the
/// whole phase and a slow stretch of the shared host does not fall on
/// one leg alone.
const ROUNDS: usize = 6;
/// Share of `--seconds` each max-rate probe runs (at most ten probes,
/// and a probe that falls hopelessly behind stops early).
const PROBE_SHARE: f64 = 1.0 / 12.0;
/// A probe stops once a reply comes back this late: far past what a host
/// stall alone causes.
const PROBE_ABORT_NS: u64 = 200_000_000;
/// Least samples per window of a probe: the probe holds when its median
/// window does, so a stalled window (the host preempting a vCPU) does
/// not decide the search.
const PROBE_WINDOW_SAMPLES: usize = 500;

/// Builds each leg's per-connection scripts from the seed.
struct Planner {
    workload: Workload,
    seed: u64,
    leg: u64,
    /// Next `serve_unique` pool entry: the pool is walked in order across
    /// legs, so no plan repeats before the memo has forgotten it.
    cursor: usize,
}

impl Planner {
    fn scripts(&mut self, rate: f64, n: usize) -> Vec<Vec<Slot>> {
        let n = n.max(2);
        let dues = arrivals(rate, n);
        self.leg += 1;
        match self.workload {
            Workload::Skewed => {
                let ops: Vec<Op> = skewed_draws(self.seed, self.leg, n, TEMPLATES, ZIPF_S)
                    .into_iter()
                    .map(Op::OneShot)
                    .collect();
                deal(&dues, &ops, 2)
            }
            Workload::Unique => {
                let ops: Vec<Op> = (0..n)
                    .map(|i| Op::OneShot(((self.cursor + i) % UNIQUE_POOL) as u32))
                    .collect();
                self.cursor += n;
                deal(&dues, &ops, 2)
            }
            Workload::Resident => (0..2)
                .map(|c| {
                    let mine: Vec<u64> = dues.iter().copied().skip(c).step_by(2).collect();
                    let ops =
                        resident_script(self.seed, self.leg, c, mine.len(), TEMPLATES, ZIPF_S);
                    mine.into_iter().zip(ops).collect()
                })
                .collect(),
        }
    }

    /// The warm-up: every template once (a pool stretch for
    /// `serve_unique`, sessions for `serve_resident`).
    fn warm_scripts(&mut self, rate: f64) -> Vec<Vec<Slot>> {
        match self.workload {
            Workload::Skewed => {
                let ops: Vec<Op> = (0..TEMPLATES as u32).map(Op::OneShot).collect();
                deal(&arrivals(rate, ops.len()), &ops, 2)
            }
            _ => self.scripts(rate, TEMPLATES),
        }
    }
}

fn delta(a: &ServeStats, b: &ServeStats) -> ServeStats {
    ServeStats {
        requests: b.requests - a.requests,
        errors: b.errors - a.errors,
        batches: b.batches - a.batches,
        fast_path_predicted: b.fast_path_predicted - a.fast_path_predicted,
        parse_ns: b.parse_ns - a.parse_ns,
        featurize_ns: b.featurize_ns - a.featurize_ns,
        run_ns: b.run_ns - a.run_ns,
        serialize_ns: b.serialize_ns - a.serialize_ns,
        steady_allocs: b.steady_allocs - a.steady_allocs,
        cache_hits: b.cache_hits - a.cache_hits,
        cache_misses: b.cache_misses - a.cache_misses,
        cache_evictions: b.cache_evictions - a.cache_evictions,
        cache_hit_ns: b.cache_hit_ns - a.cache_hit_ns,
        ..*b
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What the phase found, for the result line.
pub struct Served {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

/// Counts wrong and error replies over every leg of the phase.
#[derive(Default)]
struct Checks {
    wrong: u64,
    errors: u64,
}

impl Checks {
    fn note(&mut self, name: &str, o: &LegOutcome) {
        self.wrong += o.wrong;
        self.errors += o.errors;
        if let Some(m) = &o.mismatch {
            println!("  {name}: first bad reply: {}", m.trim_end());
        }
    }
}

fn log_leg(name: &str, rate: f64, o: &LegOutcome, lat: &Latency) {
    let mut late = o.late_ns.clone();
    late.sort_unstable();
    let mut p99s: Vec<u64> = lat.window_p99_ns.iter().map(|&(_, p)| p).collect();
    p99s.sort_unstable();
    println!(
        "  {name:<6} {rate:>7.0}/s: sent {} ok {} err {} wrong {} timeout {} unsent {}{} | p50 {:.1}us over {} samples; \
         p99 {:.1}us = median of {} window p99s (min {:.1}us, max {:.1}us, {} samples/window) | late p99 {:.1}us",
        o.sent,
        o.ok,
        o.errors,
        o.wrong,
        o.timeouts,
        o.unsent,
        if o.aborted { " (aborted)" } else { "" },
        lat.p50_ns as f64 / 1e3,
        lat.count,
        lat.p99_ns as f64 / 1e3,
        p99s.len(),
        p99s.first().copied().unwrap_or(0) as f64 / 1e3,
        p99s.last().copied().unwrap_or(0) as f64 / 1e3,
        lat.window_p99_ns.first().map_or(0, |&(n, _)| n),
        quantile(&late, 0.99) as f64 / 1e3,
    );
}

fn reconnect(conns: &mut [Conn], addr: &str) -> io::Result<()> {
    for c in conns.iter_mut().filter(|c| c.broken) {
        *c = Conn::connect(addr)?;
    }
    Ok(())
}

/// One fixed-rate leg gathered over the rounds.
#[derive(Default)]
struct Gathered {
    outcome: LegOutcome,
    parts: Vec<Vec<(u64, u64)>>,
}

impl Gathered {
    fn add(&mut self, mut o: LegOutcome) {
        self.parts.push(std::mem::take(&mut o.samples));
        self.outcome.merge(o);
    }

    fn latency(&self) -> Latency {
        Latency::of(
            &self.parts.iter().map(Vec::as_slice).collect::<Vec<_>>(),
            WINDOW_SAMPLES,
        )
    }
}

fn phase_ns(d: &ServeStats) -> u64 {
    d.parse_ns + d.featurize_ns + d.run_ns + d.serialize_ns + d.cache_hit_ns
}

/// Runs the serving phase against `daemon` and records its metrics.
/// `between` runs in this process while the daemon idles: once before
/// each round and once after the search.
#[allow(clippy::too_many_arguments)]
pub fn run(
    workload: Workload,
    traffic: &Traffic,
    daemon: &Daemon,
    seed: u64,
    seconds: f64,
    values: &mut Values,
    tracer: Option<&Tracer>,
    between: &mut dyn FnMut(),
) -> io::Result<Served> {
    let (light_hz, heavy_hz) = workload.rates();
    let mut planner = Planner {
        workload,
        seed,
        leg: 0,
        cursor: 0,
    };
    let mut conns = [Conn::connect(&daemon.addr)?, Conn::connect(&daemon.addr)?];
    let mut checks = Checks::default();
    let share = if tracer.is_some() {
        TRACED_LEG_SHARE
    } else {
        LEG_SHARE
    };
    let sub_n = |rate: f64| (rate * seconds * share / ROUNDS as f64).round() as usize;

    let s_start = conns[0].stats()?;
    let warm = run_leg(
        &mut conns,
        traffic,
        &planner.warm_scripts(light_hz),
        None,
        None,
    );
    checks.note("warm", &warm);
    reconnect(&mut conns, &daemon.addr)?;

    let (mut plain, mut light, mut heavy) = (
        Gathered::default(),
        Gathered::default(),
        Gathered::default(),
    );
    let (mut light_phase_ns, mut heavy_cpu_ns) = (0u64, 0u64);
    let s0 = conns[0].stats()?;
    for _ in 0..ROUNDS {
        between();
        if tracer.is_some() {
            plain.add(run_leg(
                &mut conns,
                traffic,
                &planner.scripts(light_hz, sub_n(light_hz)),
                None,
                None,
            ));
            reconnect(&mut conns, &daemon.addr)?;
        }
        let a = conns[0].stats()?;
        light.add(run_leg(
            &mut conns,
            traffic,
            &planner.scripts(light_hz, sub_n(light_hz)),
            None,
            tracer,
        ));
        reconnect(&mut conns, &daemon.addr)?;
        light_phase_ns += phase_ns(&delta(&a, &conns[0].stats()?));
        let cpu0 = sys::process_cpu_ns(daemon.pid());
        heavy.add(run_leg(
            &mut conns,
            traffic,
            &planner.scripts(heavy_hz, sub_n(heavy_hz)),
            None,
            tracer,
        ));
        heavy_cpu_ns += sys::process_cpu_ns(daemon.pid()) - cpu0;
        reconnect(&mut conns, &daemon.addr)?;
    }
    let s2 = conns[0].stats()?;
    let (light_lat, heavy_lat) = (light.latency(), heavy.latency());
    for (name, rate, g, lat) in [
        ("light", light_hz, &light, &light_lat),
        ("heavy", heavy_hz, &heavy, &heavy_lat),
    ] {
        log_leg(name, rate, &g.outcome, lat);
        checks.note(name, &g.outcome);
    }
    // The knee is reported by the traced run only: its spread on the
    // shared host is too wide for an end-to-end bound.
    if tracer.is_some() {
        checks.note("plain", &plain.outcome);
        log_leg("plain", light_hz, &plain.outcome, &plain.latency());
        let mut probe_error = None;
        let max_rate = search_max_rate(heavy_hz, |rate| {
            let n = (rate * seconds * PROBE_SHARE).round() as usize;
            let o = run_leg(
                &mut conns,
                traffic,
                &planner.scripts(rate, n),
                Some(PROBE_ABORT_NS),
                tracer,
            );
            let lat = Latency::of(&[&o.samples], PROBE_WINDOW_SAMPLES);
            log_leg("probe", rate, &o, &lat);
            checks.note("probe", &o);
            if let Err(e) = reconnect(&mut conns, &daemon.addr) {
                probe_error.get_or_insert(e);
            }
            probe_holds(&o, &lat)
        });
        if let Some(e) = probe_error {
            return Err(e);
        }
        println!("  max rate {max_rate:.0}/s");
        values.set("serve.max_rate_hz", max_rate);
    }
    let s_end = conns[0].stats()?;
    between();

    let (light, heavy) = (&light.outcome, &heavy.outcome);
    let d = delta(&s0, &s2);
    let sent = light.sent + heavy.sent + plain.outcome.sent;
    values.set("p50_light_us", light_lat.p50_ns as f64 / 1e3);
    values.set("serve.p99_light_us", light_lat.p99_ns as f64 / 1e3);
    values.set("p50_heavy_us", heavy_lat.p50_ns as f64 / 1e3);
    values.set("serve.p99_heavy_us", heavy_lat.p99_ns as f64 / 1e3);
    values.set("server_cpu_us_per_req", ratio(heavy_cpu_ns, heavy.ok) / 1e3);
    values.set("rss_mb", sys::peak_rss_mb(daemon.pid()));

    let mut late: Vec<u64> = light
        .late_ns
        .iter()
        .chain(&heavy.late_ns)
        .copied()
        .collect();
    late.sort_unstable();
    values.set("loadgen.late_p99_us", quantile(&late, 0.99) as f64 / 1e3);
    values.set(
        "loadgen.cpu_us_per_req",
        ratio(
            light.client_cpu_ns + heavy.client_cpu_ns,
            light.sent + heavy.sent,
        ) / 1e3,
    );
    values.set("loadgen.sent", (light.sent + heavy.sent) as f64);
    values.set("serve.fast_path_share", ratio(d.fast_path_predicted, sent));
    values.set(
        "serve.parse_ns_per_req",
        ratio(d.parse_ns, d.fast_path_predicted),
    );
    values.set(
        "serve.serialize_ns_per_req",
        ratio(d.serialize_ns, d.fast_path_predicted),
    );
    values.set(
        "serve.steady_allocs_per_req",
        ratio(d.steady_allocs, d.fast_path_predicted),
    );
    values.set(
        "serve.unattributed_us",
        (light_lat.p50_ns as f64 - ratio(light_phase_ns, light.sent)) / 1e3,
    );
    let probes = d.cache_hits + d.cache_misses;
    values.set("stream.memo_probes", probes as f64);
    values.set("stream.memo_hit_share", ratio(d.cache_hits, probes));
    values.set("stream.memo_hit_ns", ratio(d.cache_hit_ns, d.cache_hits));
    values.set("stream.memo_entries", s2.cache_entries as f64);
    values.set("stream.memo_evictions", d.cache_evictions as f64);
    values.set(
        "stream.featurize_ns_per_miss",
        ratio(d.featurize_ns, d.cache_misses),
    );
    values.set("stream.run_ns_per_miss", ratio(d.run_ns, d.cache_misses));
    values.set("stream.batches", d.batches as f64);
    values.set("stream.resident_plans_end", s_end.resident_plans as f64);
    if tracer.is_some() {
        let reference = plain.latency().p50_ns as f64;
        values.set(
            "trace.overhead_pct",
            100.0 * (light_lat.p50_ns as f64 / reference - 1.0),
        );
    }

    let daemon_errors = s_end.errors - s_start.errors;
    let mut correct = checks.wrong == 0 && checks.errors == 0 && daemon_errors == 0;
    if s_end.resident_plans != 0 {
        println!(
            "  the daemon still holds {} resident plans",
            s_end.resident_plans
        );
        correct = false;
    }
    println!(
        "  server: {} errors; memo {:.4} hit share over {probes} probes; fast path {:.4} of {sent} requests",
        daemon_errors,
        ratio(d.cache_hits, probes),
        ratio(d.fast_path_predicted, sent),
    );
    Ok(Served {
        attempted: light.scheduled + heavy.scheduled,
        failed: light.failed() + heavy.failed(),
        correct,
    })
}
