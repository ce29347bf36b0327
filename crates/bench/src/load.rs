//! Load generation against a running `qpp serve` daemon: open-loop
//! fixed-rate and closed-loop drivers, Zipfian template skew, drop
//! accounting at saturation, and HDR-style fixed-bucket latency
//! histograms — all with zero dependencies beyond the vendored stubs.
//!
//! Design points:
//!
//! * **Deterministic schedules.** The request schedule — which template
//!   fires at which nanosecond offset — is a pure function of
//!   `(seed, rate, request count, template count, skew)`
//!   ([`schedule`]), so a run is replayable and the determinism test can
//!   assert byte-equality across invocations. Wall-clock only enters
//!   when the schedule meets a socket.
//! * **Open loop measures what users feel.** Latency is measured from
//!   the request's *scheduled* arrival, not from when the client finally
//!   got around to sending it — so queueing delay under saturation shows
//!   up in the percentiles instead of being silently hidden (the
//!   coordinated-omission trap). A request more than `timeout` behind
//!   schedule is **dropped** (counted, never sent), modeling a shedding
//!   client.
//! * **Mergeable histograms.** [`Histogram`] is a log-linear fixed-size
//!   bucket array (16 sub-buckets per power of two, ≤ 1/16 relative
//!   error, values up to `u64::MAX` ns). Merging adds bucket counts, so
//!   it is associative and commutative — per-connection histograms merge
//!   into one report in any order (property-tested).

use std::time::{Duration, Instant};

use qpp_plansim::plan::PlanNode;
use qppnet::serve::{Client, ClientError, ServeAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

// --- histogram -------------------------------------------------------------

/// Sub-buckets per power of two: 2^4 = 16 (≤ 1/16 relative error).
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// 16 exact low buckets + 16 sub-buckets for each exponent 4..=63.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// HDR-style log-linear latency histogram over `u64` nanosecond values.
///
/// Fixed 976-bucket layout: values below 16 are exact; above, each
/// power-of-two range splits into 16 linear sub-buckets, so any recorded
/// value is reproduced to within 1/16 relative error. Bucket counts are
/// plain `u64`s and [`Histogram::merge`] adds them elementwise, making
/// merge order-independent by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram { counts: vec![0; BUCKETS], total: 0, max: 0 }
    }

    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            v as usize
        } else {
            let b = 63 - v.leading_zeros(); // 2^b <= v, b >= 4
            let sub = (v >> (b - SUB_BITS)) as usize - SUB;
            SUB + (b - SUB_BITS) as usize * SUB + sub
        }
    }

    /// The largest value mapping to bucket `idx` (the reported
    /// representative, so quantiles are conservative).
    fn value_at(idx: usize) -> u64 {
        if idx < SUB {
            idx as u64
        } else {
            let rel = idx - SUB;
            let sub = (rel % SUB) as u64;
            let scale = (rel / SUB) as u32;
            ((SUB as u64 + sub) << scale) + ((1u64 << scale) - 1)
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
    }

    /// Recorded value count.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Largest recorded value (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` in `[0, 1]` (bucket upper bound,
    /// clamped to the exact recorded max). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::value_at(idx).min(self.max);
            }
        }
        self.max
    }

    /// Adds `other`'s counts into `self`. Elementwise addition —
    /// commutative and associative, so any merge tree yields the same
    /// histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }
}

// --- workload --------------------------------------------------------------

/// Zipfian sampler over `n` ranks with exponent `s` (rank 0 hottest).
///
/// Precomputes the CDF once; sampling is one uniform draw plus a binary
/// search, fully determined by the caller's RNG.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over ranks `0..n` with skew `s` (`0.0` = uniform;
    /// `0.99` is the classic YCSB default).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over zero ranks");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let norm = acc;
        for c in &mut cdf {
            *c /= norm;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Driving mode for [`run_load`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// Open loop: requests fire at a fixed rate regardless of replies
    /// (arrival times are scheduled up front; late ⇒ queueing latency,
    /// very late ⇒ drop).
    Open {
        /// Target aggregate request rate (requests/second).
        rate_hz: f64,
    },
    /// Closed loop: each connection keeps exactly one request in flight
    /// (throughput = what the server sustains).
    Closed,
}

/// One scheduled request: nanosecond offset from run start (0 in closed
/// loop) and the template rank to send.
pub type ScheduledReq = (u64, usize);

/// The full deterministic request schedule for a run: template ranks
/// drawn Zipf(`s`)-skewed from `seed`, arrival offsets spaced exactly
/// `1e9 / rate_hz` nanoseconds apart in open loop (all zero in closed
/// loop). Identical inputs yield an identical schedule — this is the
/// replayability contract the determinism test pins.
pub fn schedule(
    mode: LoadMode,
    requests: usize,
    templates: usize,
    zipf_s: f64,
    seed: u64,
) -> Vec<ScheduledReq> {
    let zipf = Zipf::new(templates, zipf_s);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_10AD);
    (0..requests)
        .map(|i| {
            let at_ns = match mode {
                LoadMode::Open { rate_hz } => (i as f64 * 1e9 / rate_hz) as u64,
                LoadMode::Closed => 0,
            };
            (at_ns, zipf.sample(&mut rng))
        })
        .collect()
}

/// Parameters for one load run against a live daemon.
#[derive(Debug, Clone)]
pub struct LoadSpec<'a> {
    /// Daemon endpoint.
    pub addr: ServeAddr,
    /// Plan templates; requests draw from these Zipf-skewed by rank.
    pub templates: &'a [PlanNode],
    /// Open- or closed-loop driving.
    pub mode: LoadMode,
    /// Client connections (each gets its own socket + thread).
    pub connections: usize,
    /// Total requests across all connections.
    pub requests: usize,
    /// Zipf skew over templates (0 = uniform, 0.99 = YCSB default).
    pub zipf_s: f64,
    /// Schedule + sampling seed.
    pub seed: u64,
    /// Per-request reply timeout; in open loop also the shed bound (a
    /// request this far behind schedule is dropped unsent).
    pub timeout: Duration,
    /// Adversarial all-distinct mode: every request perturbs its
    /// template's root estimate by the (globally unique) schedule index,
    /// so no two plans in the run share a whole-plan key — the server's
    /// prediction memo can never hit. Measures the memo's probe+insert
    /// overhead with the skew defeated.
    pub unique: bool,
}

/// Outcome of one [`run_load`] call.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Latency histogram over completed requests (nanoseconds).
    pub hist: Histogram,
    /// Requests actually written to a socket.
    pub sent: u64,
    /// Requests that got a successful reply.
    pub completed: u64,
    /// Requests shed (behind schedule) or timed out awaiting a reply.
    pub dropped: u64,
    /// Structured server errors + transport failures.
    pub errors: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Requests per template rank (shows the realized skew).
    pub template_counts: Vec<u64>,
}

impl LoadReport {
    /// Completed requests per second of wall clock.
    pub fn achieved_rate_hz(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.completed as f64 / secs
        } else {
            0.0
        }
    }

    /// Quantile in microseconds (convenience for tables/artifacts).
    pub fn quantile_us(&self, q: f64) -> u64 {
        self.hist.quantile(q) / 1_000
    }
}

struct WorkerResult {
    hist: Histogram,
    sent: u64,
    completed: u64,
    dropped: u64,
    errors: u64,
}

/// Drives the daemon at `spec` and reports latency/drop accounting.
///
/// The schedule is computed once ([`schedule`]) and partitioned
/// round-robin across connections; each connection thread sends
/// one-shot `admit_predict` requests (`keep=false`) over its own
/// blocking [`Client`]. In open loop, latency is measured from the
/// scheduled arrival (coordinated-omission-safe); a reply timeout
/// counts as a drop and the connection reopens.
pub fn run_load(spec: &LoadSpec<'_>) -> LoadReport {
    assert!(!spec.templates.is_empty(), "no templates to drive");
    assert!(spec.connections > 0, "need at least one connection");
    let sched = schedule(spec.mode, spec.requests, spec.templates.len(), spec.zipf_s, spec.seed);
    let mut template_counts = vec![0u64; spec.templates.len()];
    for &(_, t) in &sched {
        template_counts[t] += 1;
    }

    let started = Instant::now();
    let results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.connections)
            .map(|c| {
                let sched = &sched;
                scope.spawn(move || drive_connection(spec, sched, c, started))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load worker panicked")).collect()
    });
    let elapsed = started.elapsed();

    let mut report = LoadReport {
        hist: Histogram::new(),
        sent: 0,
        completed: 0,
        dropped: 0,
        errors: 0,
        elapsed,
        template_counts,
    };
    for r in &results {
        report.hist.merge(&r.hist);
        report.sent += r.sent;
        report.completed += r.completed;
        report.dropped += r.dropped;
        report.errors += r.errors;
    }
    report
}

fn drive_connection(
    spec: &LoadSpec<'_>,
    sched: &[ScheduledReq],
    conn_idx: usize,
    started: Instant,
) -> WorkerResult {
    let mut out =
        WorkerResult { hist: Histogram::new(), sent: 0, completed: 0, dropped: 0, errors: 0 };
    let mut client = match connect(spec) {
        Some(c) => c,
        None => {
            out.errors += sched.len().div_ceil(spec.connections) as u64;
            return out;
        }
    };
    for (i, &(at_ns, template)) in sched.iter().enumerate() {
        if i % spec.connections != conn_idx {
            continue;
        }
        let at = Duration::from_nanos(at_ns);
        if let LoadMode::Open { .. } = spec.mode {
            let now = started.elapsed();
            if now < at {
                std::thread::sleep(at - now);
            } else if now > at + spec.timeout {
                // Hopelessly behind schedule: shed without sending.
                out.dropped += 1;
                continue;
            }
        }
        let t0 = match spec.mode {
            // Open loop: clock from the *scheduled* arrival so queueing
            // delay lands in the histogram.
            LoadMode::Open { .. } => at,
            LoadMode::Closed => started.elapsed(),
        };
        out.sent += 1;
        let plan_storage;
        let plan = if spec.unique {
            // All-distinct plans: bump the root's estimated cardinality
            // by this request's schedule index (unique across
            // connections), which lands in the node content key and so
            // defeats any exact-match reuse downstream.
            let mut p = spec.templates[template].clone();
            p.est.rows += (i + 1) as f64;
            plan_storage = p;
            &plan_storage
        } else {
            &spec.templates[template]
        };
        match client.admit_predict(plan, false) {
            Ok((_, latency)) => {
                debug_assert!(latency.is_finite());
                let ns = started.elapsed().saturating_sub(t0).as_nanos().min(u64::MAX as u128);
                out.hist.record(ns as u64);
                out.completed += 1;
            }
            Err(ClientError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Reply timeout: the pipe now holds a stale reply, so
                // reopen the connection before the next request.
                out.dropped += 1;
                match connect(spec) {
                    Some(c) => client = c,
                    None => {
                        out.errors += 1;
                        return out;
                    }
                }
            }
            Err(_) => out.errors += 1,
        }
    }
    out
}

fn connect(spec: &LoadSpec<'_>) -> Option<Client> {
    let mut client = Client::connect(&spec.addr).ok()?;
    client.set_timeout(Some(spec.timeout)).ok()?;
    Some(client)
}

// --- artifact --------------------------------------------------------------

/// One `BENCH_serve.json` row: a single (tier, mode, rate) load run.
#[derive(Debug, Clone, Serialize)]
pub struct ServeRow {
    /// Model tier (`edge`, `paper`).
    pub tier: String,
    /// `open` or `closed`.
    pub mode: String,
    /// Open-loop target rate in req/s (0 for closed loop).
    pub target_rate_hz: f64,
    /// Client connections.
    pub connections: usize,
    /// Requests completing per wall-clock second.
    pub achieved_rate_hz: f64,
    /// Requests sent.
    pub sent: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests shed or timed out.
    pub dropped: u64,
    /// Server/transport errors.
    pub errors: u64,
    /// Latency percentiles, microseconds (open loop: from scheduled
    /// arrival — includes queueing delay).
    pub p50_us: u64,
    /// 95th percentile latency (µs).
    pub p95_us: u64,
    /// 99th percentile latency (µs).
    pub p99_us: u64,
    /// 99.9th percentile latency (µs).
    pub p999_us: u64,
    /// Kernel dispatch tier of the serving process.
    pub kernel_tier: String,
    /// Fraction of the daemon's memo probes that hit *during this run*
    /// (from the server's stats delta).
    pub cache_hit_rate: f64,
    /// Zipf skew the template draw used (0 = uniform).
    pub zipf_s: f64,
    /// Whether the run used the all-distinct adversarial mode
    /// (`LoadSpec::unique`).
    pub unique: bool,
    /// Logical cores of the benching host (0 when undetectable) —
    /// provenance for cross-host row comparisons.
    pub cpu_cores: usize,
    /// `git describe --always --dirty` of the benched tree, so
    /// before/after rows in one artifact are attributable.
    pub git: String,
}

/// `git describe --always --dirty` of the
/// [`workspace_root`](crate::workspace_root) tree, or `"unknown"` when
/// git or the workspace is unavailable.
pub fn git_describe() -> String {
    crate::workspace_root()
        .and_then(|root| {
            std::process::Command::new("git")
                .args(["describe", "--always", "--dirty"])
                .current_dir(root)
                .output()
                .ok()
        })
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl ServeRow {
    /// Flattens a report into an artifact row.
    pub fn from_report(
        tier: &str,
        spec: &LoadSpec<'_>,
        report: &LoadReport,
        cache_hit_rate: f64,
    ) -> ServeRow {
        let (mode, target_rate_hz) = match spec.mode {
            LoadMode::Open { rate_hz } => ("open", rate_hz),
            LoadMode::Closed => ("closed", 0.0),
        };
        ServeRow {
            tier: tier.to_string(),
            mode: mode.to_string(),
            target_rate_hz,
            connections: spec.connections,
            achieved_rate_hz: report.achieved_rate_hz(),
            sent: report.sent,
            completed: report.completed,
            dropped: report.dropped,
            errors: report.errors,
            p50_us: report.quantile_us(0.50),
            p95_us: report.quantile_us(0.95),
            p99_us: report.quantile_us(0.99),
            p999_us: report.quantile_us(0.999),
            kernel_tier: qpp_nn::KernelTier::current().name().to_string(),
            cache_hit_rate,
            zipf_s: spec.zipf_s,
            unique: spec.unique,
            cpu_cores: std::thread::available_parallelism().map(usize::from).unwrap_or(0),
            git: git_describe(),
        }
    }
}

/// Writes `BENCH_serve.json`-style rows through
/// [`bench_json::write`](crate::bench_json::write), warning first when
/// a row was measured on a dirty tree.
///
/// # Panics
/// Panics if the file cannot be written.
pub fn write_serve_rows(file_name: &str, rows: &[ServeRow]) {
    if let Some(row) = rows.iter().find(|r| r.git.ends_with("-dirty")) {
        eprintln!(
            "warning: recording benchmark rows from a dirty tree ({}); \
             commit first so before/after rows stay attributable",
            row.git
        );
    }
    crate::bench_json::write(file_name, rows);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn histogram_buckets_are_tight_for_small_values() {
        let mut h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 15);
    }

    #[test]
    fn histogram_relative_error_is_bounded() {
        for &v in &[17u64, 1_000, 123_456, 987_654_321, u64::MAX / 3] {
            let mut h = Histogram::new();
            h.record(v);
            let q = h.quantile(0.5);
            assert!(q >= v, "representative {q} below recorded {v}");
            assert!(
                (q - v) as f64 <= v as f64 / 16.0 + 1.0,
                "bucket error too large: {v} -> {q}"
            );
        }
    }

    #[test]
    fn histogram_quantiles_walk_the_distribution() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1ms .. 1s in µs-ish units
        }
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        assert!((450_000..=550_000).contains(&p50), "p50 = {p50}");
        assert!((930_000..=1_000_000).contains(&p99), "p99 = {p99}");
        assert!(h.quantile(1.0) == 1_000_000);
    }

    #[test]
    fn schedule_is_deterministic_across_runs() {
        let a = schedule(LoadMode::Open { rate_hz: 1000.0 }, 500, 20, 0.99, 42);
        let b = schedule(LoadMode::Open { rate_hz: 1000.0 }, 500, 20, 0.99, 42);
        assert_eq!(a, b, "seeded schedule must be identical across runs");
        let c = schedule(LoadMode::Open { rate_hz: 1000.0 }, 500, 20, 0.99, 43);
        assert_ne!(a, c, "different seeds must differ");
        // Open-loop spacing is exact: 1 kHz = 1 ms apart.
        assert_eq!(a[0].0, 0);
        assert_eq!(a[1].0, 1_000_000);
        assert_eq!(a[499].0, 499_000_000);
    }

    #[test]
    fn zipf_skew_concentrates_on_head_ranks() {
        let zipf = Zipf::new(50, 0.99);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0u64; 50];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[40]);
        // Head heaviness: rank 0 alone should beat the entire tail half.
        let tail: u64 = counts[25..].iter().sum();
        assert!(counts[0] > tail / 2, "head {} vs tail {}", counts[0], tail);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Merging per-worker histograms is order-independent: any
        /// permutation of parts yields identical buckets and quantiles.
        #[test]
        fn histogram_merge_is_order_independent(
            parts in prop::collection::vec(
                prop::collection::vec(0u64..10_000_000_000, 0..40), 1..6),
            rot in 0usize..6,
        ) {
            let hs: Vec<Histogram> = parts.iter().map(|vals| {
                let mut h = Histogram::new();
                for &v in vals { h.record(v); }
                h
            }).collect();
            let mut fwd = Histogram::new();
            for h in &hs { fwd.merge(h); }
            // Rotate + reverse: a genuinely different merge order.
            let mut rev = Histogram::new();
            let k = rot % hs.len();
            for h in hs[k..].iter().chain(hs[..k].iter()).rev() { rev.merge(h); }
            prop_assert_eq!(&fwd, &rev);
            for &q in &[0.5, 0.95, 0.99, 0.999] {
                prop_assert_eq!(fwd.quantile(q), rev.quantile(q));
            }
        }

        /// Bucket invariant: every recorded value maps to a bucket whose
        /// representative is >= the value and within 1/16 relative error.
        #[test]
        fn histogram_bucket_error_bound(v in any::<u64>()) {
            let mut h = Histogram::new();
            h.record(v);
            let q = h.quantile(1.0);
            prop_assert!(q >= v);
            prop_assert!((q - v) as f64 <= v as f64 / 16.0 + 1.0);
        }
    }
}
