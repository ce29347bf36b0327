//! Workloads and their inputs: the generated datasets, and every request
//! line and expected reply, encoded once during set-up.
//!
//! All three workloads serve the same paper-tier model, trained on a
//! TPC-H dataset generated from the seed; the dataset's plans are the
//! serving templates. See `perfbench/README.md` for why each workload
//! exists and which layer metrics it should move.

use qpp_plansim::prelude::{Dataset, Plan, PlanNode, Workload as PlanWorkload};
use qppnet::serve::proto::{encode_request, encode_response};
use qppnet::serve::{Request, Response};
use qppnet::QppNet;

use crate::schedule::skewed_draws;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One-shot predicts over Zipf-skewed templates: the memo answers.
    Skewed,
    /// One-shot predicts of plans that are all distinct: the memo misses.
    Unique,
    /// Sessions of admit, predicts and retire: the resident path.
    Resident,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Skewed, Workload::Unique, Workload::Resident];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Skewed => "serve_skewed",
            Workload::Unique => "serve_unique",
            Workload::Resident => "serve_resident",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Fixed light and heavy arrival rates (req/s): about a quarter and a
    /// half of the knee (`serve.max_rate_hz`) this workload reached when
    /// the benchmark was introduced (2-vCPU Xeon, AVX-512 kernel tier).
    /// They stay fixed so later changes are compared at the same load.
    /// Three quarters put the heavy leg past the knee whenever the shared
    /// host slowed down.
    pub fn rates(self) -> (f64, f64) {
        match self {
            Workload::Skewed => (11_000.0, 22_000.0),
            Workload::Unique => (1_400.0, 2_800.0),
            Workload::Resident => (570.0, 1_100.0),
        }
    }
}

/// Served templates (the training dataset's plans).
pub const TEMPLATES: usize = 300;
/// Held-out plans scored after training.
pub const TEST_PLANS: usize = 400;
/// Zipf exponent of template popularity.
pub const ZIPF_S: f64 = 0.99;
/// Distinct plans `serve_unique` cycles through: more than the daemon's
/// per-shard prediction memo holds (`PREDICTION_CACHE_MAX_ENTRIES`,
/// 16384), so a plan has always been evicted before it comes round again.
pub const UNIQUE_POOL: usize = 17_408;

/// The generated datasets: training plans (also the serving templates)
/// and a disjoint held-out set from the same TPC-H templates.
pub struct Data {
    pub train: Dataset,
    pub test: Dataset,
}

/// Generates the datasets for `seed`.
pub fn generate(seed: u64) -> Data {
    Data {
        train: Dataset::generate(PlanWorkload::TpcH, 100.0, TEMPLATES, seed),
        test: Dataset::generate(PlanWorkload::TpcH, 100.0, TEST_PLANS, seed ^ 0xDEAD_BEEF),
    }
}

/// Byte strings stored back to back.
#[derive(Debug, Default)]
pub struct Lines {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Lines {
    pub fn push(&mut self, line: &[u8]) {
        self.bytes.extend_from_slice(line);
        self.ends.push(self.bytes.len());
    }

    pub fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }
}

/// A line with one placeholder cut out: `pre ⌢ value ⌢ post`.
#[derive(Debug, Clone)]
pub struct Splice {
    pre: Vec<u8>,
    post: Vec<u8>,
}

/// The wire id the encoders are given where a real id goes later.
const PLACEHOLDER_ID: u64 = 987_654_321_987;

impl Splice {
    /// Cuts `needle`, which must occur exactly once, out of `text`.
    fn around(text: &str, needle: &str) -> Splice {
        let at = text.find(needle).expect("placeholder present");
        assert!(
            text[at + 1..].find(needle).is_none(),
            "placeholder `{needle}` occurs twice"
        );
        Splice {
            pre: text.as_bytes()[..at].to_vec(),
            post: text.as_bytes()[at + needle.len()..].to_vec(),
        }
    }

    /// Writes `pre ⌢ mid ⌢ post` into `out` (cleared first).
    pub fn fill(&self, mid: &[u8], out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&self.pre);
        out.extend_from_slice(mid);
        out.extend_from_slice(&self.post);
    }

    /// The id in `line` if `line` is `pre ⌢ <decimal u64> ⌢ post`.
    pub fn match_id(&self, line: &[u8]) -> Option<u64> {
        let mid = line
            .strip_prefix(&self.pre[..])?
            .strip_suffix(&self.post[..])?;
        if mid.is_empty() || !mid.iter().all(u8::is_ascii_digit) {
            return None;
        }
        std::str::from_utf8(mid).ok()?.parse().ok()
    }
}

fn line(mut s: String) -> String {
    s.push('\n');
    s
}

/// The one-shot request line of `plan`, newline included.
fn oneshot_line(plan: &PlanNode) -> String {
    line(encode_request(&Request::AdmitPredict {
        plan: Box::new(plan.clone()),
        keep: false,
        tenant: None,
    }))
}

/// The one-shot reply expected for a prediction of `latency_ms`.
fn oneshot_reply(latency_ms: f64) -> String {
    line(encode_response(&Response::Predicted {
        id: None,
        latency_ms,
    }))
}

/// Pre-encoded traffic of a workload.
pub enum Traffic {
    /// One-shot requests with their expected replies, index for index.
    OneShot { requests: Lines, replies: Lines },
    /// Session traffic.
    Resident(Resident),
}

/// Pre-encoded session traffic: admit lines per template, and the
/// request and reply shapes that carry a wire id.
pub struct Resident {
    pub admit: Lines,
    /// Per template: the reply to its admit and to every predict of it.
    pub predicted: Vec<Splice>,
    pub predict: Splice,
    pub retire: Splice,
    pub retired: Splice,
}

/// In-process predictions of `roots` by the model the daemon serves:
/// the wavefront batch engine, a different code path from the daemon's.
pub fn expected(model: &QppNet, roots: Vec<PlanNode>) -> Vec<f64> {
    let plans: Vec<Plan> = roots
        .into_iter()
        .enumerate()
        .map(|(i, root)| Plan {
            root,
            workload: PlanWorkload::TpcH,
            template_id: 0,
            query_id: i as u64,
        })
        .collect();
    model.predict_batch(&plans.iter().collect::<Vec<_>>())
}

/// `serve_skewed`: one request line per template.
pub fn skewed(templates: &[PlanNode], expected: &[f64]) -> Traffic {
    let (mut requests, mut replies) = (Lines::default(), Lines::default());
    for (plan, &e) in templates.iter().zip(expected) {
        requests.push(oneshot_line(plan).as_bytes());
        replies.push(oneshot_reply(e).as_bytes());
    }
    Traffic::OneShot { requests, replies }
}

/// `serve_unique`: [`UNIQUE_POOL`] distinct plans. Entry `j` is a
/// Zipf-drawn template whose root row estimate is raised by `j + 1`.
pub fn unique(model: &QppNet, templates: &[PlanNode], seed: u64) -> Traffic {
    // An exactly representable marker for the root's row estimate.
    const MARK: f64 = 7_777_777.007_812_5;
    let splices: Vec<Splice> = templates
        .iter()
        .map(|t| {
            let mut p = t.clone();
            p.est.rows = MARK;
            Splice::around(&oneshot_line(&p), &format!("{MARK}"))
        })
        .collect();
    let draws = skewed_draws(seed, u64::MAX, UNIQUE_POOL, templates.len(), ZIPF_S);
    let (mut requests, mut replies) = (Lines::default(), Lines::default());
    let mut buf = Vec::new();
    for chunk in (0..UNIQUE_POOL).collect::<Vec<_>>().chunks(2048) {
        let roots: Vec<PlanNode> = chunk
            .iter()
            .map(|&j| {
                let mut p = templates[draws[j] as usize].clone();
                p.est.rows += (j + 1) as f64;
                p
            })
            .collect();
        for (&j, p) in chunk.iter().zip(&roots) {
            // Shortest round-trip formatting, as the protocol encoder
            // writes numbers: the daemon parses back exactly `p.est.rows`.
            splices[draws[j] as usize].fill(serde::fmt_number(p.est.rows).as_bytes(), &mut buf);
            requests.push(&buf);
        }
        for e in expected(model, roots) {
            replies.push(oneshot_reply(e).as_bytes());
        }
    }
    Traffic::OneShot { requests, replies }
}

/// `serve_resident`: admit lines and id-carrying shapes.
pub fn resident(templates: &[PlanNode], expected: &[f64]) -> Traffic {
    let id = PLACEHOLDER_ID.to_string();
    let mut admit = Lines::default();
    let mut predicted = Vec::new();
    for (plan, &e) in templates.iter().zip(expected) {
        admit.push(
            line(encode_request(&Request::AdmitPredict {
                plan: Box::new(plan.clone()),
                keep: true,
                tenant: None,
            }))
            .as_bytes(),
        );
        predicted.push(Splice::around(
            &line(encode_response(&Response::Predicted {
                id: Some(PLACEHOLDER_ID),
                latency_ms: e,
            })),
            &id,
        ));
    }
    Traffic::Resident(Resident {
        admit,
        predicted,
        predict: Splice::around(
            &line(encode_request(&Request::Predict { id: PLACEHOLDER_ID })),
            &id,
        ),
        retire: Splice::around(
            &line(encode_request(&Request::Retire { id: PLACEHOLDER_ID })),
            &id,
        ),
        retired: Splice::around(
            &line(encode_response(&Response::Retired { id: PLACEHOLDER_ID })),
            &id,
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splices_round_trip_ids() {
        let s = Splice::around(
            &line(encode_request(&Request::Predict { id: PLACEHOLDER_ID })),
            "987654321987",
        );
        let mut buf = Vec::new();
        s.fill(b"42", &mut buf);
        assert_eq!(
            buf,
            line(encode_request(&Request::Predict { id: 42 })).into_bytes()
        );
        assert_eq!(s.match_id(&buf), Some(42));
        assert_eq!(s.match_id(b"{\"v\":1}\n"), None);
    }

    #[test]
    fn lines_store_back_to_back() {
        let mut l = Lines::default();
        l.push(b"ab\n");
        l.push(b"c\n");
        assert_eq!((l.get(0), l.get(1)), (&b"ab\n"[..], &b"c\n"[..]));
    }
}
