//! Deterministic request schedules: which operation is due when, on
//! which connection. Everything here is a pure function of the seed and
//! the leg number; wall clock only enters when a schedule meets a socket.
//!
//! Arrivals are evenly spaced at the leg's rate (open loop) and dealt
//! round-robin to the connections. One-shot legs draw a template per
//! arrival, Zipf-skewed. Resident legs run sessions on each connection:
//! a session is admitted, predicted a few times while later sessions
//! open, then retired; every session still open when the leg's slots run
//! out is retired right after, so a leg leaves nothing resident.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Zipfian sampler over ranks `0..n` (rank 0 hottest).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n > 0` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over zero ranks");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One request of a leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// One-shot `admit_predict` of pre-encoded request `index`.
    OneShot(u32),
    /// `admit_predict` with `keep:true` of template `template`, opening
    /// connection-local session `session`.
    Admit { template: u32, session: u32 },
    /// `predict` of an open session.
    Predict { session: u32 },
    /// `retire` of an open session.
    Retire { session: u32 },
}

/// An operation and when it is due, in nanoseconds from the leg's start.
pub type Slot = (u64, Op);

/// Due times of `n` evenly spaced arrivals at `rate_hz`.
pub fn arrivals(rate_hz: f64, n: usize) -> Vec<u64> {
    (0..n).map(|i| (i as f64 * 1e9 / rate_hz) as u64).collect()
}

fn leg_rng(seed: u64, leg: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ leg.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED_10AD)
}

/// Zipf(`s`) template draws for `n` one-shot arrivals.
pub fn skewed_draws(seed: u64, leg: u64, n: usize, templates: usize, s: f64) -> Vec<u32> {
    let zipf = Zipf::new(templates, s);
    let mut rng = leg_rng(seed, leg);
    (0..n).map(|_| zipf.sample(&mut rng) as u32).collect()
}

/// Deals arrivals and their operations round-robin to `conns` scripts.
pub fn deal(dues: &[u64], ops: &[Op], conns: usize) -> Vec<Vec<Slot>> {
    let mut scripts = vec![Vec::new(); conns];
    for (i, (&due, &op)) in dues.iter().zip(ops).enumerate() {
        scripts[i % conns].push((due, op));
    }
    scripts
}

/// Sessions a connection keeps open at once in a resident leg.
pub const SESSION_WINDOW: u32 = 4;

/// The resident script of one connection: `slots` timed operations.
/// Round `r` admits session `r`, predicts the (up to three) sessions
/// opened just before it and retires session `r - SESSION_WINDOW`, so
/// each session is predicted three times between its admit and retire.
/// The load thread retires, untimed, the sessions still open after the
/// last slot.
pub fn resident_script(
    seed: u64,
    leg: u64,
    conn: usize,
    slots: usize,
    templates: usize,
    s: f64,
) -> Vec<Op> {
    let zipf = Zipf::new(templates, s);
    let mut rng = leg_rng(seed, leg.wrapping_add((conn as u64 + 1) << 32));
    let mut ops = Vec::with_capacity(slots);
    let mut round = 0u32;
    'outer: loop {
        let mut round_ops = vec![Op::Admit {
            template: zipf.sample(&mut rng) as u32,
            session: round,
        }];
        for back in 1..SESSION_WINDOW {
            if round >= back {
                round_ops.push(Op::Predict {
                    session: round - back,
                });
            }
        }
        if round >= SESSION_WINDOW {
            round_ops.push(Op::Retire {
                session: round - SESSION_WINDOW,
            });
        }
        for op in round_ops {
            if ops.len() == slots {
                break 'outer;
            }
            ops.push(op);
        }
        round += 1;
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_for_a_seed() {
        assert_eq!(
            skewed_draws(7, 3, 500, 300, 0.99),
            skewed_draws(7, 3, 500, 300, 0.99)
        );
        assert_ne!(
            skewed_draws(7, 3, 500, 300, 0.99),
            skewed_draws(8, 3, 500, 300, 0.99)
        );
        assert_ne!(
            skewed_draws(7, 3, 500, 300, 0.99),
            skewed_draws(7, 4, 500, 300, 0.99)
        );
        assert_eq!(
            resident_script(7, 1, 0, 400, 300, 0.99),
            resident_script(7, 1, 0, 400, 300, 0.99)
        );
        assert_ne!(
            resident_script(7, 1, 0, 400, 300, 0.99),
            resident_script(7, 1, 1, 400, 300, 0.99)
        );
        let dues = arrivals(1000.0, 5);
        assert_eq!(dues, vec![0, 1_000_000, 2_000_000, 3_000_000, 4_000_000]);
    }

    #[test]
    fn dealing_is_round_robin() {
        let ops: Vec<Op> = (0..5).map(Op::OneShot).collect();
        let scripts = deal(&arrivals(1000.0, 5), &ops, 2);
        assert_eq!(
            scripts[0],
            vec![
                (0, Op::OneShot(0)),
                (2_000_000, Op::OneShot(2)),
                (4_000_000, Op::OneShot(4))
            ]
        );
        assert_eq!(
            scripts[1],
            vec![(1_000_000, Op::OneShot(1)), (3_000_000, Op::OneShot(3))]
        );
    }

    #[test]
    fn zipf_skew_concentrates_on_head_ranks() {
        let draws = skewed_draws(1, 0, 20_000, 300, 0.99);
        let head = draws.iter().filter(|&&d| d == 0).count();
        let tail = draws.iter().filter(|&&d| d >= 150).count();
        assert!(head > draws.iter().filter(|&&d| d == 10).count());
        // Rank 0 alone draws more than the whole colder half of the ranks.
        assert!(head > tail, "head {head} vs tail {tail}");
    }

    #[test]
    fn resident_sessions_are_admitted_predicted_then_retired() {
        let ops = resident_script(3, 0, 0, 103, 50, 0.99);
        assert_eq!(ops.len(), 103);
        let mut state = std::collections::HashMap::new();
        for op in &ops {
            match *op {
                Op::Admit { session, .. } => assert!(state.insert(session, 0).is_none()),
                Op::Predict { session } => {
                    *state.get_mut(&session).expect("predict after admit") += 1
                }
                Op::Retire { session } => {
                    assert_eq!(
                        state.remove(&session),
                        Some(3),
                        "three predicts before retire"
                    )
                }
                Op::OneShot(_) => unreachable!(),
            }
        }
        // A window of sessions, plus the one whose retire fell past the
        // last slot.
        assert!(
            state.len() <= SESSION_WINDOW as usize + 1,
            "{} sessions left open",
            state.len()
        );
    }
}
