//! The benchmark's client: open-loop legs over at most two connections,
//! one thread each, against the daemon.
//!
//! Every request line is pre-encoded during set-up and sent with one
//! write; every reply is checked byte for byte against the reply
//! pre-encoded from the in-process prediction. A connection has one
//! request in flight: a request whose connection is still busy when it
//! falls due goes out as soon as the previous reply arrives, and its
//! latency is still timed from when it was due, so queueing shows.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use qppnet::serve::proto::{decode_response, encode_request};
use qppnet::serve::{Request, Response, ServeStats};

use crate::schedule::{Op, Slot};
use crate::sys;
use crate::trace::{Span, Tracer};
use crate::workload::Traffic;

/// A traced leg records the spans of every this-many-th request of each
/// connection, which keeps a traced run's span file to a few megabytes.
pub const SPAN_EVERY: usize = 8;

/// How long a reply may take before the request counts as timed out.
const REPLY_TIMEOUT: Duration = Duration::from_secs(2);

/// One blocking connection to the daemon.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    filled: usize,
    consumed: usize,
    /// Set when a reply was lost (timeout or I/O error): the stream may
    /// still deliver it, so the connection must not be reused.
    pub broken: bool,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: vec![0; 4096],
            filled: 0,
            consumed: 0,
            broken: false,
        })
    }

    /// Sends one complete request line with one write.
    pub fn send(&mut self, line: &[u8]) -> io::Result<()> {
        self.stream.write_all(line)
    }

    /// Reads one reply line, newline included.
    pub fn recv(&mut self) -> io::Result<&[u8]> {
        if self.consumed > 0 {
            self.buf.copy_within(self.consumed..self.filled, 0);
            self.filled -= self.consumed;
            self.consumed = 0;
        }
        loop {
            if let Some(p) = self.buf[..self.filled].iter().position(|&b| b == b'\n') {
                self.consumed = p + 1;
                return Ok(&self.buf[..p + 1]);
            }
            if self.filled == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
            }
            let n = self.stream.read(&mut self.buf[self.filled..])?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.filled += n;
        }
    }

    /// An untimed request/reply round trip.
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        let mut line = encode_request(req);
        line.push('\n');
        self.send(line.as_bytes())?;
        let reply = std::str::from_utf8(self.recv()?).map_err(|_| io::ErrorKind::InvalidData)?;
        decode_response(reply.trim_end()).map_err(|e| io::Error::other(e.msg))
    }

    /// The daemon's counters.
    pub fn stats(&mut self) -> io::Result<ServeStats> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(io::Error::other(format!("expected stats, got {other:?}"))),
        }
    }
}

/// What one leg did.
#[derive(Debug, Default)]
pub struct LegOutcome {
    /// `(due, latency)` of every request answered correctly, ns.
    pub samples: Vec<(u64, u64)>,
    /// How late the generator itself sent each request: send time minus
    /// the later of its due time and its connection becoming free.
    pub late_ns: Vec<u64>,
    pub scheduled: u64,
    pub sent: u64,
    pub ok: u64,
    pub errors: u64,
    pub wrong: u64,
    pub timeouts: u64,
    /// Requests never sent: the leg was aborted or the connection broke.
    pub unsent: u64,
    /// Session requests skipped because their admit failed.
    pub skipped: u64,
    /// CPU time of the load threads.
    pub client_cpu_ns: u64,
    pub aborted: bool,
    /// The first mismatching reply, for the log.
    pub mismatch: Option<String>,
}

impl LegOutcome {
    /// Scheduled requests that did not get a correct reply.
    pub fn failed(&self) -> u64 {
        self.scheduled - self.ok
    }

    pub fn merge(&mut self, other: LegOutcome) {
        self.samples.extend(other.samples);
        self.late_ns.extend(other.late_ns);
        self.scheduled += other.scheduled;
        self.sent += other.sent;
        self.ok += other.ok;
        self.errors += other.errors;
        self.wrong += other.wrong;
        self.timeouts += other.timeouts;
        self.unsent += other.unsent;
        self.skipped += other.skipped;
        self.client_cpu_ns += other.client_cpu_ns;
        self.aborted |= other.aborted;
        if self.mismatch.is_none() {
            self.mismatch = other.mismatch;
        }
    }
}

enum Verdict {
    Ok,
    Error,
    Wrong,
}

/// Connection-local session table: template and wire id per session.
#[derive(Default)]
struct Sessions(Vec<Option<(u32, u64)>>);

impl Sessions {
    fn get(&self, s: u32) -> Option<(u32, u64)> {
        self.0.get(s as usize).copied().flatten()
    }

    fn set(&mut self, s: u32, v: Option<(u32, u64)>) {
        if self.0.len() <= s as usize {
            self.0.resize(s as usize + 1, None);
        }
        self.0[s as usize] = v;
    }
}

/// The request bytes of `op`, or `None` when its session never opened.
fn request<'a>(
    op: Op,
    traffic: &'a Traffic,
    sessions: &Sessions,
    buf: &'a mut Vec<u8>,
) -> Option<&'a [u8]> {
    match (op, traffic) {
        (Op::OneShot(i), Traffic::OneShot { requests, .. }) => Some(requests.get(i as usize)),
        (Op::Admit { template, .. }, Traffic::Resident(r)) => Some(r.admit.get(template as usize)),
        (Op::Predict { session }, Traffic::Resident(r)) => {
            let (_, id) = sessions.get(session)?;
            r.predict.fill(id.to_string().as_bytes(), buf);
            Some(buf)
        }
        (Op::Retire { session }, Traffic::Resident(r)) => {
            let (_, id) = sessions.get(session)?;
            r.retire.fill(id.to_string().as_bytes(), buf);
            Some(buf)
        }
        _ => panic!("operation {op:?} does not fit the workload's traffic"),
    }
}

/// Checks `reply` to `op` and updates the session table.
fn check(op: Op, traffic: &Traffic, sessions: &mut Sessions, reply: &[u8]) -> Verdict {
    let good = match (op, traffic) {
        (Op::OneShot(i), Traffic::OneShot { replies, .. }) => reply == replies.get(i as usize),
        (Op::Admit { template, session }, Traffic::Resident(r)) => {
            match r.predicted[template as usize].match_id(reply) {
                Some(id) => {
                    sessions.set(session, Some((template, id)));
                    true
                }
                None => false,
            }
        }
        (Op::Predict { session }, Traffic::Resident(r)) => sessions
            .get(session)
            .is_some_and(|(t, id)| r.predicted[t as usize].match_id(reply) == Some(id)),
        (Op::Retire { session }, Traffic::Resident(r)) => {
            let good = sessions
                .get(session)
                .is_some_and(|(_, id)| r.retired.match_id(reply) == Some(id));
            sessions.set(session, None);
            good
        }
        _ => false,
    };
    if good {
        Verdict::Ok
    } else if reply.windows(10).any(|w| w == b"\"ok\":false") {
        Verdict::Error
    } else {
        Verdict::Wrong
    }
}

fn since(start: Instant) -> u64 {
    Instant::now().saturating_duration_since(start).as_nanos() as u64
}

struct ConnRun<'a> {
    traffic: &'a Traffic,
    start: Instant,
    /// Stop the leg early once a reply arrives this late (probes only).
    abort_late_ns: Option<u64>,
    abort: &'a AtomicBool,
    tracer: Option<&'a Tracer>,
}

impl ConnRun<'_> {
    fn run(&self, conn: &mut Conn, script: &[Slot]) -> LegOutcome {
        sys::tighten_timer_slack();
        let cpu0 = sys::thread_cpu_ns();
        let mut out = LegOutcome {
            scheduled: script.len() as u64,
            ..LegOutcome::default()
        };
        let mut spans: Vec<Span> = Vec::new();
        let span_base = self
            .tracer
            .map_or(0, |t| t.now_ns())
            .saturating_sub(since(self.start));
        let mut sessions = Sessions::default();
        let mut buf = Vec::new();
        let mut ready = 0u64;
        for (k, &(due, op)) in script.iter().enumerate() {
            if conn.broken || self.abort.load(Ordering::Relaxed) {
                out.unsent += (script.len() - k) as u64;
                break;
            }
            let target = self.start + Duration::from_nanos(due);
            let now = Instant::now();
            if now < target {
                std::thread::sleep(target - now);
            }
            let t_send = since(self.start);
            out.late_ns.push(t_send.saturating_sub(due.max(ready)));
            let Some(line) = request(op, self.traffic, &sessions, &mut buf) else {
                out.skipped += 1;
                continue;
            };
            if conn.send(line).is_err() {
                conn.broken = true;
                out.unsent += (script.len() - k) as u64;
                break;
            }
            out.sent += 1;
            let t_sent = since(self.start);
            let verdict = match conn.recv() {
                Ok(reply) => check(op, self.traffic, &mut sessions, reply),
                Err(_) => {
                    conn.broken = true;
                    out.timeouts += 1;
                    continue;
                }
            };
            let t_done = since(self.start);
            ready = t_done;
            match verdict {
                Verdict::Ok => {
                    out.ok += 1;
                    out.samples.push((due, t_done.saturating_sub(due)));
                }
                Verdict::Error => out.errors += 1,
                Verdict::Wrong => out.wrong += 1,
            }
            if !matches!(verdict, Verdict::Ok) && out.mismatch.is_none() {
                out.mismatch = Some(format!(
                    "{op:?}: {}",
                    String::from_utf8_lossy(&conn.buf[..conn.consumed])
                ));
            }
            if self
                .abort_late_ns
                .is_some_and(|limit| t_done.saturating_sub(due) > limit)
            {
                out.aborted = true;
                self.abort.store(true, Ordering::Relaxed);
            }
            if let Some(tracer) = self.tracer.filter(|_| k % SPAN_EVERY == 0) {
                let id = tracer.id();
                let t_checked = since(self.start);
                spans.push(Span {
                    id,
                    parent: 0,
                    layer: "loadgen",
                    start_ns: span_base + t_send,
                    end_ns: span_base + t_checked,
                });
                spans.push(Span {
                    id: tracer.id(),
                    parent: id,
                    layer: "serve",
                    start_ns: span_base + t_sent,
                    end_ns: span_base + t_done,
                });
            }
        }
        self.drain(conn, &mut sessions, &mut buf, &mut out);
        out.client_cpu_ns = sys::thread_cpu_ns() - cpu0;
        if let Some(tracer) = self.tracer {
            tracer.absorb(spans);
        }
        out
    }

    /// Retires, untimed, every session the leg left open.
    fn drain(
        &self,
        conn: &mut Conn,
        sessions: &mut Sessions,
        buf: &mut Vec<u8>,
        out: &mut LegOutcome,
    ) {
        let open: Vec<u32> = (0..sessions.0.len() as u32)
            .filter(|&s| sessions.get(s).is_some())
            .collect();
        for session in open {
            if conn.broken {
                return;
            }
            let op = Op::Retire { session };
            let line = request(op, self.traffic, sessions, buf).expect("open session has an id");
            let verdict = match conn.send(line).and_then(|_| conn.recv()) {
                Ok(reply) => check(op, self.traffic, sessions, reply),
                Err(_) => {
                    conn.broken = true;
                    out.timeouts += 1;
                    return;
                }
            };
            match verdict {
                Verdict::Ok => {}
                Verdict::Error => out.errors += 1,
                Verdict::Wrong => out.wrong += 1,
            }
        }
    }
}

/// Runs one leg: connection `c` works through `scripts[c]` on its own
/// thread. Due times count from a common start shortly after the call.
/// With `abort_late_ns`, the leg stops once a reply arrives that late.
pub fn run_leg(
    conns: &mut [Conn],
    traffic: &Traffic,
    scripts: &[Vec<Slot>],
    abort_late_ns: Option<u64>,
    tracer: Option<&Tracer>,
) -> LegOutcome {
    assert!(
        conns.len() == scripts.len() && conns.len() <= 2,
        "at most two connections, one script each"
    );
    let abort = AtomicBool::new(false);
    let run = ConnRun {
        traffic,
        start: Instant::now() + Duration::from_millis(1),
        abort_late_ns,
        abort: &abort,
        tracer,
    };
    let outcomes: Vec<LegOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(scripts)
            .map(|(conn, script)| {
                let run = &run;
                scope.spawn(move || run.run(conn, script))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut total = LegOutcome::default();
    for o in outcomes {
        total.merge(o);
    }
    total
}

/// The nearest-rank `q` quantile of sorted values (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples per window of a reported p99: at least ten beyond it.
pub const WINDOW_SAMPLES: usize = 1000;

/// Latency percentiles of a leg, with their sample counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    /// Correctly answered requests.
    pub count: usize,
    pub p50_ns: u64,
    /// p99 of each window, with the window's sample count. A window is a
    /// run of at least `min_samples` consecutive requests (one window when
    /// there are fewer).
    pub window_p99_ns: Vec<(usize, u64)>,
    /// Median of the window p99s: the leg's p99, robust to the host
    /// stalling a vCPU for a few milliseconds in a minority of windows.
    pub p99_ns: u64,
    /// p50 of the last window: above the latency limit, the backlog grew.
    pub last_p50_ns: u64,
}

impl Latency {
    /// Percentiles over the `(due, latency)` samples of one or more legs
    /// run one after another, each leg's samples in due order.
    pub fn of(parts: &[&[(u64, u64)]], min_samples: usize) -> Latency {
        let mut seq: Vec<u64> = Vec::new();
        for part in parts {
            let mut by_due = part.to_vec();
            by_due.sort_unstable();
            seq.extend(by_due.iter().map(|&(_, l)| l));
        }
        let windows = (seq.len() / min_samples.max(1)).max(1);
        let per = seq.len().div_ceil(windows).max(1);
        let mut window_p99_ns = Vec::new();
        let mut last_p50_ns = 0;
        for chunk in seq.chunks(per) {
            let mut lat = chunk.to_vec();
            lat.sort_unstable();
            window_p99_ns.push((lat.len(), quantile(&lat, 0.99)));
            last_p50_ns = quantile(&lat, 0.5);
        }
        let mut p99s: Vec<u64> = window_p99_ns.iter().map(|&(_, p)| p).collect();
        p99s.sort_unstable();
        seq.sort_unstable();
        Latency {
            count: seq.len(),
            p50_ns: quantile(&seq, 0.5),
            p99_ns: quantile(&p99s, 0.5),
            window_p99_ns,
            last_p50_ns,
        }
    }
}

/// Latency limit for `max_rate_hz`: p99 at or under 2 ms.
pub const LIMIT_NS: u64 = 2_000_000;

/// Whether a probe at some rate held: every request answered correctly,
/// the leg's p99 within the limit and no growing backlog.
pub fn probe_holds(o: &LegOutcome, lat: &Latency) -> bool {
    o.failed() == 0 && !o.aborted && lat.p99_ns <= LIMIT_NS && lat.last_p50_ns <= LIMIT_NS
}

/// Rate factor between probes while the bracket is open.
const STEP: f64 = 1.5;
/// The search stops once the bracket is this narrow: a 3% resolution.
pub const RESOLUTION: f64 = 1.03;
const MAX_PROBES: usize = 10;

/// Finds the highest rate at which `holds` is true, starting at `start`:
/// steps up or down by [`STEP`] until the answer changes, then bisects
/// geometrically down to [`RESOLUTION`], probing at most [`MAX_PROBES`]
/// times. Returns the highest rate that held.
pub fn search_max_rate(start: f64, mut holds: impl FnMut(f64) -> bool) -> f64 {
    let (mut lo, mut hi): (Option<f64>, Option<f64>) = (None, None);
    let mut rate = start;
    for _ in 0..MAX_PROBES {
        let ok = holds(rate);
        if ok {
            lo = Some(rate);
        } else {
            hi = Some(rate);
        }
        rate = match (lo, hi) {
            (Some(l), Some(h)) if h / l <= RESOLUTION => break,
            (Some(l), Some(h)) => (l * h).sqrt(),
            (Some(l), None) => l * STEP,
            (None, Some(h)) => h / STEP,
            (None, None) => unreachable!("a probe was just recorded"),
        };
    }
    lo.unwrap_or_else(|| hi.expect("at least one probe") / STEP)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_converges_to_the_threshold_within_resolution() {
        for threshold in [500.0, 3_100.0, 9_000.0, 14_000.0, 40_000.0] {
            let mut probes = 0;
            let best = search_max_rate(6_750.0, |r| {
                probes += 1;
                r <= threshold
            });
            assert!(best <= threshold, "{best} above threshold {threshold}");
            assert!(
                best * RESOLUTION * RESOLUTION >= threshold,
                "{best} too far below {threshold}"
            );
            assert!(probes <= MAX_PROBES);
        }
    }

    #[test]
    fn search_is_bounded_when_nothing_holds() {
        let mut probes = 0;
        let best = search_max_rate(1_000.0, |_| {
            probes += 1;
            false
        });
        assert_eq!(probes, MAX_PROBES);
        assert!(best < 1_000.0);
    }

    #[test]
    fn percentiles_come_with_their_sample_counts() {
        let samples: Vec<(u64, u64)> = (0..3_000u64).map(|i| (i, (i % 100) + 1)).collect();
        let lat = Latency::of(&[&samples[..2_000], &samples[2_000..]], WINDOW_SAMPLES);
        assert_eq!(lat.count, 3_000);
        assert_eq!(lat.window_p99_ns, vec![(1_000, 99); 3]);
        assert!(lat.window_p99_ns.iter().all(|&(n, _)| n >= WINDOW_SAMPLES));
        assert_eq!(lat.p50_ns, 50);
        assert_eq!(lat.p99_ns, 99);
        // Too few samples for a window of their own: one window.
        let few = Latency::of(&[&samples[..10]], WINDOW_SAMPLES);
        assert_eq!(few.window_p99_ns, vec![(10, 10)]);
        assert_eq!(Latency::of(&[], WINDOW_SAMPLES).count, 0);
    }

    #[test]
    fn one_stalled_window_does_not_set_the_p99() {
        let mut samples: Vec<(u64, u64)> = (0..5_000u64).map(|i| (i, 100)).collect();
        for s in &mut samples[1_000..1_100] {
            s.1 = 9_000_000;
        }
        let lat = Latency::of(&[&samples], WINDOW_SAMPLES);
        assert_eq!(lat.window_p99_ns[1].1, 9_000_000);
        assert_eq!(lat.p99_ns, 100);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(
            (quantile(&v, 0.5), quantile(&v, 0.99), quantile(&v, 1.0)),
            (50, 99, 100)
        );
        assert_eq!(quantile(&[], 0.5), 0);
    }
}
