//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is a layer name, a start and an end (nanoseconds since the
//! tracer was created) and the id of the span that caused it (0 for
//! none). Spans stay in memory and are written out once, when the run
//! ends. A layer's self time is the summed duration of its spans minus
//! the part of each covered by that span's children.

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The run's span store.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id (never 0).
    pub fn id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Stores spans a load thread buffered locally.
    pub fn absorb(&self, spans: Vec<Span>) {
        self.spans
            .lock()
            .expect("a thread panicked while holding the span store")
            .extend(spans);
    }

    /// Runs `f` inside a `layer` span without a parent and returns its
    /// result with the span's duration in nanoseconds.
    pub fn timed<R>(&self, layer: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.id();
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        self.absorb(vec![Span {
            id,
            parent: 0,
            layer,
            start_ns,
            end_ns,
        }]);
        (r, end_ns - start_ns)
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("a thread panicked while holding the span store")
            .len()
    }

    /// Self time per layer, in milliseconds.
    pub fn self_ms(&self) -> HashMap<&'static str, f64> {
        self_ms(
            &self
                .spans
                .lock()
                .expect("a thread panicked while holding the span store"),
        )
    }

    /// Writes every span as tab-separated `id parent layer start_ns end_ns`
    /// lines.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .lock()
            .expect("a thread panicked while holding the span store");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tlayer\tstart_ns\tend_ns")?;
        for s in spans.iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.layer, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per layer (ms): each span's duration minus its children's.
pub fn self_ms(spans: &[Span]) -> HashMap<&'static str, f64> {
    let mut child_ns: HashMap<u32, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: HashMap<&'static str, f64> = HashMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.layer).or_default() += own as f64 / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                id: 1,
                parent: 0,
                layer: "loadgen",
                start_ns: 0,
                end_ns: 10_000_000,
            },
            Span {
                id: 2,
                parent: 1,
                layer: "serve",
                start_ns: 2_000_000,
                end_ns: 9_000_000,
            },
            Span {
                id: 3,
                parent: 0,
                layer: "stream",
                start_ns: 0,
                end_ns: 1_000_000,
            },
        ];
        let s = self_ms(&spans);
        assert_eq!(s["loadgen"], 3.0);
        assert_eq!(s["serve"], 7.0);
        assert_eq!(s["stream"], 1.0);
    }

    #[test]
    fn timed_records_one_span() {
        let t = Tracer::default();
        let (v, ns) = t.timed("lower", || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(t.len(), 1);
        assert!(t.self_ms()["lower"] * 1e6 >= ns as f64 - 1.0);
    }
}
