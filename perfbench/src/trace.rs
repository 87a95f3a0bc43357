//! In-memory spans the traced run records around each call into a
//! layer's public functions.
//!
//! The program is driven from one thread and its calls do not nest, so
//! every span is top-level. The only time inside a span that belongs to
//! another layer is the storage backend's, which the counting wrapper
//! measures; a span keeps it as `backend_ns`, and its self time is the
//! rest. The wrapper's copies of snapshots the benchmark asked for are
//! counted with the backend's time, so they stay out of self times.
//! Spans stay in memory until the run ends and are then written as JSON
//! lines.

use crate::backend::Ledger;
use std::sync::Arc;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `lfta.ingest`.
    pub name: &'static str,
    /// Repetition the span belongs to.
    pub rep: u32,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Time inside the storage backend during the span (and copying
    /// snapshots for the benchmark).
    pub backend_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Duration without the storage backend's time.
    pub fn self_ns(&self) -> u64 {
        self.ns().saturating_sub(self.backend_ns)
    }
}

/// A span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    rep: u32,
    ledger: Option<Arc<Ledger>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            rep: 0,
            ledger: None,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a repetition: later spans carry `rep`, and no backend is
    /// watched until [`Tracer::watch_backend`].
    pub fn start_rep(&mut self, rep: u32) {
        self.rep = rep;
        self.ledger = None;
    }

    /// Charges the time inside this backend to `backend_ns`.
    pub fn watch_backend(&mut self, ledger: Arc<Ledger>) {
        self.ledger = Some(ledger);
    }

    fn backend_ns(&self) -> u64 {
        self.ledger.as_ref().map_or(0, |l| l.outside_ns())
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let backend_before = self.backend_ns();
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let backend_ns = self.backend_ns().saturating_sub(backend_before);
        self.spans.push(Span {
            name,
            rep: self.rep,
            start_ns,
            end_ns,
            backend_ns,
        });
        out
    }

    /// The span recorded last.
    pub fn last(&self) -> Option<&Span> {
        self.spans.last()
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        self.spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"rep\":{},\"start_ns\":{},\"end_ns\":{},\"backend_ns\":{}}}\n",
                    s.name, s.rep, s.start_ns, s.end_ns, s.backend_ns
                )
            })
            .collect()
    }
}

/// Runs `f` inside a span when there is a tracer, bare otherwise.
pub fn timed<R>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Summed self time, in nanoseconds, of the spans of repetition `rep`
/// called `name`.
pub fn self_ns(spans: &[Span], rep: u32, name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.rep == rep && s.name == name)
        .map(Span::self_ns)
        .sum()
}

/// Share of repetition `rep`'s wall time, `wall_s` seconds, spent
/// inside its spans.
pub fn coverage(spans: &[Span], rep: u32, wall_s: f64) -> f64 {
    let covered: u64 = spans.iter().filter(|s| s.rep == rep).map(Span::ns).sum();
    covered as f64 / 1e9 / wall_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CountingBackend;
    use msa_stream::{SimBackend, StorageBackend};

    #[test]
    fn spans_carry_repetition_and_backend_time() {
        let mut t = Tracer::new();
        t.start_rep(3);
        t.span("outer", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let (mut backend, ledger) = CountingBackend::new(SimBackend::new());
        t.watch_backend(Arc::clone(&ledger));
        t.span("store", || {
            for i in 0..100 {
                backend.append("a/wal", &[i; 64]).unwrap();
            }
        });
        let spans = t.spans().to_vec();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.rep == 3));
        assert!(spans[0].ns() >= 2_000_000);
        assert_eq!(spans[0].backend_ns, 0);
        assert_eq!(spans[1].backend_ns, ledger.outside_ns());
        assert_eq!(spans[1].backend_ns, ledger.counts().busy_ns);
        assert!(spans[1].backend_ns > 0 && spans[1].backend_ns <= spans[1].ns());
        assert_eq!(spans[1].self_ns(), spans[1].ns() - spans[1].backend_ns);
        assert_eq!(self_ns(&spans, 3, "outer"), spans[0].ns());
        assert_eq!(self_ns(&spans, 4, "outer"), 0);
        let both_s = (spans[0].ns() + spans[1].ns()) as f64 / 1e9;
        assert!((coverage(&spans, 3, both_s * 2.0) - 0.5).abs() < 1e-9);
        assert_eq!(coverage(&spans, 4, 1.0), 0.0);
        assert_eq!(t.to_jsonl().lines().count(), 2);
        let mut none: Option<&mut Tracer> = None;
        assert_eq!(timed(&mut none, "skipped", || 5), 5);
        t.start_rep(4);
        assert_eq!(t.last().map(|s| s.name), Some("store"));
    }
}
