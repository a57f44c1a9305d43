//! In-memory spans recorded by the benchmark around calls into the
//! program's public API. Written out once, when the run ends.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the enclosing span (0 = none).
    pub parent: u64,
    /// Request the span belongs to (0 = none).
    pub request: u64,
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id,
    /// to pass as the parent of spans it opens.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_nanos() as u64;
        let r = f(id);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span record poisoned").push(Span {
            id,
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request,
        });
        r
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span record poisoned").len()
    }

    /// Writes every span as one tab-separated line:
    /// `id name start_ns end_ns parent request`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span record poisoned");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for s in spans.iter() {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.name, s.start_ns, s.end_ns, s.parent, s.request
            )?;
        }
        w.flush()
    }
}
