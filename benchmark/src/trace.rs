//! In-memory spans recorded from the benchmark's own code, around its
//! calls into each layer. Nothing in the program under test is
//! instrumented; spans inside the crates are a later change.
//!
//! A span is `(name, start, end, parent, op)`. Spans of one operation
//! share its `op` id. A probe that times a batch of calls to one public
//! function records one span for the batch with `calls` set, since a
//! clock read costs about as much as the cheapest calls measured.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`]; `NO_PARENT` marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Operation the span belongs to (0 for probes outside any op).
    pub op: u64,
    /// Calls covered by the span (1 unless it is a probe batch).
    pub calls: u64,
}

/// Records spans when enabled; a disabled tracer costs one branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; pass the returned id to [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.enabled {
            return NO_PARENT;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
            calls: 1,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn exit(&mut self, id: SpanId) {
        self.exit_calls(id, 1);
    }

    /// Closes a probe span that covered `calls` calls.
    pub fn exit_calls(&mut self, id: SpanId, calls: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.calls = calls;
    }

    /// Moves another tracer's spans (a second connection's) into this
    /// one, re-basing parents and clocks.
    pub fn absorb(&mut self, other: Tracer) {
        if !self.enabled {
            return;
        }
        let base = self.spans.len() as SpanId;
        let shift = other.epoch.duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: name, start, end, parent, op id, calls.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.calls
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("op", NO_PARENT, 1);
        t.exit(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let mut a = Tracer::new(true);
        let root = a.enter("op", NO_PARENT, 1);
        a.exit(root);
        let mut b = Tracer::new(true);
        let r = b.enter("op", NO_PARENT, 2);
        let c = b.enter("child", r, 2);
        b.exit(c);
        b.exit(r);
        a.absorb(b);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(a.spans()[2].parent, 1);
        assert!(a.spans()[1].start_ns >= a.spans()[0].start_ns);
    }
}
