//! In-memory spans for the traced replay.
//!
//! A span has a name, a start, an end, a parent and the id of the
//! replayed request it belongs to. Spans stay in memory until the run
//! ends and are then written out as JSON lines. A span's *self time*
//! is its duration minus the time its child spans cover; the layer of a
//! span is its name up to the first `.` (`ir.typecheck` → `ir`).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost
    /// open span.
    pub fn span<R>(
        &mut self,
        request: u64,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The duration of span `id` minus the time its children cover.
    /// Children of one span run one after another, never overlapping.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .map(|s| s.duration_ns().saturating_sub(covered[s.id]))
            .collect()
    }

    /// Total self time per layer, in nanoseconds.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut by_layer = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times_ns()) {
            *by_layer.entry(s.layer()).or_insert(0) += t;
        }
        by_layer
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"request\": {}, \"span\": {}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.request, s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link_up() {
        let mut t = Tracer::new();
        t.span(1, "driver.compile", |t| {
            t.span(1, "surface.parse", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span(1, "ir.typecheck", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 1));
        let self_ns = t.self_times_ns();
        let children = spans[1].duration_ns() + spans[2].duration_ns();
        assert_eq!(self_ns[0], spans[0].duration_ns() - children);
        assert!(self_ns[1] >= 2_000_000);
        let by_layer = t.self_time_by_layer();
        assert_eq!(
            by_layer.keys().copied().collect::<Vec<_>>(),
            ["driver", "ir", "surface"]
        );
    }
}
