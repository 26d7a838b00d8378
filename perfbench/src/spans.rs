//! In-memory spans recorded around the benchmark's calls into the
//! program's public functions. Spans are kept in memory for the whole run
//! and written once at exit; nothing is recorded inside the program.

use std::fmt::Write as _;
use std::time::Instant;

use crate::report::quote;

/// One closed span. `unit` is shared by every span of one epoch or one
/// request, so a unit's spans can be grouped without walking parents.
pub struct Span {
    pub name: &'static str,
    pub unit: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Nanoseconds of this span covered by its children.
    pub children_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Duration minus the part its children cover.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns().saturating_sub(self.children_ns)
    }
}

/// The span store of one run.
pub struct Spans {
    origin: Instant,
    run_id: u64,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant, run_id: u64) -> Spans {
        Spans {
            origin,
            run_id,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; children must be recorded after their
    /// parent's id exists, so parents are recorded first with
    /// [`Spans::open`] and closed with [`Spans::close`].
    pub fn record(
        &mut self,
        name: &'static str,
        unit: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        if let Some(p) = parent {
            self.spans[p].children_ns += end_ns.saturating_sub(start_ns);
        }
        self.spans.push(Span {
            name,
            unit,
            parent,
            start_ns,
            end_ns,
            children_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Start a span whose end is not known yet.
    pub fn open(
        &mut self,
        name: &'static str,
        unit: u64,
        parent: Option<usize>,
        start: Instant,
    ) -> usize {
        self.record(name, unit, parent, start, start)
    }

    /// End an [`Spans::open`]ed span and charge its duration to its parent.
    pub fn close(&mut self, id: usize, end: Instant) {
        let end_ns = self.ns(end);
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        let dur = span.dur_ns();
        if let Some(p) = span.parent {
            self.spans[p].children_ns += dur;
        }
    }

    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// All spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Write every span as one JSON document.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut s = format!("{{\"run_id\":\"{:016x}\",\"spans\":[\n", self.run_id);
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\":{i},\"name\":{},\"unit\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}{}",
                quote(sp.name),
                sp.unit,
                sp.start_ns,
                sp.end_ns,
                sp.self_ns(),
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        s.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}
