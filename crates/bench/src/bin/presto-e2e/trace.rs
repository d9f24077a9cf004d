//! In-memory span recorder for the traced run.
//!
//! Every span is recorded from the benchmark's own files, around a call
//! into a public function of the library; nothing inside the library is
//! instrumented. Spans of one unit (a partition or row group in one
//! epoch/pass) share its `(epoch, unit)` pair and nest through `parent`.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub epoch: u32,
    pub unit: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Count, total and self time of every span that shares one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    epoch: u32,
    unit: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), epoch: 0, unit: 0 }
    }

    fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets the `(epoch, unit)` pair stamped on the spans opened next.
    pub fn set_unit(&mut self, epoch: u32, unit: u32) {
        self.epoch = epoch;
        self.unit = unit;
    }

    /// Runs `f` inside a span named `name`, nested under the span open at
    /// the time of the call.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            epoch: self.epoch,
            unit: self.unit,
            parent,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        let (start_ns, end_ns) = (self.offset(start), self.offset(end));
        let span = &mut self.spans[id as usize];
        span.start_ns = start_ns;
        span.end_ns = end_ns;
        out
    }

    /// Records a root span from two instants the caller took itself (the
    /// consuming loop stamps a delivered unit this way).
    pub fn record(
        &mut self,
        name: &'static str,
        epoch: u32,
        unit: u32,
        from: Instant,
        to: Instant,
    ) {
        let (start_ns, end_ns) = (self.offset(from), self.offset(to));
        self.spans.push(Span { name, epoch, unit, parent: NO_PARENT, start_ns, end_ns });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its direct children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if span.parent != NO_PARENT {
                let parent = &mut own[span.parent as usize];
                *parent = parent.saturating_sub(span.duration_ns());
            }
        }
        own
    }

    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let own = self.self_times();
        let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(own) {
            let t = by_name.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += self_ns;
        }
        by_name
    }

    /// Writes the spans as one JSON document (`parent` is an index into
    /// `spans`, or null for a root).
    pub fn write_json(&self, path: &str, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent =
                if s.parent == NO_PARENT { "null".to_owned() } else { s.parent.to_string() };
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"epoch\": {}, \"unit\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{comma}",
                s.name, s.epoch, s.unit, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        // Hand-built tree: root [0, 100) with children [10, 30) and
        // [40, 90); the second child has a grandchild [50, 60).
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            epoch: 0,
            unit: 0,
            parent,
            start_ns,
            end_ns,
        };
        t.spans = vec![
            span("root", NO_PARENT, 0, 100),
            span("a", 0, 10, 30),
            span("b", 0, 40, 90),
            span("c", 2, 50, 60),
        ];
        assert_eq!(t.self_times(), vec![30, 20, 40, 10]);
        let totals = t.totals();
        assert_eq!(totals["root"], NameTotals { count: 1, total_ns: 100, self_ns: 30 });
        assert_eq!(totals["b"], NameTotals { count: 1, total_ns: 50, self_ns: 40 });
        let own: u64 = totals.values().map(|n| n.self_ns).sum();
        assert_eq!(own, 100, "self times partition the root's interval");
    }

    #[test]
    fn nested_calls_record_their_parent() {
        let mut t = Tracer::new();
        t.set_unit(3, 7);
        let v = t.span("outer", |t| t.span("inner", |_| 41) + 1);
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!((spans[0].name, spans[0].parent), ("outer", NO_PARENT));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", 0));
        assert_eq!((spans[1].epoch, spans[1].unit), (3, 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
