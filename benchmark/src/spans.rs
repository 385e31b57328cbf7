//! Spans recorded by the benchmark's own code around its calls into the
//! layers: kept in preallocated memory during the run, written out as
//! JSON lines when it ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Span names, indexed by [`Span::name`].
pub const NAMES: [&str; 4] = ["request", "wire.send", "wire.wait", "engine.batch"];
pub const REQUEST: u8 = 0;
pub const WIRE_SEND: u8 = 1;
pub const WIRE_WAIT: u8 = 2;
pub const ENGINE_BATCH: u8 = 3;

/// One span. `parent` is the index of the causing span in the same log
/// plus one, 0 for a root; spans of one request share `req_id`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: u8,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req_id: u64,
}

/// A fixed-capacity span log: `push` never allocates, and drops (and
/// counts) spans once the log is full.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    capacity: usize,
    pub dropped: u64,
}

impl SpanLog {
    /// A log for `capacity` spans whose times count from `epoch`.
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        SpanLog {
            epoch,
            spans: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Room for `n` more spans? Callers recording a parent with children
    /// check once, so a tree is never recorded in part.
    pub fn has_room(&self, n: usize) -> bool {
        self.spans.len() + n <= self.capacity
    }

    /// Append a span and return its id for use as a `parent`; 0 (and a
    /// counted drop) when the log is full.
    pub fn push(
        &mut self,
        name: u8,
        start: Instant,
        end: Instant,
        parent: u32,
        req_id: u64,
    ) -> u32 {
        if !self.has_room(1) {
            self.dropped += 1;
            return 0;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req_id,
        });
        self.spans.len() as u32
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Append `more` (a log of its own, e.g. another thread's) to `all`,
/// re-basing its parent ids.
pub fn append(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len() as u32;
    all.extend(more.into_iter().map(|mut s| {
        if s.parent != 0 {
            s.parent += base;
        }
        s
    }));
}

/// Per span name: `(count, total duration, total self time)` in ns. A
/// span's self time is its duration minus the part of its interval that
/// its child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> [(u64, u64, u64); NAMES.len()] {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != 0 {
            children[s.parent as usize - 1].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = [(0, 0, 0); NAMES.len()];
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = s.start_ns;
        for &(start, end) in kids.iter() {
            let (start, end) = (start.max(reach), end.min(s.end_ns));
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        let duration = s.end_ns.saturating_sub(s.start_ns);
        let slot = &mut out[s.name as usize];
        slot.0 += 1;
        slot.1 += duration;
        slot.2 += duration - covered;
    }
    out
}

/// Write one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            w,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req_id\":{}}}",
            i + 1,
            NAMES[s.name as usize],
            s.start_ns,
            s.end_ns,
            s.parent,
            s.req_id
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: u8, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        // request 0..100 ⊃ send 10..30, wait 30..90; a second request
        // 200..260 whose children overlap (210..240, 230..250) and one of
        // which runs past the parent's end (255..300 → clipped to 255..260).
        let spans = [
            span(REQUEST, 0, 100, 0),
            span(WIRE_SEND, 10, 30, 1),
            span(WIRE_WAIT, 30, 90, 1),
            span(REQUEST, 200, 260, 0),
            span(WIRE_SEND, 210, 240, 4),
            span(WIRE_SEND, 230, 250, 4),
            span(WIRE_WAIT, 255, 300, 4),
        ];
        let t = self_times(&spans);
        // First request: 100 − (20 + 60) = 20. Second: 60 − (40 + 5) = 15.
        assert_eq!(t[REQUEST as usize], (2, 160, 35));
        // Leaves keep their whole duration as self time.
        assert_eq!(t[WIRE_SEND as usize], (3, 70, 70));
        assert_eq!(t[WIRE_WAIT as usize], (2, 105, 105));
        assert_eq!(t[ENGINE_BATCH as usize], (0, 0, 0));
    }

    #[test]
    fn a_full_log_drops_and_counts() {
        let epoch = Instant::now();
        let mut log = SpanLog::new(epoch, 2);
        assert_eq!(log.push(REQUEST, epoch, epoch, 0, 1), 1);
        assert!(log.has_room(1) && !log.has_room(2));
        assert_eq!(log.push(WIRE_SEND, epoch, epoch, 1, 1), 2);
        assert_eq!(log.push(WIRE_WAIT, epoch, epoch, 1, 1), 0);
        assert_eq!(log.dropped, 1);
        assert_eq!(log.into_spans().len(), 2);
    }

    #[test]
    fn append_rebases_parents() {
        let mut all = vec![span(ENGINE_BATCH, 0, 1, 0)];
        append(
            &mut all,
            vec![span(REQUEST, 0, 9, 0), span(WIRE_SEND, 1, 2, 1)],
        );
        assert_eq!(all[1].parent, 0);
        assert_eq!(all[2].parent, 2);
    }
}
