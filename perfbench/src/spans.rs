//! Spans recorded by the benchmark around its calls into each layer, kept
//! in memory and written as Chrome trace-event JSON when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    /// The operation (case, opcode or request) the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Logical thread (load-generator connection; 0 in process).
    pub tid: usize,
    pub start: Duration,
    pub dur: Duration,
}

pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    #[must_use]
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Records `[start, start + dur)` and returns the span's index.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        tid: usize,
        start: Instant,
        dur: Duration,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            tid,
            start: start.saturating_duration_since(self.epoch),
            dur,
        });
        self.spans.len() - 1
    }

    /// Writes every span as a Chrome trace-event (`ph: "X"`) array.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"span\":{i},\"op\":{},\"parent\":{parent}}}}}{sep}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6,
                s.tid,
                s.op,
            );
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}
