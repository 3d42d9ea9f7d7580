//! Spans recorded by the benchmark around its calls into the library.
//!
//! A span holds a name, start, end, parent and request id (a rotation
//! index or a `JobId` number). Spans stay in memory and are written out
//! once, at the end of a traced run. A disabled [`Tracer`] records
//! nothing, so the timed loops of an untraced run pay one branch per
//! call site.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One closed span; times are ns since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, `layer.function` style.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Request the span belongs to.
    pub req: u64,
}

impl Span {
    /// Wall duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder for one thread of calls.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::on()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Record spans from now on (`true`) or stop recording.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled with a span open");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            req,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        self.exit_req(None);
    }

    /// Close the innermost open span, replacing its request id when the
    /// id only became known during the call (a `JobId` from `submit`).
    pub fn exit_req(&mut self, req: Option<u64>) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        if let Some(r) = req {
            span.req = r;
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, req);
        let r = f();
        self.exit();
        r
    }

    /// Every closed span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Position after the last recorded span, to select later spans.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Drop every span recorded since `mark`.
    pub fn truncate(&mut self, mark: usize) {
        assert!(
            self.open.iter().all(|&id| (id as usize) < mark),
            "truncating an open span"
        );
        self.spans.truncate(mark);
    }

    /// Durations (ns) of the spans called `name` recorded since `mark`.
    pub fn durations_ns(&self, mark: usize, name: &str) -> Vec<f64> {
        self.spans[mark.min(self.spans.len())..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Summed duration (ns) of the spans called `name` since `mark`.
    pub fn total_ns(&self, mark: usize, name: &str) -> f64 {
        self.durations_ns(mark, name).iter().sum()
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children never overlap — one thread records).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Write the spans as JSON lines (`id`, `name`, `start_ns`,
    /// `end_ns`, `self_ns`, `parent`, `req`).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::on();
        t.enter("outer", 7);
        t.span("inner", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        let own = t.self_ns();
        let s = t.spans();
        assert_eq!(s[1].parent, 0);
        assert_eq!(own[0], s[0].dur_ns() - s[1].dur_ns());
        assert_eq!(own[1], s[1].dur_ns());

        let mut off = Tracer::off();
        off.span("x", 0, || ());
        assert!(off.spans().is_empty());
    }
}
