//! In-memory spans around calls into the layers' public functions.
//!
//! The tracer is thread-local: every traced call happens on the benchmark's
//! own thread (the parallel search's workers live inside `dd-replay` and are
//! timed only through the call that owns them). When tracing is off a span
//! costs one flag read, so the untraced run and the traced run execute the
//! same code.

use std::cell::RefCell;
use std::time::Instant;

/// One timed call: which layer function, on which item of the mix, inside
/// which operation, and under which enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub item: String,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        epoch: Instant::now(),
        op: 0,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns span recording on or off for this thread.
pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().on = on);
}

/// Starts a new operation: spans opened from now on carry its id.
pub fn begin_op() -> u64 {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.op += 1;
        t.op
    })
}

/// Runs `f` inside a span named `name` for `item`. The tracer is not
/// borrowed while `f` runs, so spans nest.
pub fn span<R>(name: &'static str, item: &str, f: impl FnOnce() -> R) -> R {
    let idx = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return None;
        }
        let idx = t.spans.len();
        let span = Span {
            name,
            item: item.to_owned(),
            op: t.op,
            parent: t.open.last().copied(),
            start_ns: t.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        };
        t.spans.push(span);
        t.open.push(idx);
        Some(idx)
    });
    // Close the span even if `f` unwinds, so a caught panic leaves no
    // dangling parent behind for the next operation.
    struct Close(Option<usize>);
    impl Drop for Close {
        fn drop(&mut self) {
            if let Some(idx) = self.0 {
                TRACER.with(|t| {
                    let mut t = t.borrow_mut();
                    t.spans[idx].end_ns = t.epoch.elapsed().as_nanos() as u64;
                    t.open.pop();
                });
            }
        }
    }
    let _close = Close(idx);
    f()
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// Checks that every span's parent was open around it and belongs to the
/// same operation. Returns the first violation.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let parent = spans
                .get(p)
                .filter(|_| p < i)
                .ok_or_else(|| format!("span {i} ({}) names a later parent {p}", s.name))?;
            if parent.op != s.op {
                return Err(format!(
                    "span {i} ({}) is in op {} but its parent {p} is in op {}",
                    s.name, s.op, parent.op
                ));
            }
            if parent.start_ns > s.start_ns || parent.end_ns < s.end_ns {
                return Err(format!(
                    "span {i} ({}) was not inside its parent {p} ({})",
                    s.name, parent.name
                ));
            }
        }
    }
    Ok(())
}

/// Renders spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut s = String::new();
    for (i, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or("null".to_owned(), |p| p.to_string());
        s.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"item\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
            sp.name, sp.item, sp.op, sp.start_ns, sp.end_ns
        ));
    }
    s
}
