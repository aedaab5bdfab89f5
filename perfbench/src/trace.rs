//! In-memory spans recorded by the benchmark around its calls into the
//! library: name, start, end, parent and request id, plus the allocations
//! made between start and end. Spans are written out when the replay ends
//! and reduced to self times (a span's duration minus what its children
//! cover).

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc::allocations;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocations made while the span was open, children included.
    pub allocs: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Tracer {
    enabled: bool,
    epoch: Instant,
    request: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        enabled: false,
        epoch: Instant::now(),
        request: 0,
        spans: Vec::new(),
        stack: Vec::new(),
    });
}

/// Room reserved up front so recording a span does not allocate inside
/// the span being measured.
const SPAN_CAPACITY: usize = 1 << 16;

/// Starts recording on this thread, discarding earlier spans.
pub fn start() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.enabled = true;
        t.epoch = Instant::now();
        t.request = 0;
        t.spans = Vec::with_capacity(SPAN_CAPACITY);
        t.stack = Vec::with_capacity(64);
    });
}

/// Stops recording and returns this thread's spans.
pub fn stop() -> Vec<Span> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.enabled = false;
        t.stack.clear();
        std::mem::take(&mut t.spans)
    })
}

/// Tags the spans that follow with a request id.
pub fn set_request(id: u64) {
    TRACER.with(|t| t.borrow_mut().request = id);
}

/// Runs `f` inside a span named `name` (a plain call when recording is
/// off).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return None;
        }
        let index = t.spans.len();
        let parent = t.stack.last().copied();
        let request = t.request;
        let start_ns = t.epoch.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
            allocs: 0,
        });
        t.stack.push(index);
        Some((index, allocations()))
    });
    let out = f();
    if let Some((index, allocs_at_start)) = opened {
        let allocs = allocations() - allocs_at_start;
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let end_ns = t.epoch.elapsed().as_nanos() as u64;
            let span = &mut t.spans[index];
            span.end_ns = end_ns;
            span.allocs = allocs;
            t.stack.pop();
        });
    }
    out
}

/// Self time and self allocations of every span: its own figures minus
/// those of its direct children.
pub fn self_costs(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut costs: Vec<(u64, u64)> = spans.iter().map(|s| (s.duration_ns(), s.allocs)).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            costs[parent].0 = costs[parent].0.saturating_sub(span.duration_ns());
            costs[parent].1 = costs[parent].1.saturating_sub(span.allocs);
        }
    }
    costs
}

/// The spans as JSON lines, one object per span.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (index, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {index}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \
             \"start_ns\": {}, \"end_ns\": {}, \"allocs\": {}}}",
            span.name, span.request, span.start_ns, span.end_ns, span.allocs
        );
    }
    out
}
