//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A span is named `<layer>.<call>`, where the layer is one of this
//! repository's crates (`workloads`, `isa`, `pipeline`, `sample`, `bench`,
//! `serve`, `wire`) or `perfbench` for the benchmark's own wrapper around a
//! cell or request. Spans nest per thread, so each span knows the span that
//! caused it. They stay in memory until the run ends; a disabled tracer
//! only calls the closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// The cell or request this call served.
    pub cell: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Pops the span from this thread's open stack even if the call panics.
struct Close;

impl Drop for Close {
    fn drop(&mut self) {
        OPEN.with(|open| open.borrow_mut().pop());
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for `cell`.
    pub fn span<T>(&self, name: &'static str, cell: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let close = Close;
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        drop(close);
        let span = Span {
            id,
            parent,
            name,
            cell,
            start_ns,
            end_ns,
        };
        self.spans
            .lock()
            .expect("span buffer lock: a traced call panicked while pushing")
            .push(span);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock: a traced call panicked while pushing")
            .clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"cell\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.name, s.cell, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Writes each tracer's spans to `.bench_out/spans-<workload>-seed<N>-<i>.jsonl`.
pub fn write_all(args: &crate::Args, tracers: &[&Tracer]) {
    for (i, t) in tracers.iter().enumerate() {
        let name = format!("spans-{}-seed{}-{i}.jsonl", args.workload, args.seed);
        let path = crate::out_dir().join(name);
        match t.write(&path) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => println!("spans: not written ({e})"),
        }
    }
}

/// Total seconds per span name.
pub fn total_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64)> {
    let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.secs();
    }
    out
}

/// Self time per layer: each span's duration minus the part its child
/// spans cover (children nest on one thread, so they never overlap).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_secs: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_secs.entry(p).or_default() += s.secs();
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let own = s.secs() - child_secs.get(&s.id).copied().unwrap_or(0.0);
        *out.entry(s.layer()).or_default() += own.max(0.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let t = Tracer::new(true);
        t.span("perfbench.cell", 7, || {
            t.span("pipeline.run", 7, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "pipeline.run").unwrap();
        let outer = spans.iter().find(|s| s.name == "perfbench.cell").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        let selfs = self_time_by_layer(&spans);
        assert!(selfs["pipeline"] >= 0.005);
        assert!(selfs["perfbench"] < selfs["pipeline"]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("isa.interp", 0, || 3), 3);
        assert!(t.spans().is_empty());
    }
}
