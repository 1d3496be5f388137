//! Measurement plumbing: latency samples, the traced run's span
//! ledger, and the process counters read from `/proc/self`.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::rng::Rng;

/// Samples kept per operation kind and one-second window.
const RESERVOIR: usize = 2048;

/// A uniform sample of at most `RESERVOIR` latencies (Vitter's
/// algorithm R), so the harness's memory stays the same however many
/// operations a window completes and does not show in `rss_peak_mb`.
#[derive(Debug)]
struct Reservoir {
    seen: u64,
    kept: Vec<u64>,
}

/// Latency samples in nanoseconds, per operation kind and per
/// one-second window of the run they completed in.
#[derive(Debug, Default)]
pub struct Samples {
    by_kind: BTreeMap<&'static str, Vec<Reservoir>>,
    rng: Rng,
}

impl Samples {
    pub fn push(&mut self, kind: &'static str, window: usize, ns: u64) {
        let windows = self.by_kind.entry(kind).or_default();
        while windows.len() <= window {
            windows.push(Reservoir {
                seen: 0,
                kept: Vec::with_capacity(RESERVOIR),
            });
        }
        let r = &mut windows[window];
        r.seen += 1;
        if r.kept.len() < RESERVOIR {
            r.kept.push(ns);
        } else {
            let slot = self.rng.below(r.seen as usize);
            if slot < RESERVOIR {
                r.kept[slot] = ns;
            }
        }
    }

    /// Adds another client's samples (each client's reservoirs are
    /// uniform over that client's operations).
    pub fn absorb(&mut self, other: &Samples) {
        for (k, ws) in &other.by_kind {
            let mine = self.by_kind.entry(k).or_default();
            for (w, r) in ws.iter().enumerate() {
                while mine.len() <= w {
                    mine.push(Reservoir {
                        seen: 0,
                        kept: Vec::new(),
                    });
                }
                mine[w].seen += r.seen;
                mine[w].kept.extend(&r.kept);
            }
        }
    }

    /// The kept samples of `kind` from the selected windows, sorted.
    pub fn sorted(&self, kind: &str, windows: &[bool]) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .by_kind
            .get(kind)
            .into_iter()
            .flatten()
            .enumerate()
            .filter(|(w, _)| windows.get(*w).copied().unwrap_or(false))
            .flat_map(|(_, r)| r.kept.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }
}

/// Nearest-rank percentile of sorted samples, in microseconds.
pub fn percentile_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64 / 1e3
}

/// One recorded span: a call into one layer's public function, made
/// from the benchmark's side.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span within the same operation, if any.
    pub parent: Option<u32>,
    pub op: u64,
    pub client: u32,
}

/// Per-span-name totals.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the time the span's children cover.
    pub self_ns: u64,
}

/// Spans recorded in memory by one client thread. A disabled tracer
/// costs one branch per call, so the untraced run uses the same code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    client: u32,
    next_op: u64,
    /// Spans of the operation in progress; `open` indexes the stack.
    current: Vec<Span>,
    open: Vec<u32>,
    /// Spans kept for the trace file (the first `cap`).
    pub kept: Vec<Span>,
    cap: usize,
    pub totals: BTreeMap<&'static str, SpanTotals>,
    /// Time covered by the layer spans (the children of each
    /// operation's root span).
    pub layer_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant, client: u32) -> Self {
        Tracer {
            enabled,
            origin,
            client,
            next_op: 0,
            current: Vec::new(),
            open: Vec::new(),
            kept: Vec::new(),
            cap: 20_000,
            totals: BTreeMap::new(),
            layer_ns: 0,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span (the first one of an operation is its root).
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        let idx = self.current.len() as u32;
        self.current.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            op: self.next_op,
            client: self.client,
        });
        self.open.push(idx);
    }

    /// Closes the innermost open span; closing the root settles the
    /// operation's self times.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("exit matches an enter") as usize;
        self.current[idx].end_ns = self.now_ns();
        if self.open.is_empty() {
            self.settle();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    fn settle(&mut self) {
        // Children of one thread's span run one after another, so the
        // time they cover is the sum of their durations.
        let mut child_ns = vec![0u64; self.current.len()];
        for s in &self.current {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
                if p == 0 {
                    self.layer_ns += s.end_ns - s.start_ns;
                }
            }
        }
        for (s, child) in self.current.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = self.totals.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        let room = self.cap.saturating_sub(self.kept.len());
        self.kept.extend(self.current.iter().take(room).copied());
        self.current.clear();
        self.next_op += 1;
    }
}

/// Sums span totals over several tracers.
pub fn merge_totals<'a>(
    tracers: impl IntoIterator<Item = &'a Tracer>,
) -> BTreeMap<&'static str, SpanTotals> {
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for t in tracers {
        for (name, s) in &t.totals {
            let o = out.entry(name).or_default();
            o.count += s.count;
            o.total_ns += s.total_ns;
            o.self_ns += s.self_ns;
        }
    }
    out
}

/// Writes the kept spans as JSON lines, followed by one line of
/// per-name totals with self times.
pub fn write_trace(
    path: &std::path::Path,
    tracers: &[&Tracer],
    totals: &BTreeMap<&'static str, SpanTotals>,
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for t in tracers {
        for s in &t.kept {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{},\"client\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op, s.client
            )?;
        }
    }
    let body: Vec<String> = totals
        .iter()
        .map(|(n, t)| {
            format!(
                "\"{n}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            )
        })
        .collect();
    writeln!(out, "{{\"totals\":{{{}}}}}", body.join(","))?;
    out.flush()
}

/// `wchar` and `syscw` from `/proc/self/io`: bytes and write calls the
/// process has issued.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProcIo {
    pub wchar: u64,
    pub syscw: u64,
}

impl ProcIo {
    pub fn read() -> Self {
        let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
        let field = |key: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0)
        };
        ProcIo {
            wchar: field("wchar:"),
            syscw: field("syscw:"),
        }
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn rss_peak_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
