//! End-to-end benchmark of the nf2 engine.
//!
//! ```text
//! nf2-perfbench --workload <point-read|durable-write|mixed-scan>
//!               --seed <n> --seconds <s> --trace <0|1>
//!               [--data-dir <dir>] [--commit <id>]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! it runs the workload untraced and then traced, and prints the
//! per-layer metrics. Every metric is printed as a `metric` line with
//! its unit and sample count, and the last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! See `README.md` for the workloads and the layer → metric map.

mod data;
mod ledger;
mod rng;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;

use nf2_obs::MetricsSnapshot;

use data::{Universe, World};
use ledger::{merge_totals, percentile_us, rss_peak_mb};
use rng::Rng;
use workloads::{History, Phase, Quiet, Recovery};

/// Engine settings the benchmark pins itself; any of them set in the
/// environment would change what is measured.
const REFUSED_ENV: [&str; 4] = [
    "NF2_SHARDS",
    "NF2_GROUP_COMMIT_US",
    "NF2_SLOW_US",
    "NF2_VERIFY",
];

/// The metrics `--trace 0` reports (`BENCHMARK.json` `end_to_end`).
const END_TO_END: [&str; 4] = ["setup_s", "throughput_ops", "lookup_p50_us", "rss_peak_mb"];

/// The metrics `--trace 1` reports (`BENCHMARK.json` `per_layer`).
const PER_LAYER: [&str; 31] = [
    "parser.parse_us",
    "prepare.build_us",
    "prepare.optimize_us",
    "prepare.verify_us",
    "prepare.compile_us",
    "cursor.lookup_us",
    "cursor.rows_per_lookup",
    "table.probes_per_lookup",
    "table.probes_per_scan",
    "table.segments_skipped_per_scan",
    "table.pins_per_op",
    "segment.topk_probes",
    "segment.stale_shards",
    "segment.merge_ratio",
    "maintenance.candidate_probes_per_write",
    "maintenance.compositions_per_write",
    "maintenance.decompositions_per_write",
    "maintenance.recons_per_write",
    "mvcc.commit_us",
    "mvcc.lock_wait_us",
    "mvcc.coalesced_ratio",
    "wal.flush_us",
    "wal.bytes_per_write",
    "wal.syscalls_per_write",
    "wal.group_size",
    "checkpoint.ms",
    "checkpoint.bytes",
    "recovery.wal_entries",
    "bench.writer_lag_p99_us",
    "bench.trace_overhead",
    "bench.span_coverage",
];

/// `--trace 0` sets up at least `MIN_SETUPS` times and until
/// `SETUP_BUDGET_S` seconds have gone into set-up, at most `MAX_SETUPS`
/// times; `setup_s` is the median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PointRead,
    DurableWrite,
    MixedScan,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "point-read" => Some(Workload::PointRead),
            "durable-write" => Some(Workload::DurableWrite),
            "mixed-scan" => Some(Workload::MixedScan),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PointRead => "point-read",
            Workload::DurableWrite => "durable-write",
            Workload::MixedScan => "mixed-scan",
        }
    }

    fn students(self) -> usize {
        match self {
            Workload::PointRead => 40_000,
            Workload::DurableWrite | Workload::MixedScan => 4_000,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    data_dir: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut data_dir = PathBuf::from(".bench_data");
    let mut commit = "unknown".to_owned();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--data-dir" => data_dir = PathBuf::from(value),
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        data_dir,
        commit,
    })
}

/// The metrics and verdict of one run.
#[derive(Debug, Default)]
struct Report {
    /// The metrics of the final JSON line, in order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// `metric` lines: name, value, unit, samples.
    lines: Vec<(String, f64, &'static str, u64)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    /// A metric of the JSON line (and its `metric` line).
    fn key(&mut self, name: &'static str, value: f64, unit: &'static str, n: u64) {
        self.metrics.push((name, value, unit));
        self.info(name, value, unit, n);
    }

    /// A `metric` line only.
    fn info(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: u64) {
        self.lines.push((name.into(), value, unit, n));
    }

    fn absorb_verdicts(&mut self, phase: &Phase) {
        self.attempted += phase.attempted();
        self.failed += phase.failed();
        self.problems.extend(phase.mismatches());
    }

    fn absorb_recovery(&mut self, r: &Recovery) {
        self.attempted += 1;
        if !r.correct {
            self.failed += 1;
            self.problems.extend(r.problem.clone());
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Builds the world repeatedly (dropping each before the next, see
/// `MIN_SETUPS`; once when `once`) and returns the last one with every
/// set-up time.
fn set_up(
    once: bool,
    mut build: impl FnMut() -> Result<World, String>,
) -> Result<(World, Vec<f64>), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut world = None;
    loop {
        drop(world.take());
        let t0 = Instant::now();
        world = Some(build()?);
        times.push(t0.elapsed().as_secs_f64());
        let spent: f64 = times.iter().sum();
        if once
            || times.len() >= MAX_SETUPS
            || (times.len() >= MIN_SETUPS && spent >= SETUP_BUDGET_S)
        {
            return Ok((world.expect("built above"), times));
        }
    }
}

fn report_load(r: &mut Report, world: &World) {
    let l = &world.load;
    r.info("load.flat_rows", l.flat_rows as f64, "count", 1);
    r.info("load.tuples", l.tuples as f64, "count", 1);
    for (s, n) in l.per_shard.iter().enumerate() {
        r.info(format!("load.shard{s}.tuples"), *n as f64, "count", 1);
    }
}

/// Latency metrics of one operation kind (`metric` lines).
fn latency_lines(r: &mut Report, sorted: &[u64], kind: &str, pcts: &[(&'static str, f64)]) {
    if sorted.is_empty() {
        return;
    }
    for (suffix, p) in pcts {
        r.info(
            format!("{kind}_{suffix}_us"),
            percentile_us(sorted, *p),
            "us",
            sorted.len() as u64,
        );
    }
}

/// The end-to-end metrics of an untraced phase. Throughput and
/// latencies come from the phase's quiet windows.
fn end_to_end(r: &mut Report, phase: &Phase, setup: &[f64], recovery: Option<&Recovery>) {
    let all = phase.samples();
    let quiet = phase.quiet_windows();
    let (throughput, counted) = phase.throughput();
    let lookups = all.sorted("lookup", &quiet);
    r.key("setup_s", median(setup), "s", setup.len() as u64);
    r.key("throughput_ops", throughput, "1/s", counted);
    r.key(
        "lookup_p50_us",
        percentile_us(&lookups, 50.0),
        "us",
        lookups.len() as u64,
    );
    r.info(
        "lookup_p99_us",
        percentile_us(&lookups, 99.0),
        "us",
        lookups.len() as u64,
    );
    let both = [("p50", 50.0), ("p99", 99.0)];
    for (kind, pcts) in [
        ("join", &both[..]),
        ("adhoc", &both[..1]),
        ("topk", &both[..]),
        ("scan", &both[..]),
        ("write", &both[..]),
    ] {
        latency_lines(r, &all.sorted(kind, &quiet), kind, pcts);
    }
    if let Some(rec) = recovery {
        r.info("recovery_s", rec.seconds, "s", 1);
    }
    let attempted = phase.attempted() + u64::from(recovery.is_some());
    let failed = phase.failed() + u64::from(recovery.is_some_and(|x| !x.correct));
    r.info(
        "error_rate",
        ratio(failed as f64, attempted as f64),
        "ratio",
        attempted,
    );
    println!("# ops per one-second window: {:?}", phase.windows());
}

/// Mean of a histogram series over the phase (`Δsum ÷ Δcount`).
fn hist_mean(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> (f64, u64) {
    let get = |m: &MetricsSnapshot| {
        m.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map_or((0, 0), |(_, h)| (h.sum, h.count))
    };
    let ((s0, c0), (s1, c1)) = (get(before), get(after));
    (ratio((s1 - s0) as f64, (c1 - c0) as f64), c1 - c0)
}

/// The per-layer metrics of a traced phase, whose spans go to
/// `trace_file`. `untraced` is the same workload's throughput with
/// tracing off.
fn per_layer(
    r: &mut Report,
    phase: &Phase,
    untraced: f64,
    recovery: Option<&Recovery>,
    trace_file: &Path,
) {
    let (b, a): (&Quiet, &Quiet) = (&phase.before, &phase.after);
    let tracers: Vec<&ledger::Tracer> = phase.all().map(|c| &c.tracer).collect();
    let totals = merge_totals(tracers.iter().copied());
    if let Err(e) = ledger::write_trace(trace_file, &tracers, &totals) {
        eprintln!("writing {}: {e}", trace_file.display());
    }
    let span = |name: &str| totals.get(name).copied().unwrap_or_default();
    let mean_us = |name: &str| {
        let t = span(name);
        (ratio(t.total_ns as f64, t.count as f64) / 1e3, t.count)
    };
    let t = phase.tally();
    let all_ops: u64 = phase.all().map(|c| c.ops).sum();
    let writes = t.writes as f64;
    let mut put =
        |name: &'static str, (v, n): (f64, u64), unit: &'static str| r.key(name, v, unit, n);

    put("parser.parse_us", mean_us("parse"), "us");
    for (name, series) in [
        ("prepare.build_us", "plan.build.us"),
        ("prepare.optimize_us", "plan.optimize.us"),
        ("prepare.verify_us", "plan.verify.us"),
        ("prepare.compile_us", "plan.compile.us"),
    ] {
        put(name, hist_mean(&b.metrics, &a.metrics, series), "us");
    }

    put("cursor.lookup_us", mean_us("op.lookup"), "us");
    put(
        "cursor.rows_per_lookup",
        (ratio(t.lookup_rows as f64, t.lookups as f64), t.lookups),
        "count",
    );
    // One thread reads in point-read and mixed-scan, so each lookup's
    // probes are counted around it; in durable-write lookups are the
    // only scans, so the phase delta divides evenly.
    let probes_per_lookup = if t.probed_lookups > 0 {
        ratio(t.lookup_probes as f64, t.probed_lookups as f64)
    } else {
        ratio(
            (a.stats.units_probed - b.stats.units_probed) as f64,
            t.lookups as f64,
        )
    };
    put(
        "table.probes_per_lookup",
        (probes_per_lookup, t.lookups),
        "count",
    );
    put(
        "table.probes_per_scan",
        (ratio(t.scan_probes as f64, t.scans as f64), t.scans),
        "count",
    );
    put(
        "table.segments_skipped_per_scan",
        (ratio(t.scan_skipped as f64, t.scans as f64), t.scans),
        "count",
    );
    let pins = (a.stats.snapshot_pins - b.stats.snapshot_pins).saturating_sub(t.harness_pins);
    put(
        "table.pins_per_op",
        (ratio(pins as f64, all_ops as f64), all_ops),
        "count",
    );

    let topks = t.topks as f64;
    put(
        "segment.topk_probes",
        (ratio(t.topk_probes as f64, topks), t.topks),
        "count",
    );
    put(
        "segment.stale_shards",
        (ratio(t.topk_stale as f64, topks), t.topks),
        "count",
    );
    put(
        "segment.merge_ratio",
        (ratio(t.topk_merged as f64, topks), t.topks),
        "ratio",
    );

    let per_write = |x: u64, y: u64| (ratio((x - y) as f64, writes), t.writes);
    put(
        "maintenance.candidate_probes_per_write",
        per_write(a.maint.candidate_probes, b.maint.candidate_probes),
        "count",
    );
    put(
        "maintenance.compositions_per_write",
        per_write(a.maint.compositions, b.maint.compositions),
        "count",
    );
    put(
        "maintenance.decompositions_per_write",
        per_write(a.maint.decompositions, b.maint.decompositions),
        "count",
    );
    put(
        "maintenance.recons_per_write",
        per_write(a.maint.recons_calls, b.maint.recons_calls),
        "count",
    );

    put("mvcc.commit_us", mean_us("prepared.execute"), "us");
    put(
        "mvcc.lock_wait_us",
        hist_mean(&b.metrics, &a.metrics, "table.sc.lock_wait.us"),
        "us",
    );
    let installs = a.stats.epoch_installs - b.stats.epoch_installs;
    let epochs = a.epoch - b.epoch;
    put(
        "mvcc.coalesced_ratio",
        (
            ratio(installs.saturating_sub(epochs) as f64, installs as f64),
            installs,
        ),
        "ratio",
    );

    put("wal.flush_us", mean_us("wal.flush"), "us");
    put(
        "wal.bytes_per_write",
        per_write(a.io.wchar, b.io.wchar),
        "B",
    );
    put(
        "wal.syscalls_per_write",
        per_write(a.io.syscw, b.io.syscw),
        "count",
    );
    put(
        "wal.group_size",
        hist_mean(&b.metrics, &a.metrics, "wal.group.size"),
        "count",
    );

    let (ckpt_us, ckpts) = mean_us("engine.checkpoint");
    put("checkpoint.ms", (ckpt_us / 1e3, ckpts), "ms");
    let bytes: u64 = t.checkpoint_bytes.iter().sum();
    put(
        "checkpoint.bytes",
        (
            ratio(bytes as f64, t.checkpoint_bytes.len() as f64),
            t.checkpoint_bytes.len() as u64,
        ),
        "B",
    );
    put(
        "recovery.wal_entries",
        (
            recovery.map_or(0.0, |x| x.wal_entries as f64),
            u64::from(recovery.is_some()),
        ),
        "count",
    );

    let mut lags: Vec<u64> = phase
        .writer
        .iter()
        .flat_map(|w| w.lags.iter().copied())
        .collect();
    lags.sort_unstable();
    put(
        "bench.writer_lag_p99_us",
        (percentile_us(&lags, 99.0), lags.len() as u64),
        "us",
    );
    let traced = phase.throughput().0;
    put(
        "bench.trace_overhead",
        (ratio(traced, untraced), 2),
        "ratio",
    );
    let covered: u64 = phase.clients.iter().map(|c| c.tracer.layer_ns).sum();
    let wall: u64 = phase.clients.iter().map(|c| c.wall_ns).sum();
    put(
        "bench.span_coverage",
        (
            ratio(covered as f64, wall as f64),
            phase.clients.len() as u64,
        ),
        "ratio",
    );

    for (name, s) in &totals {
        r.info(
            format!("self.{name}_us"),
            ratio(s.self_ns as f64, s.count as f64) / 1e3,
            "us",
            s.count,
        );
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let mut rng = Rng::new(args.seed);
    let u = Universe::generate(args.workload.students(), &mut rng.fork(1));
    let phase_rng = rng.fork(2);
    // A traced run splits its time: untraced first, then traced.
    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut r = Report::default();
    std::fs::create_dir_all(&args.data_dir)
        .map_err(|e| format!("creating {}: {e}", args.data_dir.display()))?;
    let trace_file = args
        .data_dir
        .join(format!("trace-{}.jsonl", args.workload.name()));
    match args.workload {
        Workload::PointRead => {
            let (world, times) = set_up(args.trace, || {
                let w = data::build_world(&u, None, false)?;
                data::check_topk_plan(&w.engine.session())?;
                Ok(w)
            })?;
            report_load(&mut r, &world);
            let untraced = workloads::point_read(&world, &u, false, secs, &mut phase_rng.clone());
            r.absorb_verdicts(&untraced);
            if args.trace {
                let traced = workloads::point_read(&world, &u, true, secs, &mut phase_rng.clone());
                r.absorb_verdicts(&traced);
                per_layer(&mut r, &traced, untraced.throughput().0, None, &trace_file);
            } else {
                end_to_end(&mut r, &untraced, &times, None);
            }
        }
        Workload::DurableWrite => {
            let dir = args
                .data_dir
                .join(format!("durable-write-{}", std::process::id()));
            let (world, times) = set_up(args.trace, || data::build_world(&u, Some(&dir), true))?;
            report_load(&mut r, &world);
            let (untraced, model) =
                workloads::durable_write(&world, &u, false, secs, &mut phase_rng.clone());
            r.absorb_verdicts(&untraced);
            let recovered = workloads::recover(world, &u, &model)?;
            r.absorb_recovery(&recovered);
            if args.trace {
                // Autoflush off: the harness flushes after each write,
                // so the flush is timed apart from the commit.
                let world = data::build_world(&u, Some(&dir), false)?;
                let (traced, model) =
                    workloads::durable_write(&world, &u, true, secs, &mut phase_rng.clone());
                r.absorb_verdicts(&traced);
                let rec = workloads::recover(world, &u, &model)?;
                r.absorb_recovery(&rec);
                per_layer(
                    &mut r,
                    &traced,
                    untraced.throughput().0,
                    Some(&rec),
                    &trace_file,
                );
            } else {
                end_to_end(&mut r, &untraced, &times, Some(&recovered));
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        Workload::MixedScan => {
            let (world, times) = set_up(args.trace, || data::build_world(&u, None, false))?;
            report_load(&mut r, &world);
            let history = Mutex::new(History::new(&u.initial));
            let untraced =
                workloads::mixed_scan(&world, &u, &history, false, secs, &mut phase_rng.clone());
            r.absorb_verdicts(&untraced);
            if args.trace {
                let traced =
                    workloads::mixed_scan(&world, &u, &history, true, secs, &mut phase_rng.clone());
                r.absorb_verdicts(&traced);
                per_layer(&mut r, &traced, untraced.throughput().0, None, &trace_file);
            } else {
                end_to_end(&mut r, &untraced, &times, None);
            }
            if world.engine.dict().len() != u.students.len() + u.courses.len() + u.profs.len() {
                r.problems
                    .push("the run interned values outside the pre-interned universe".into());
                r.failed += 1;
            }
        }
    }
    if !args.trace {
        r.key("rss_peak_mb", rss_peak_mb(), "MB", 1);
    }
    Ok(r)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn main() -> ExitCode {
    let set: Vec<&str> = REFUSED_ENV
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "refusing to run with {} set: the benchmark pins these settings itself",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nf2-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# nf2-perfbench workload={} seed={} seconds={} trace={} nproc={nproc} commit={} profile={profile}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.commit,
    );
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("nf2-perfbench: set-up failed: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    assert_eq!(
        names, expected,
        "the JSON line carries exactly the declared metrics"
    );
    for (name, value, unit, n) in &report.lines {
        println!("metric {name} = {value} {unit} (n={n})");
    }
    for p in &report.problems {
        println!("FAIL {p}");
    }
    let correct = report.failed == 0 && report.problems.is_empty();
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
