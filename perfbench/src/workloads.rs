//! The three workloads. Each client drives the engine only through its
//! public API, times every operation, and checks every answer against
//! the benchmark's own model of the data.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use nf2_core::maintenance::CostCounter;
use nf2_core::value::Atom;
use nf2_obs::MetricsSnapshot;
use nf2_query::{Cursor, Output, Prepared, Session};
use nf2_storage::{NfTable, TableStats};

use crate::data::{self, CourseSet, Oracle, TopTuple, Universe, World, COURSES, SHARDS, TOPK};
use crate::ledger::{ProcIo, Samples, Tracer};
use crate::rng::{Rng, Zipf};

/// Zipf exponent of the key popularity.
pub const ZIPF_S: f64 = 0.99;
/// `durable-write` checkpoints after every this many writes.
pub const CHECKPOINT_EVERY: u64 = 500;
/// `mixed-scan`'s open-loop writer rate, in writes per second.
pub const WRITER_RATE: f64 = 20.0;

/// Engine state read by the main thread while no client runs.
#[derive(Debug, Clone)]
pub struct Quiet {
    pub stats: TableStats,
    pub metrics: MetricsSnapshot,
    pub maint: CostCounter,
    pub epoch: u64,
    pub io: ProcIo,
}

impl Quiet {
    pub fn take(world: &World) -> Self {
        let sc = world.engine.table("sc").expect("sc is attached at set-up");
        Quiet {
            stats: sc.stats(),
            metrics: world.engine.metrics(),
            maint: sc.maintenance_breakdown().total,
            epoch: sc.epoch(),
            io: ProcIo::read(),
        }
    }
}

/// Per-operation counts a client keeps for the per-layer metrics. The
/// probe counters are read around each operation only where one thread
/// is the table's only reader, so no other thread moves them in
/// between.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub lookups: u64,
    pub lookup_rows: u64,
    pub lookup_probes: u64,
    /// Lookups whose probes were counted one by one.
    pub probed_lookups: u64,
    pub scans: u64,
    pub scan_probes: u64,
    pub scan_skipped: u64,
    pub topks: u64,
    pub topk_probes: u64,
    pub topk_merged: u64,
    pub topk_stale: u64,
    /// Snapshots the harness itself pinned (the staleness probe).
    pub harness_pins: u64,
    pub writes: u64,
    pub checkpoint_bytes: Vec<u64>,
}

impl Tally {
    fn add(&mut self, o: &Tally) {
        self.lookups += o.lookups;
        self.lookup_rows += o.lookup_rows;
        self.lookup_probes += o.lookup_probes;
        self.probed_lookups += o.probed_lookups;
        self.scans += o.scans;
        self.scan_probes += o.scan_probes;
        self.scan_skipped += o.scan_skipped;
        self.topks += o.topks;
        self.topk_probes += o.topk_probes;
        self.topk_merged += o.topk_merged;
        self.topk_stale += o.topk_stale;
        self.harness_pins += o.harness_pins;
        self.writes += o.writes;
        self.checkpoint_bytes.extend(&o.checkpoint_bytes);
    }
}

/// What one client thread hands back.
#[derive(Debug)]
pub struct ClientOut {
    pub samples: Samples,
    pub tracer: Tracer,
    pub tally: Tally,
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    pub wall_ns: u64,
    /// Operations completed in each whole second of the phase.
    pub windows: Vec<u64>,
    /// Open-loop writer only: how late each write started.
    pub lags: Vec<u64>,
}

/// One timed phase of a workload.
#[derive(Debug)]
pub struct Phase {
    /// Closed-loop clients.
    pub clients: Vec<ClientOut>,
    /// The open-loop writer, if the workload has one.
    pub writer: Option<ClientOut>,
    pub before: Quiet,
    pub after: Quiet,
}

impl Phase {
    /// Every client of the phase, the open-loop writer included.
    pub fn all(&self) -> impl Iterator<Item = &ClientOut> {
        self.clients.iter().chain(&self.writer)
    }

    pub fn samples(&self) -> Samples {
        let mut s = Samples::default();
        for c in self.all() {
            s.absorb(&c.samples);
        }
        s
    }

    /// Operations the closed-loop clients completed in each whole
    /// one-second window of the phase.
    pub fn windows(&self) -> Vec<u64> {
        let whole = self
            .clients
            .iter()
            .map(|c| c.wall_ns / 1_000_000_000)
            .min()
            .unwrap_or(0);
        (0..whole as usize)
            .map(|w| {
                self.clients
                    .iter()
                    .map(|c| c.windows.get(w).copied().unwrap_or(0))
                    .sum()
            })
            .collect()
    }

    /// The quieter half of the phase: the whole windows in which the
    /// closed-loop clients completed the most operations. Other tenants
    /// of a shared machine slow a run in bursts of a second or more;
    /// a slower engine slows every window. Phases shorter than two
    /// whole windows select everything.
    pub fn quiet_windows(&self) -> Vec<bool> {
        let counts = self.windows();
        if counts.len() < 2 {
            return vec![true; counts.len() + 1];
        }
        let mut order: Vec<usize> = (0..counts.len()).collect();
        order.sort_by_key(|&w| std::cmp::Reverse(counts[w]));
        let mut quiet = vec![false; counts.len()];
        for &w in &order[..counts.len().div_ceil(2)] {
            quiet[w] = true;
        }
        quiet
    }

    /// Closed-loop operations completed per second over the quiet
    /// windows (the whole phase if it is shorter than two windows),
    /// with the number of operations that rate counts.
    pub fn throughput(&self) -> (f64, u64) {
        let counts = self.windows();
        if counts.len() < 2 {
            let ops: u64 = self.clients.iter().map(|c| c.ops).sum();
            let wall = self.clients.iter().map(|c| c.wall_ns).max().unwrap_or(1) as f64 / 1e9;
            return (ops as f64 / wall, ops);
        }
        let quiet = self.quiet_windows();
        let picked: Vec<u64> = counts
            .iter()
            .zip(&quiet)
            .filter(|(_, q)| **q)
            .map(|(c, _)| *c)
            .collect();
        let ops = picked.iter().sum::<u64>();
        (ops as f64 / picked.len() as f64, ops)
    }

    pub fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for c in self.all() {
            t.add(&c.tally);
        }
        t
    }

    pub fn attempted(&self) -> u64 {
        self.all().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.all().map(|c| c.failed).sum()
    }

    pub fn mismatches(&self) -> Vec<String> {
        self.all()
            .flat_map(|c| c.mismatches.iter().cloned())
            .collect()
    }
}

/// An operation's latency in nanoseconds, and its answer or error.
type Timed<T> = (u64, Result<T, String>);

/// A client's connection: a session, its prepared statements and the
/// bookkeeping every operation shares.
struct Client<'e> {
    session: Session<'e>,
    sc: Arc<NfTable>,
    u: &'e Universe,
    world: &'e World,
    lookup: Prepared,
    join: Prepared,
    topk: Prepared,
    scan: Prepared,
    insert: Prepared,
    delete: Prepared,
    tr: Tracer,
    samples: Samples,
    tally: Tally,
    /// Take per-operation counter deltas (single reader only).
    per_op: bool,
    /// Flush the WAL from the harness after each write (traced
    /// `durable-write`, where the engine's autoflush is off).
    harness_flush: bool,
    ops: u64,
    /// Start of the timed phase, and completions per second since.
    start: Instant,
    windows: Vec<u64>,
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
}

impl<'e> Client<'e> {
    fn new(world: &'e World, u: &'e Universe, traced: bool, origin: Instant, id: u32) -> Self {
        let session = world.engine.session();
        let prep = |sql: &str| session.prepare(sql).expect("benchmark statements prepare");
        Client {
            lookup: prep(data::LOOKUP_SQL),
            join: prep(data::JOIN_SQL),
            topk: prep(data::TOPK_SQL),
            scan: prep(data::SCAN_SQL),
            insert: prep(data::INSERT_SQL),
            delete: prep(data::DELETE_SQL),
            sc: world.engine.table("sc").expect("sc is attached at set-up"),
            session,
            u,
            world,
            tr: Tracer::new(traced, origin, id),
            samples: Samples::default(),
            tally: Tally::default(),
            per_op: false,
            harness_flush: false,
            ops: 0,
            start: Instant::now(),
            windows: Vec::new(),
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
        }
    }

    /// Marks the start of the timed phase.
    fn begin(&mut self) -> Instant {
        self.start = Instant::now();
        self.start
    }

    fn finish(self, lags: Vec<u64>) -> ClientOut {
        ClientOut {
            wall_ns: self.start.elapsed().as_nanos() as u64,
            windows: self.windows,
            samples: self.samples,
            tracer: self.tr,
            tally: self.tally,
            ops: self.ops,
            attempted: self.attempted,
            failed: self.failed,
            mismatches: self.mismatches,
            lags,
        }
    }

    /// Settles one operation: its latency, its verdict, and its
    /// completion.
    fn settle(&mut self, kind: &'static str, ns: u64, verdict: Result<bool, String>) {
        self.samples.push(kind, self.window(), ns);
        self.judge(kind, verdict);
        self.complete();
    }

    /// The one-second window of the phase now running.
    fn window(&self) -> usize {
        self.start.elapsed().as_secs() as usize
    }

    /// Counts one checked answer.
    fn judge(&mut self, what: &str, verdict: Result<bool, String>) {
        self.attempted += 1;
        let problem = match verdict {
            Ok(true) => return,
            Ok(false) => format!("{what}: wrong answer"),
            Err(e) => format!("{what}: error: {e}"),
        };
        self.failed += 1;
        if self.mismatches.len() < 8 {
            self.mismatches.push(problem);
        }
    }

    /// Counts one completed operation of the mix.
    fn complete(&mut self) {
        self.ops += 1;
        let window = self.window();
        if self.windows.len() <= window {
            self.windows.resize(window + 1, 0);
        }
        self.windows[window] += 1;
    }

    fn scan_counters(&self) -> Option<TableStats> {
        self.per_op.then(|| self.sc.stats())
    }

    /// Prepared point lookup; returns the `(Student, Course)` rows.
    fn lookup(&mut self, s: usize) -> Timed<Vec<(Atom, Atom)>> {
        let before = self.scan_counters();
        self.tr.enter("op.lookup");
        let t0 = Instant::now();
        self.tr.enter("prepared.query");
        let cur = self
            .lookup
            .query(&self.session, &[self.u.students[s].as_str()]);
        self.tr.exit();
        let rows = cur.map_err(|e| e.to_string()).and_then(|c| {
            self.tr
                .span("cursor.drain", || drain_pairs(c, "Student", "Course"))
        });
        let ns = t0.elapsed().as_nanos() as u64;
        self.tr.exit();
        if let Ok(r) = &rows {
            self.tally.lookups += 1;
            self.tally.lookup_rows += r.len() as u64;
            if let Some(b) = before {
                self.tally.lookup_probes += self.sc.stats().units_probed - b.units_probed;
                self.tally.probed_lookups += 1;
            }
        }
        (ns, rows)
    }

    fn join(&mut self, s: usize) -> Timed<Vec<(Atom, Atom, Atom)>> {
        self.tr.enter("op.join");
        let t0 = Instant::now();
        self.tr.enter("prepared.query");
        let cur = self
            .join
            .query(&self.session, &[self.u.students[s].as_str()]);
        self.tr.exit();
        let rows = cur.map_err(|e| e.to_string()).and_then(|c| {
            self.tr.span("cursor.drain", || {
                let schema = c.schema().clone();
                let col = |n| schema.attr_id(n).map_err(|e| e.to_string());
                let (s, co, p) = (col("Student")?, col("Course")?, col("Prof")?);
                Ok(c.flat_rows().map(|r| (r[s], r[co], r[p])).collect())
            })
        });
        let ns = t0.elapsed().as_nanos() as u64;
        self.tr.exit();
        (ns, rows)
    }

    /// Ad-hoc literal SELECT: parse and plan on every call. Untraced it
    /// goes through `Session::run`; traced it takes the same two steps
    /// `run` takes, so parse and execute get spans of their own.
    fn adhoc(&mut self, s: usize) -> Timed<Vec<(Atom, Atom)>> {
        let sql = data::adhoc_sql(&self.u.students[s]);
        self.tr.enter("op.adhoc");
        let t0 = Instant::now();
        let out = if self.tr.is_enabled() {
            self.tr.enter("parse");
            let stmt = nf2_query::parse(&sql);
            self.tr.exit();
            match stmt {
                Ok(stmt) => self
                    .tr
                    .span("session.execute", || self.session.execute(stmt)),
                Err(e) => Err(e.into()),
            }
        } else {
            self.session.run(&sql)
        };
        let ns = t0.elapsed().as_nanos() as u64;
        self.tr.exit();
        let rows = match out {
            Ok(Output::Relation { relation, .. }) => {
                let schema = relation.schema().clone();
                match (schema.attr_id("Student"), schema.attr_id("Course")) {
                    (Ok(a), Ok(b)) => Ok(relation.expand().rows().map(|r| (r[a], r[b])).collect()),
                    (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
                }
            }
            Ok(other) => Err(format!("unexpected output {other:?}")),
            Err(e) => Err(e.to_string()),
        };
        (ns, rows)
    }

    fn topk(&mut self) -> Timed<Vec<TopTuple>> {
        let before = if self.per_op {
            let snap = self.sc.snapshot();
            self.tally.harness_pins += 1;
            let stale = (0..snap.shard_count())
                .filter(|&s| !snap.shard_segments(s).is_fresh())
                .count();
            self.tally.topk_stale += stale as u64;
            Some(self.sc.stats())
        } else {
            None
        };
        self.tr.enter("op.topk");
        let t0 = Instant::now();
        self.tr.enter("prepared.query");
        let cur = self.topk.query(&self.session, nf2_query::NO_PARAMS);
        self.tr.exit();
        let codes = &self.world.codes;
        let tuples = cur.map_err(|e| e.to_string()).and_then(|c| {
            self.tr.span("cursor.drain", || {
                let schema = c.schema().clone();
                let col = |n| schema.attr_id(n).map_err(|e| e.to_string());
                let (si, ci) = (col("Student")?, col("Course")?);
                c.map(|t| {
                    let t = t.as_tuple();
                    let students = t
                        .component(si)
                        .iter()
                        .map(|a| codes.student_of(a))
                        .collect::<Option<Vec<usize>>>();
                    let mut courses = CourseSet::default();
                    for a in t.component(ci).iter() {
                        courses.insert(codes.course_of(a).ok_or("unknown course atom")?);
                    }
                    Ok(TopTuple {
                        students: students.ok_or("unknown student atom")?,
                        courses,
                    })
                })
                .collect::<Result<Vec<_>, String>>()
            })
        });
        let ns = t0.elapsed().as_nanos() as u64;
        self.tr.exit();
        if let (Some(b), Ok(_)) = (before, &tuples) {
            let probes = self.sc.stats().units_probed - b.units_probed;
            self.tally.topk_probes += probes;
            self.tally.topk_merged += u64::from(probes <= (TOPK + SHARDS) as u64);
            self.tally.topks += 1;
        }
        (ns, tuples)
    }

    /// Non-routing equality scan: the students taking course `c`.
    fn scan(&mut self, c: usize) -> Timed<Vec<(Atom, Atom)>> {
        let before = self.scan_counters();
        self.tr.enter("op.scan");
        let t0 = Instant::now();
        self.tr.enter("prepared.query");
        let cur = self
            .scan
            .query(&self.session, &[self.u.courses[c].as_str()]);
        self.tr.exit();
        let rows = cur.map_err(|e| e.to_string()).and_then(|cur| {
            self.tr
                .span("cursor.drain", || drain_pairs(cur, "Student", "Course"))
        });
        let ns = t0.elapsed().as_nanos() as u64;
        self.tr.exit();
        if let (Some(b), Ok(_)) = (before, &rows) {
            let a = self.sc.stats();
            self.tally.scan_probes += a.units_probed - b.units_probed;
            self.tally.scan_skipped += a.segments_skipped - b.segments_skipped;
            self.tally.scans += 1;
        }
        (ns, rows)
    }

    /// One point write: inserts `course` for `student`, or deletes it.
    /// Succeeds only if exactly one row changed.
    fn write(&mut self, student: usize, course: usize, insert: bool) -> Timed<bool> {
        let params = [
            self.u.students[student].as_str(),
            self.u.courses[course].as_str(),
        ];
        self.tr.enter("op.write");
        let t0 = Instant::now();
        self.tr.enter("prepared.execute");
        let stmt = if insert {
            &mut self.insert
        } else {
            &mut self.delete
        };
        let out = stmt.execute(&mut self.session, &params);
        self.tr.exit();
        let flushed = match (&self.world.dir, self.harness_flush) {
            (Some(dir), true) => self
                .tr
                .span("wal.flush", || self.sc.flush_wal(dir))
                .map_err(|e| e.to_string()),
            _ => Ok(()),
        };
        let ns = t0.elapsed().as_nanos() as u64;
        self.tr.exit();
        self.tally.writes += 1;
        let verdict = match (out, flushed) {
            (Err(e), _) => Err(e.to_string()),
            (_, Err(e)) => Err(e),
            (Ok(Output::Affected(n)), Ok(())) => Ok(n == 1),
            (Ok(other), Ok(())) => Err(format!("unexpected output {other:?}")),
        };
        (ns, verdict)
    }

    fn checkpoint(&mut self) -> Result<bool, String> {
        self.tr.enter("op.checkpoint");
        let out = self
            .tr
            .span("engine.checkpoint", || self.world.engine.checkpoint());
        self.tr.exit();
        out.map_err(|e| e.to_string())?;
        let dir = self
            .world
            .dir
            .as_deref()
            .ok_or("checkpoint without a data directory")?;
        self.tally.checkpoint_bytes.push(checkpoint_bytes(dir));
        Ok(true)
    }
}

fn drain_pairs(c: Cursor<'static>, a: &str, b: &str) -> Result<Vec<(Atom, Atom)>, String> {
    let schema = c.schema().clone();
    let col = |n| schema.attr_id(n).map_err(|e| e.to_string());
    let (ia, ib) = (col(a)?, col(b)?);
    Ok(c.flat_rows().map(|r| (r[ia], r[ib])).collect())
}

/// Bytes of the checkpoint files (`*.meta`, `*.pages`) in `dir`.
fn checkpoint_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter(|e| {
                    let p = e.path();
                    matches!(
                        p.extension().and_then(|x| x.to_str()),
                        Some("meta" | "pages")
                    )
                })
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Chooses the next write for a student so course sets stay at 4 to 6
/// members: grow below 5, shrink above, and flip a coin at 5. Draws
/// only from the pre-interned course pool.
fn next_write(set: &CourseSet, rng: &mut Rng) -> (usize, bool) {
    let n = set.len();
    let insert = n < 5 || (n == 5 && rng.below(2) == 0);
    if insert {
        loop {
            let c = rng.below(COURSES);
            if !set.contains(c) {
                return (c, true);
            }
        }
    }
    (set.nth(rng.below(n)), false)
}

/// Runs client closures between two barriers, so the main thread reads
/// the engine state while no client runs.
fn run_clients(
    world: &World,
    n: usize,
    body: impl Fn(usize, &Barrier) -> ClientOut + Sync,
) -> (Vec<ClientOut>, Quiet, Quiet) {
    let gate = Barrier::new(n + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let (gate, body) = (&gate, &body);
                scope.spawn(move || body(i, gate))
            })
            .collect();
        gate.wait();
        let before = Quiet::take(world);
        gate.wait();
        let outs: Vec<ClientOut> = handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect();
        (outs, before, Quiet::take(world))
    })
}

// ---------------------------------------------------------------- point-read

/// One closed-loop client over the 200k-row table, read-only.
pub fn point_read(world: &World, u: &Universe, traced: bool, seconds: f64, rng: &mut Rng) -> Phase {
    let zipf = Zipf::over((0..u.students.len() as u32).collect(), ZIPF_S, rng);
    let seed = rng.next_u64();
    let origin = Instant::now();
    let model: &[CourseSet] = &u.initial;
    let (clients, before, after) = run_clients(world, 1, |id, gate| {
        let mut c = Client::new(world, u, traced, origin, id as u32);
        c.per_op = traced;
        let mut rng = Rng::new(seed);
        gate.wait();
        gate.wait();
        let deadline = c.begin() + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline {
            let r = rng.unit();
            let s = zipf.sample(&mut rng);
            if r < 0.85 {
                let (ns, rows) = c.lookup(s);
                let v = rows.map(|r| data::check_student_rows(&r, s, &world.codes, model));
                c.settle("lookup", ns, v);
            } else if r < 0.90 {
                let (ns, rows) = c.join(s);
                let v = rows.map(|r| data::check_join_rows(&r, s, &world.codes, &u.prof_of, model));
                c.settle("join", ns, v);
            } else if r < 0.95 {
                let (ns, rows) = c.adhoc(s);
                let v = rows.map(|r| data::check_student_rows(&r, s, &world.codes, model));
                c.settle("adhoc", ns, v);
            } else {
                let (ns, t) = c.topk();
                let v = t.map(|t| data::check_topk(&t, TOPK, model));
                c.settle("topk", ns, v);
            }
        }
        c.finish(Vec::new())
    });
    Phase {
        clients,
        writer: None,
        before,
        after,
    }
}

// ------------------------------------------------------------- durable-write

/// Two closed-loop clients writing through the WAL; each owns the
/// students of its parity, so read-your-write checks are exact.
/// Returns the phase and the final model.
pub fn durable_write(
    world: &World,
    u: &Universe,
    traced: bool,
    seconds: f64,
    rng: &mut Rng,
) -> (Phase, Vec<CourseSet>) {
    const CLIENTS: usize = 2;
    let zipfs: Vec<Zipf> = (0..CLIENTS)
        .map(|i| {
            let keys = (0..u.students.len() as u32)
                .filter(|s| *s as usize % CLIENTS == i)
                .collect();
            Zipf::over(keys, ZIPF_S, rng)
        })
        .collect();
    let seeds: Vec<u64> = (0..CLIENTS).map(|_| rng.next_u64()).collect();
    let writes = AtomicU64::new(0);
    let models: Mutex<Vec<Option<Vec<CourseSet>>>> = Mutex::new(vec![None; CLIENTS]);
    let origin = Instant::now();
    let (clients, before, after) = run_clients(world, CLIENTS, |id, gate| {
        let mut c = Client::new(world, u, traced, origin, id as u32);
        c.harness_flush = traced;
        let mut model = u.initial.clone();
        let mut rng = Rng::new(seeds[id]);
        // Students written since the last read-your-write round.
        let mut written: Vec<usize> = Vec::new();
        gate.wait();
        gate.wait();
        let deadline = c.begin() + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline {
            if rng.unit() < 0.9 || written.is_empty() {
                let s = zipfs[id].sample(&mut rng);
                let (course, insert) = next_write(&model[s], &mut rng);
                let (ns, v) = c.write(s, course, insert);
                if v == Ok(true) {
                    if insert {
                        model[s].insert(course);
                    } else {
                        model[s].remove(course);
                    }
                }
                c.settle("write", ns, v);
                if !written.contains(&s) {
                    written.push(s);
                }
                if (writes.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(CHECKPOINT_EVERY) {
                    let v = c.checkpoint();
                    c.judge("checkpoint", v);
                }
            } else {
                // One read-your-write round: every student written
                // since the last round must read back as written.
                for s in written.drain(..) {
                    let (ns, rows) = c.lookup(s);
                    let v = rows
                        .map(|r| data::check_student_rows(&r, s, &world.codes, model.as_slice()));
                    c.samples.push("lookup", c.window(), ns);
                    c.judge("lookup", v);
                }
                c.complete();
            }
        }
        models.lock().expect("no client panics")[id] = Some(model);
        c.finish(Vec::new())
    });
    // Each student's final state is in its owner's model.
    let models: Vec<Vec<CourseSet>> = models
        .into_inner()
        .expect("no client panics")
        .into_iter()
        .map(|m| m.expect("every client returned its model"))
        .collect();
    let merged = (0..u.students.len())
        .map(|s| models[s % CLIENTS][s])
        .collect();
    (
        Phase {
            clients,
            writer: None,
            before,
            after,
        },
        merged,
    )
}

/// Result of reopening a `durable-write` data directory.
#[derive(Debug)]
pub struct Recovery {
    pub seconds: f64,
    pub wal_entries: u64,
    pub correct: bool,
    pub problem: Option<String>,
}

/// Drops the engine, reopens its data directory with `NfTable::open`
/// and checks the recovered table holds exactly the model.
pub fn recover(world: World, u: &Universe, model: &[CourseSet]) -> Result<Recovery, String> {
    let dir = world.dir.clone().ok_or("recovery needs a data directory")?;
    drop(world);
    let wal_entries = count_wal_entries(&dir.join("sc.wal"));
    let t0 = Instant::now();
    let engine = data::engine_builder(Some(&dir), true)
        .build()
        .map_err(|e| e.to_string())?;
    for name in ["sc", "cp"] {
        let t = NfTable::open(&dir, name, engine.dict().clone()).map_err(|e| e.to_string())?;
        engine.attach_table(t).map_err(|e| e.to_string())?;
    }
    let seconds = t0.elapsed().as_secs_f64();
    let dict = engine.dict();
    let index: HashMap<Atom, usize> = u
        .students
        .iter()
        .enumerate()
        .filter_map(|(i, s)| dict.lookup(s).map(|a| (a, i)))
        .collect();
    let course_index: HashMap<Atom, usize> = u
        .courses
        .iter()
        .enumerate()
        .filter_map(|(i, c)| dict.lookup(c).map(|a| (a, i)))
        .collect();
    let cur = engine
        .session()
        .query("SELECT * FROM sc")
        .map_err(|e| e.to_string())?;
    let schema = cur.schema().clone();
    let (si, ci) = (
        schema.attr_id("Student").map_err(|e| e.to_string())?,
        schema.attr_id("Course").map_err(|e| e.to_string())?,
    );
    let mut got = vec![CourseSet::default(); u.students.len()];
    let mut problem = None;
    for r in cur.flat_rows() {
        match (index.get(&r[si]), course_index.get(&r[ci])) {
            (Some(&s), Some(&c)) => got[s].insert(c),
            _ => problem = Some("recovered a row outside the universe".to_owned()),
        }
    }
    if problem.is_none() {
        if let Some(s) = (0..u.students.len()).find(|&s| got[s] != model[s]) {
            problem = Some(format!(
                "recovered {} differs from the acknowledged writes",
                u.students[s]
            ));
        }
    }
    let cp_rows = engine.table("cp").map_err(|e| e.to_string())?.flat_count();
    if cp_rows != COURSES as u128 {
        problem = Some(format!("recovered cp has {cp_rows} rows"));
    }
    Ok(Recovery {
        seconds,
        wal_entries,
        correct: problem.is_none(),
        problem,
    })
}

/// Entries in a WAL file: a tag byte and a flat `(Student, Course)` row
/// each, in the storage codec.
fn count_wal_entries(path: &Path) -> u64 {
    let bytes = std::fs::read(path).unwrap_or_default();
    let mut slice: &[u8] = &bytes;
    let mut n = 0;
    while let Some((_, rest)) = slice.split_first() {
        slice = rest;
        if nf2_storage::codec::decode_flat_tuple(&mut slice, 2).is_err() {
            break;
        }
        n += 1;
    }
    n
}

// ---------------------------------------------------------------- mixed-scan

/// The model behind `mixed-scan`: the current course sets plus the log
/// of writes, where entry `i` produced table epoch `i + 1`. A reader
/// that saw epochs `e0..=e1` must match the state at one of them.
#[derive(Debug)]
pub struct History {
    current: Vec<CourseSet>,
    log: Vec<(u32, u16, bool)>,
}

impl History {
    pub fn new(initial: &[CourseSet]) -> Self {
        History {
            current: initial.to_vec(),
            log: Vec::new(),
        }
    }

    /// Whether `check` holds for the state at some epoch in `e0..=e1`.
    fn any_epoch(&self, e0: u64, e1: u64, check: impl Fn(&AtEpoch<'_>) -> bool) -> bool {
        (e0..=e1).any(|e| {
            let mut changed: HashMap<usize, CourseSet> = HashMap::new();
            for &(s, c, insert) in self.log.iter().skip(e as usize).rev() {
                let s = s as usize;
                let set = changed.entry(s).or_insert(self.current[s]);
                if insert {
                    set.remove(c as usize);
                } else {
                    set.insert(c as usize);
                }
            }
            check(&AtEpoch {
                current: &self.current,
                changed,
            })
        })
    }
}

struct AtEpoch<'a> {
    current: &'a [CourseSet],
    changed: HashMap<usize, CourseSet>,
}

impl Oracle for AtEpoch<'_> {
    fn set(&self, s: usize) -> CourseSet {
        self.changed.get(&s).copied().unwrap_or(self.current[s])
    }

    fn students(&self) -> usize {
        self.current.len()
    }
}

/// One closed-loop reader plus one open-loop writer at `WRITER_RATE`.
pub fn mixed_scan(
    world: &World,
    u: &Universe,
    history: &Mutex<History>,
    traced: bool,
    seconds: f64,
    rng: &mut Rng,
) -> Phase {
    let zipf = Zipf::over((0..u.students.len() as u32).collect(), ZIPF_S, rng);
    let seeds = [rng.next_u64(), rng.next_u64()];
    let origin = Instant::now();
    let (mut outs, before, after) = run_clients(world, 2, |id, gate| {
        let mut c = Client::new(world, u, traced, origin, id as u32);
        let mut rng = Rng::new(seeds[id]);
        gate.wait();
        gate.wait();
        let deadline = c.begin() + Duration::from_secs_f64(seconds);
        if id == 1 {
            return writer(c, history, &zipf, &mut rng, deadline);
        }
        c.per_op = traced;
        let lock = || history.lock().expect("no client panics");
        while Instant::now() < deadline {
            let r = rng.unit();
            let e0 = c.sc.epoch();
            if r < 0.90 {
                let s = zipf.sample(&mut rng);
                let (ns, rows) = c.lookup(s);
                let e1 = c.sc.epoch();
                let v = rows.map(|r| {
                    lock().any_epoch(e0, e1, |o| data::check_student_rows(&r, s, &world.codes, o))
                });
                c.settle("lookup", ns, v);
            } else if r < 0.95 {
                let (ns, t) = c.topk();
                let e1 = c.sc.epoch();
                let v = t.map(|t| lock().any_epoch(e0, e1, |o| data::check_topk(&t, TOPK, o)));
                c.settle("topk", ns, v);
            } else {
                let course = rng.below(COURSES);
                let (ns, rows) = c.scan(course);
                let e1 = c.sc.epoch();
                let v = rows.map(|r| {
                    lock().any_epoch(e0, e1, |o| {
                        data::check_scan_rows(&r, course, &world.codes, o)
                    })
                });
                c.settle("scan", ns, v);
            }
        }
        c.finish(Vec::new())
    });
    let writer = outs.pop();
    Phase {
        clients: outs,
        writer,
        before,
        after,
    }
}

/// The open-loop writer: write `k` is due at `start + k / WRITER_RATE`
/// and is timed from that moment, so a stall counts against the writes
/// queued behind it.
fn writer(
    mut c: Client<'_>,
    history: &Mutex<History>,
    zipf: &Zipf,
    rng: &mut Rng,
    deadline: Instant,
) -> ClientOut {
    let period = Duration::from_secs_f64(1.0 / WRITER_RATE);
    let mut lags = Vec::new();
    let mut due = c.start;
    while due < deadline {
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        lags.push(Instant::now().duration_since(due).as_nanos() as u64);
        let s = zipf.sample(rng);
        // Log the write before it publishes, so a reader that sees its
        // epoch finds it in the history.
        let (course, insert, epoch) = {
            let mut h = history.lock().expect("no client panics");
            let (course, insert) = next_write(&h.current[s], rng);
            h.log.push((s as u32, course as u16, insert));
            if insert {
                h.current[s].insert(course);
            } else {
                h.current[s].remove(course);
            }
            (course, insert, h.log.len() as u64)
        };
        let (_, v) = c.write(s, course, insert);
        let ns = Instant::now().duration_since(due).as_nanos() as u64;
        // The only writer bumps the epoch exactly once per write.
        let v = v.map(|ok| ok && c.sc.epoch() == epoch);
        c.settle("write", ns, v);
        due += period;
    }
    c.finish(lags)
}
