//! The data set (the paper's Fig. 1 entity relation `sc(Student,
//! Course)` plus a `cp(Course, Prof)` dimension table), the engine
//! set-up, and the benchmark's own model of the data.

use std::path::{Path, PathBuf};

use nf2_algebra::RewriteMode;
use nf2_core::schema::NestOrder;
use nf2_core::shard::ShardSpec;
use nf2_core::value::Atom;
use nf2_query::{Engine, Session};
use nf2_storage::NfTable;

use crate::rng::Rng;

pub const COURSES: usize = 200;
pub const PROFS: usize = 50;
pub const SHARDS: usize = 4;
pub const COURSES_PER_STUDENT: usize = 5;
pub const TOPK: usize = 10;

pub const LOOKUP_SQL: &str = "SELECT * FROM sc WHERE Student = ?";
pub const JOIN_SQL: &str = "SELECT * FROM sc JOIN cp WHERE Student = ?";
pub const TOPK_SQL: &str = "SELECT * FROM sc ORDER BY Student, Course LIMIT 10";
pub const SCAN_SQL: &str = "SELECT * FROM sc WHERE Course = ?";
pub const INSERT_SQL: &str = "INSERT INTO sc VALUES (?, ?)";
pub const DELETE_SQL: &str = "DELETE FROM sc WHERE Student = ? AND Course = ?";

/// The literal SELECT an ad-hoc operation parses and plans per call.
pub fn adhoc_sql(student: &str) -> String {
    format!("SELECT * FROM sc WHERE Student = '{student}'")
}

/// A set of course indices (`0..COURSES`) as a bitmap.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CourseSet([u64; 4]);

impl CourseSet {
    pub fn insert(&mut self, c: usize) {
        self.0[c / 64] |= 1 << (c % 64);
    }

    pub fn remove(&mut self, c: usize) {
        self.0[c / 64] &= !(1 << (c % 64));
    }

    pub fn contains(&self, c: usize) -> bool {
        self.0[c / 64] & (1 << (c % 64)) != 0
    }

    pub fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The `n`-th member in ascending order (`n < len`).
    pub fn nth(&self, n: usize) -> usize {
        (0..COURSES)
            .filter(|&c| self.contains(c))
            .nth(n)
            .expect("n < len")
    }
}

/// Every value the run will use, zero-padded so string order equals
/// index order, plus the initial course set of each student.
#[derive(Debug)]
pub struct Universe {
    pub students: Vec<String>,
    pub courses: Vec<String>,
    pub profs: Vec<String>,
    /// The professor of each course.
    pub prof_of: Vec<usize>,
    pub initial: Vec<CourseSet>,
}

impl Universe {
    /// `students` students, each with a random set of
    /// `COURSES_PER_STUDENT` courses.
    pub fn generate(students: usize, rng: &mut Rng) -> Self {
        let initial = (0..students)
            .map(|_| {
                let mut set = CourseSet::default();
                while set.len() < COURSES_PER_STUDENT {
                    set.insert(rng.below(COURSES));
                }
                set
            })
            .collect();
        Universe {
            students: (0..students).map(|s| format!("s{s:07}")).collect(),
            courses: (0..COURSES).map(|c| format!("c{c:03}")).collect(),
            profs: (0..PROFS).map(|p| format!("p{p:03}")).collect(),
            prof_of: (0..COURSES).map(|_| rng.below(PROFS)).collect(),
            initial,
        }
    }

    pub fn flat_rows(&self) -> usize {
        self.initial.iter().map(CourseSet::len).sum()
    }
}

/// Value ↔ atom maps for the interned universe.
#[derive(Debug, Clone)]
pub struct Codes {
    /// Atom id → index within its own domain.
    index: Vec<u32>,
    /// Atom id → domain tag (0 student, 1 course, 2 prof).
    domain: Vec<u8>,
}

impl Codes {
    fn index_in(&self, a: Atom, domain: u8) -> Option<usize> {
        let i = a.0 as usize;
        (self.domain.get(i) == Some(&domain)).then(|| self.index[i] as usize)
    }

    pub fn student_of(&self, a: Atom) -> Option<usize> {
        self.index_in(a, 0)
    }

    pub fn course_of(&self, a: Atom) -> Option<usize> {
        self.index_in(a, 1)
    }

    pub fn prof_of(&self, a: Atom) -> Option<usize> {
        self.index_in(a, 2)
    }
}

/// What the load produced, reported so a generator change that
/// collapses the table shows.
#[derive(Debug, Clone)]
pub struct LoadReport {
    pub flat_rows: usize,
    pub tuples: usize,
    pub per_shard: Vec<usize>,
}

/// A loaded engine with its value codes.
#[derive(Debug)]
pub struct World {
    pub engine: Engine,
    pub codes: Codes,
    pub dir: Option<PathBuf>,
    pub load: LoadReport,
}

/// The pinned engine configuration. Every setting is explicit, so no
/// environment default can change what is measured.
pub fn engine_builder(dir: Option<&Path>, autoflush: bool) -> nf2_query::EngineBuilder {
    let b = Engine::builder()
        .shards(SHARDS)
        .group_commit(0)
        .rewrite_mode(RewriteMode::Structural)
        .wal_autoflush(autoflush);
    match dir {
        Some(d) => b.data_dir(d),
        None => b,
    }
}

/// Builds the engine: pre-interns every value in sorted order, bulk
/// loads both tables and, with a data directory, checkpoints them.
pub fn build_world(u: &Universe, dir: Option<&Path>, autoflush: bool) -> Result<World, String> {
    if let Some(d) = dir {
        let _ = std::fs::remove_dir_all(d);
        std::fs::create_dir_all(d).map_err(|e| format!("creating {}: {e}", d.display()))?;
    }
    let engine = engine_builder(dir, autoflush)
        .build()
        .map_err(|e| e.to_string())?;
    let dict = engine.dict();
    // 'c…' < 'p…' < 's…' and each domain is zero-padded, so interning
    // in this order keeps atom ids in string order.
    let course: Vec<Atom> = u.courses.iter().map(|v| dict.intern(v)).collect();
    let prof: Vec<Atom> = u.profs.iter().map(|v| dict.intern(v)).collect();
    let student: Vec<Atom> = u.students.iter().map(|v| dict.intern(v)).collect();
    if !dict.is_id_ordered() {
        return Err("the pre-interned dictionary is not id-ordered".into());
    }
    let mut index = vec![0u32; dict.len()];
    let mut domain = vec![u8::MAX; dict.len()];
    for (tag, atoms) in [(0u8, &student), (1, &course), (2, &prof)] {
        for (i, a) in atoms.iter().enumerate() {
            index[a.0 as usize] = i as u32;
            domain[a.0 as usize] = tag;
        }
    }
    let codes = Codes { index, domain };

    let sc_rows = u.initial.iter().enumerate().flat_map(|(s, set)| {
        (0..COURSES)
            .filter(|&c| set.contains(c))
            .map(move |c| vec![u.students[s].as_str(), u.courses[c].as_str()])
    });
    // Nest Course first, so Student is the outer (routing) attribute:
    // about one NF² tuple per student.
    let sc = NfTable::bulk_load_strs_sharded(
        "sc",
        &["Student", "Course"],
        sc_rows,
        NestOrder::new(vec![1, 0], 2).map_err(|e| e.to_string())?,
        ShardSpec::hash(SHARDS).map_err(|e| e.to_string())?,
        dict.clone(),
    )
    .map_err(|e| e.to_string())?;
    let cp_rows = (0..COURSES).map(|c| vec![u.courses[c].as_str(), u.profs[u.prof_of[c]].as_str()]);
    let cp = NfTable::bulk_load_strs_sharded(
        "cp",
        &["Course", "Prof"],
        cp_rows,
        NestOrder::identity(2),
        ShardSpec::single(),
        dict.clone(),
    )
    .map_err(|e| e.to_string())?;
    engine.attach_table(sc).map_err(|e| e.to_string())?;
    engine.attach_table(cp).map_err(|e| e.to_string())?;
    if dict.len() != codes.domain.len() || !dict.is_id_ordered() {
        return Err("loading interned values outside the pre-interned universe".into());
    }

    let sc = engine.table("sc").map_err(|e| e.to_string())?;
    let snap = sc.snapshot();
    let per_shard: Vec<usize> = (0..snap.shard_count())
        .map(|s| snap.version().shard(s).tuple_count())
        .collect();
    let load = LoadReport {
        flat_rows: snap.flat_count() as usize,
        tuples: per_shard.iter().sum(),
        per_shard,
    };
    if load.flat_rows != u.flat_rows() {
        return Err(format!(
            "loaded {} flat rows, generated {}",
            load.flat_rows,
            u.flat_rows()
        ));
    }
    // Random course sets give about one tuple per student; far fewer
    // means the generator collapsed the table into a different workload.
    if load.tuples * 10 < u.students.len() * 9 {
        return Err(format!(
            "{} NF² tuples for {} students: the course sets collapsed",
            load.tuples,
            u.students.len()
        ));
    }
    if dir.is_some() {
        engine.checkpoint().map_err(|e| e.to_string())?;
    }
    Ok(World {
        engine,
        codes,
        dir: dir.map(Path::to_path_buf),
        load,
    })
}

/// Checks that `TOPK_SQL` plans the streaming k-way segment merge.
pub fn check_topk_plan(session: &Session<'_>) -> Result<(), String> {
    let mut p = session.prepare(TOPK_SQL).map_err(|e| e.to_string())?;
    let plan = p.explain(session).map_err(|e| e.to_string())?;
    if plan.contains("k-way segment merge") {
        Ok(())
    } else {
        Err(format!(
            "{TOPK_SQL} does not plan the segment merge:\n{plan}"
        ))
    }
}

/// A state of the data the benchmark knows: each student's course set.
pub trait Oracle {
    fn set(&self, student: usize) -> CourseSet;
    fn students(&self) -> usize;
}

impl Oracle for [CourseSet] {
    fn set(&self, student: usize) -> CourseSet {
        self[student]
    }

    fn students(&self) -> usize {
        self.len()
    }
}

/// A point lookup or ad-hoc result: `(Student, Course)` rows of one
/// student, compared with the student's course set.
pub fn check_student_rows(
    rows: &[(Atom, Atom)],
    student: usize,
    codes: &Codes,
    oracle: &(impl Oracle + ?Sized),
) -> bool {
    let mut got = CourseSet::default();
    for &(s, c) in rows {
        match (codes.student_of(s), codes.course_of(c)) {
            (Some(s), Some(c)) if s == student && !got.contains(c) => got.insert(c),
            _ => return false,
        }
    }
    got == oracle.set(student)
}

/// A join result: `(Student, Course, Prof)` rows of one student.
pub fn check_join_rows(
    rows: &[(Atom, Atom, Atom)],
    student: usize,
    codes: &Codes,
    prof_of: &[usize],
    oracle: &(impl Oracle + ?Sized),
) -> bool {
    let pairs: Vec<(Atom, Atom)> = rows.iter().map(|&(s, c, _)| (s, c)).collect();
    check_student_rows(&pairs, student, codes, oracle)
        && rows.iter().all(|&(_, c, p)| {
            matches!((codes.course_of(c), codes.prof_of(p)), (Some(c), Some(p)) if prof_of[c] == p)
        })
}

/// A scan result for `Course = c`: exactly the students taking `c`.
pub fn check_scan_rows(
    rows: &[(Atom, Atom)],
    course: usize,
    codes: &Codes,
    oracle: &(impl Oracle + ?Sized),
) -> bool {
    let mut seen = vec![false; oracle.students()];
    for &(s, c) in rows {
        match (codes.student_of(s), codes.course_of(c)) {
            (Some(s), Some(c)) if c == course && !seen[s] => seen[s] = true,
            _ => return false,
        }
    }
    (0..oracle.students()).all(|s| seen[s] == oracle.set(s).contains(course))
}

/// One NF² tuple of a top-k result, decoded to student and course
/// indices in returned order.
#[derive(Debug, Clone)]
pub struct TopTuple {
    pub students: Vec<usize>,
    pub courses: CourseSet,
}

/// A top-k result under `ORDER BY Student, Course LIMIT k`: `k`
/// tuples in ascending order of their least student, every returned
/// student with its whole course set, and no student missing below the
/// last tuple's key. (Students with equal course sets share a tuple.)
pub fn check_topk(tuples: &[TopTuple], k: usize, oracle: &(impl Oracle + ?Sized)) -> bool {
    if tuples.len() != k.min(oracle.students()) {
        return false;
    }
    let mut seen = vec![false; oracle.students()];
    let mut last_key = None;
    for t in tuples {
        let Some(&key) = t.students.iter().min() else {
            return false;
        };
        if last_key.is_some_and(|l| l >= key) {
            return false;
        }
        last_key = Some(key);
        for &s in &t.students {
            if seen[s] || oracle.set(s) != t.courses {
                return false;
            }
            seen[s] = true;
        }
    }
    let bound = last_key.unwrap_or(0);
    // Every student is always present (course sets never empty), so
    // the smallest ones up to the last key must all have been returned.
    (0..=bound).all(|s| seen[s])
}
