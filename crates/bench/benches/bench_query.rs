//! End-to-end DML latency: parse + plan + execute against the storage
//! engine.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use nf2_query::Engine;

fn seeded(students: usize) -> Engine {
    let engine = Engine::default();
    let mut s = engine.session();
    s.run("CREATE TABLE sc (Student, Course, Club) NEST ORDER (Course, Student, Club)")
        .unwrap();
    for st in 0..students {
        for c in 0..4 {
            s.run(&format!(
                "INSERT INTO sc VALUES ('s{st}','c{}','b{}')",
                (st + c) % 25,
                st % 6
            ))
            .unwrap();
        }
    }
    engine
}

fn bench_statements(c: &mut Criterion) {
    let mut group = c.benchmark_group("dml");

    group.bench_function("parse_select", |b| {
        b.iter(|| nf2_query::parse("SELECT Course FROM sc WHERE Student = 's1'").unwrap())
    });

    group.bench_function("select_by_student", |b| {
        let engine = seeded(200);
        let mut s = engine.session();
        let mut i = 0usize;
        b.iter(|| {
            let stmt = format!("SELECT Course FROM sc WHERE Student = 's{}'", i % 200);
            i += 1;
            s.run(&stmt).unwrap()
        });
    });

    group.bench_function("insert_delete_pair", |b| {
        b.iter_batched(
            || seeded(50),
            |engine| {
                let mut s = engine.session();
                s.run("INSERT INTO sc VALUES ('sx','cx','bx')").unwrap();
                s.run("DELETE FROM sc WHERE Student = 'sx'").unwrap();
                engine
            },
            BatchSize::LargeInput,
        );
    });

    group.bench_function("show_table", |b| {
        let engine = seeded(100);
        let mut s = engine.session();
        b.iter(|| s.run("SHOW sc").unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_statements);
criterion_main!(benches);
