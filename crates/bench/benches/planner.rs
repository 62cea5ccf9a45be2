//! Planner/executor hot paths. Every group times a *before* shape
//! against an *after* shape and asserts that both return the same rows
//! before timing anything.
//!
//! - The planner groups run one query through the naive reference
//!   executor (before) and the planned executor (after), via
//!   [`run_both`]: indexed point lookups, selective equality, range
//!   scans, bounded top-k ORDER BY + LIMIT, multi-index AND
//!   intersection, cardinality-greedy three-table join ordering with
//!   staged predicate pushdown, the join strategies for unindexed join
//!   columns (build-side hash join, merge over ordered indexes),
//!   build-side pushdown, and the correlation-aware estimator declining a
//!   redundant intersection probe. Each fixture also asserts that the
//!   default plan takes the path its group is named after.
//! - `refine_cinema_*` time the forward path walk of
//!   `CandidateSet::refine_by_walk` against the indexed `refine`.
//! - The memory-budget groups time the unbudgeted in-place hash build
//!   against the same query under a 256 KiB budget (partitioned build,
//!   hot keys on the always-resident path) — a bounded-regression pair,
//!   not a speedup.
//! - `mvcc_visibility_scan_10k` prices reading through an MVCC snapshot
//!   over a table with open versions.
//! - The parallel groups compare `worker_threads = 1` against 4 on a
//!   selective unindexed scan, a duplicate-heavy hash build, and
//!   snapshot readers racing two writer threads over an `RwLock`d
//!   database.
//! - `wal_commit_2k` prices the per-commit fsync of the write-ahead log,
//!   and `recovery_replay_10k` prices replaying a 10k-record log against
//!   loading a checkpoint snapshot.
//!
//! Medians and speedups land in `BENCH_PR12.json` at the workspace root;
//! CI diffs the shared group names against the committed baselines
//! (`scripts/bench_compare.rs`) and fails on >25% regressions of the
//! machine-normalized medians.
//!
//! Run with: `cargo bench -p cat-bench --bench planner`

use std::io::Write as _;

use criterion::{Criterion, Measurement};

use cat_corpus::{generate_cinema, CinemaConfig};
use cat_policy::{Attribute, CandidateSet};
use cat_txdb::sql::{
    execute, execute_select_at, execute_select_reference, execute_select_with, parse_statement,
    plan_select, JoinStrategy, PlanOptions, SelectPlan, Statement,
};
use cat_txdb::{dump_sql, row, DataType, Database, RowId, TableSchema, Value, WalOptions};

/// A synthetic single-table database big enough that access paths
/// dominate: `n` rows, hash index on the PK, range index on `price`.
fn listings(n: usize) -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("listing")
            .column("listing_id", DataType::Int)
            .column("name", DataType::Text)
            .column("bucket", DataType::Int)
            .column("price", DataType::Float)
            .primary_key(&["listing_id"])
            .build()
            .expect("schema"),
    )
    .expect("create");
    {
        let t = db.table_mut("listing").unwrap();
        t.create_index("bucket").unwrap();
        t.create_range_index("price").unwrap();
    }
    for i in 0..n as i64 {
        db.insert(
            "listing",
            row![
                i,
                format!("L{}", i % 997),
                i % 1000,
                (i % 5000) as f64 / 10.0
            ],
        )
        .expect("insert");
    }
    db
}

fn run_both(c: &mut Criterion, group: &str, db: &mut Database, sql: &str) {
    let Statement::Select(sel) = parse_statement(sql).expect("parse") else {
        panic!("not a select")
    };
    // Sanity: both paths agree before we time them.
    let planned = execute(db, sql).expect("planned");
    let reference = execute_select_reference(db, &sel).expect("reference");
    assert_eq!(
        planned.rows().expect("rows"),
        &reference,
        "paths disagree on {sql}"
    );

    let mut g = c.benchmark_group(group);
    g.sample_size(40);
    g.bench_function("before_naive", |b| {
        b.iter(|| execute_select_reference(db, &sel).expect("reference"))
    });
    g.finish();
    let mut g = c.benchmark_group(group);
    g.sample_size(40);
    g.bench_function("after_planned", |b| {
        // `execute` needs &mut for the general statement API; SELECT only
        // reads (plus the interior stats cache).
        b.iter(|| execute(db, sql).expect("planned"))
    });
    g.finish();
}

/// The default plan of `sql`, for asserting that a fixture exercises the
/// code path its group is named after.
fn default_plan(db: &Database, sql: &str) -> SelectPlan {
    let Statement::Select(sel) = parse_statement(sql).expect("parse") else {
        panic!("not a select")
    };
    plan_select(db, &sel).expect("plan")
}

/// Assert that the default plan of `sql` runs `strategy` on some join.
fn assert_strategy(db: &Database, sql: &str, strategy: JoinStrategy) {
    let plan = default_plan(db, sql);
    assert!(
        plan.join_order.iter().any(|j| j.strategy == strategy),
        "expected {strategy:?} in plan, got {}",
        plan.describe()
    );
}

fn bench_point_lookup(c: &mut Criterion) {
    let mut db = listings(50_000);
    run_both(
        c,
        "planner_point_lookup_50k",
        &mut db,
        "SELECT name FROM listing WHERE listing_id = 31337",
    );
}

fn bench_selective_eq(c: &mut Criterion) {
    let mut db = listings(50_000);
    run_both(
        c,
        "planner_selective_eq_50k",
        &mut db,
        "SELECT name FROM listing WHERE bucket = 123",
    );
}

fn bench_range_scan(c: &mut Criterion) {
    let mut db = listings(50_000);
    run_both(
        c,
        "planner_range_50k",
        &mut db,
        "SELECT name, price FROM listing WHERE price >= 10.0 AND price < 25.0",
    );
}

fn bench_top_k(c: &mut Criterion) {
    let mut db = listings(50_000);
    run_both(
        c,
        "planner_topk_50k",
        &mut db,
        "SELECT name, price FROM listing ORDER BY price DESC LIMIT 10",
    );
}

/// Listings with deliberately mid-selectivity buckets (~2% each), so a
/// single hash probe leaves real residual filtering on the table below —
/// the shape where intersecting a second (range) probe pays off.
fn listings_coarse(n: usize) -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("listing")
            .column("listing_id", DataType::Int)
            .column("name", DataType::Text)
            .column("bucket", DataType::Int)
            .column("price", DataType::Float)
            .primary_key(&["listing_id"])
            .build()
            .expect("schema"),
    )
    .expect("create");
    {
        let t = db.table_mut("listing").unwrap();
        t.create_index("bucket").unwrap();
        t.create_range_index("price").unwrap();
    }
    for i in 0..n as i64 {
        db.insert(
            "listing",
            row![i, format!("L{}", i % 997), i % 50, (i % 5000) as f64 / 10.0],
        )
        .expect("insert");
    }
    db
}

fn bench_multi_index_and(c: &mut Criterion) {
    let mut db = listings_coarse(50_000);
    // bucket = 7 keeps 2% (1000 rows); the price band keeps 4%. The
    // planner intersects the two RowId sets and touches only the ~40
    // surviving rows.
    run_both(
        c,
        "planner_multi_index_and_50k",
        &mut db,
        "SELECT name FROM listing WHERE bucket = 7 AND price >= 10.0 AND price < 30.0",
    );
}

/// A star schema for three-table joins: every movie has `fanout`
/// screenings, but only 1% of movies hold an award. FROM-order joins
/// build the full movie×screening intermediate before the award join
/// collapses it; the greedy order joins the tiny award table first.
fn awards_db(movies: usize, fanout: usize) -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("movie")
            .column("movie_id", DataType::Int)
            .column("title", DataType::Text)
            .primary_key(&["movie_id"])
            .build()
            .expect("schema"),
    )
    .expect("create");
    db.create_table(
        TableSchema::builder("screening")
            .column("screening_id", DataType::Int)
            .column("movie_id", DataType::Int)
            .column("price", DataType::Float)
            .primary_key(&["screening_id"])
            .foreign_key("movie_id", "movie", "movie_id")
            .build()
            .expect("schema"),
    )
    .expect("create");
    db.create_table(
        TableSchema::builder("award")
            .column("award_id", DataType::Int)
            .column("movie_id", DataType::Int)
            .column("year", DataType::Int)
            .primary_key(&["award_id"])
            .foreign_key("movie_id", "movie", "movie_id")
            .build()
            .expect("schema"),
    )
    .expect("create");
    for i in 0..movies as i64 {
        db.insert("movie", row![i, format!("M{i}")])
            .expect("insert");
    }
    for m in 0..movies as i64 {
        for s in 0..fanout as i64 {
            db.insert(
                "screening",
                row![m * fanout as i64 + s, m, 10.0 + (s % 7) as f64],
            )
            .expect("insert");
        }
    }
    for a in 0..(movies / 100).max(1) as i64 {
        db.insert("award", row![a, a * 97 % movies as i64, 2000 + a % 22])
            .expect("insert");
    }
    db
}

/// Two ~10k-row tables joined on a column with no index at all: the
/// planner builds one hash map over the right side and probes it.
fn bench_join_unindexed_hash(c: &mut Criterion) {
    let mut db = Database::new();
    for t in ["lt", "rt"] {
        db.create_table(
            TableSchema::builder(t)
                .column("id", DataType::Int)
                .column("k", DataType::Int)
                .primary_key(&["id"])
                .build()
                .expect("schema"),
        )
        .expect("create");
    }
    for i in 0..10_000i64 {
        db.insert("lt", row![i, i]).expect("insert");
        db.insert("rt", row![i, i]).expect("insert");
    }
    let sql = "SELECT lt.id, rt.id FROM lt JOIN rt ON rt.k = lt.k";
    assert_strategy(&db, sql, JoinStrategy::BuildHash);
    run_both(c, "join_unindexed_hash_10k", &mut db, sql);
}

/// A selective outer stream (indexed point band on the base) against a
/// 10k-row right side where both join columns carry ordered indexes and
/// neither a hash index: the planner merges instead of building.
fn bench_join_merge_range(c: &mut Criterion) {
    let mut db = Database::new();
    for t in ["lt", "rt"] {
        db.create_table(
            TableSchema::builder(t)
                .column("id", DataType::Int)
                .column("k", DataType::Int)
                .primary_key(&["id"])
                .build()
                .expect("schema"),
        )
        .expect("create");
        let tab = db.table_mut(t).unwrap();
        tab.create_range_index("k").unwrap();
    }
    // Ordered index on the base PK so the id band is an index probe — a
    // ~1% outer stream, the regime where the merge beats the hash build.
    db.table_mut("lt")
        .unwrap()
        .create_range_index("id")
        .unwrap();
    for i in 0..10_000i64 {
        db.insert("lt", row![i, i % 2000]).expect("insert");
        db.insert("rt", row![i, i % 2000]).expect("insert");
    }
    let sql =
        "SELECT lt.id, rt.id FROM lt JOIN rt ON rt.k = lt.k WHERE lt.id >= 4000 AND lt.id < 4100";
    assert_strategy(&db, sql, JoinStrategy::MergeRange);
    run_both(c, "join_merge_range_10k", &mut db, sql);
}

/// A 10k-row build side with an unindexed join key and a selective,
/// hash-indexed filter column (1% per value): the build-side pushdown
/// fetches the ~100 matching rows through the index and hashes only
/// those.
fn bench_join_pushdown(c: &mut Criterion) {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("lt")
            .column("id", DataType::Int)
            .column("k", DataType::Int)
            .primary_key(&["id"])
            .build()
            .expect("schema"),
    )
    .expect("create");
    db.create_table(
        TableSchema::builder("rt")
            .column("id", DataType::Int)
            .column("k", DataType::Int)
            .column("v", DataType::Int)
            .primary_key(&["id"])
            .build()
            .expect("schema"),
    )
    .expect("create");
    db.table_mut("rt").unwrap().create_index("v").unwrap();
    for i in 0..1_000i64 {
        db.insert("lt", row![i, i % 500]).expect("insert");
    }
    for i in 0..10_000i64 {
        db.insert("rt", row![i, i % 500, i % 100]).expect("insert");
    }
    let sql = "SELECT lt.id, rt.id FROM lt JOIN rt ON rt.k = lt.k WHERE rt.v = 7";
    let plan = default_plan(&db, sql);
    assert!(
        plan.build_pushdown_count() > 0,
        "expected a build-side pushdown in the plan, got {}",
        plan.describe()
    );
    assert_eq!(
        plan.join_order[0].strategy,
        JoinStrategy::BuildHash,
        "fixture must exercise the filtered hash build, got {}",
        plan.describe()
    );
    run_both(c, "join_pushdown_10k", &mut db, sql);
}

/// A skewed join fixture: `build` has 10k rows with one key holding half
/// of them (the MCV-visible heavy hitter), `probe` streams 1k rows that
/// hit the hot key, the tail and misses. Returns the database plus the
/// query both PR 6 groups time.
fn skewed_join_db(hot_every: i64) -> (Database, &'static str) {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("probe")
            .column("p_id", DataType::Int)
            .column("k", DataType::Int)
            .primary_key(&["p_id"])
            .build()
            .expect("schema"),
    )
    .expect("create");
    db.create_table(
        TableSchema::builder("build")
            .column("b_id", DataType::Int)
            .column("k", DataType::Int)
            .primary_key(&["b_id"])
            .build()
            .expect("schema"),
    )
    .expect("create");
    for i in 0..10_000i64 {
        let k = if hot_every > 0 && i % hot_every == 0 {
            42
        } else {
            i
        };
        db.insert("build", row![i, k]).expect("insert");
    }
    for i in 0..1_000i64 {
        let k = match i % 100 {
            0 => 42,
            m => i * 7 % 10_000 + m % 2 * 20_000,
        };
        db.insert("probe", row![i, k]).expect("insert");
    }
    (
        db,
        "SELECT probe.p_id, build.b_id FROM probe JOIN build ON build.k = probe.k",
    )
}

/// Shared body of the PR 6 memory-robustness groups: *before* is the
/// unbudgeted in-place hash build, *after* the same query planned and
/// executed under a 256 KiB budget — partitioned build, hot keys (when
/// the fixture has them) on the always-resident path.
fn run_budgeted_join(
    c: &mut Criterion,
    group: &str,
    db: &mut Database,
    sql: &str,
    expect_hot: bool,
) {
    let Statement::Select(sel) = parse_statement(sql).expect("parse") else {
        panic!("not a select")
    };
    let unbudgeted = PlanOptions {
        memory_budget: None,
        ..PlanOptions::default()
    };
    let budgeted = PlanOptions {
        memory_budget: Some(256 * 1024),
        ..PlanOptions::default()
    };
    let before_plan = cat_txdb::sql::plan_select_with(db, &sel, &unbudgeted).expect("plan");
    assert_eq!(
        before_plan.join_order[0].strategy,
        JoinStrategy::BuildHash,
        "fixture must exercise the hash build, got {}",
        before_plan.describe()
    );
    assert_eq!(
        before_plan.partitioned_count(),
        0,
        "baseline must not partition"
    );
    let after_plan = cat_txdb::sql::plan_select_with(db, &sel, &budgeted).expect("plan");
    assert!(
        after_plan.partitioned_count() > 0,
        "budgeted plan must partition the build, got {}",
        after_plan.describe()
    );
    assert_eq!(
        !after_plan.join_order[0].hot_keys.is_empty(),
        expect_hot,
        "hot-key detection mismatch: {:?}",
        after_plan.join_order[0].hot_keys
    );
    // Sanity: degraded execution stays byte-identical.
    let full = execute_select_with(db, &sel, &unbudgeted).expect("unbudgeted");
    let degraded = execute_select_with(db, &sel, &budgeted).expect("budgeted");
    assert_eq!(degraded, full, "degraded path disagrees on {sql}");

    let mut g = c.benchmark_group(group);
    g.sample_size(40);
    g.bench_function("before_inplace_build", |b| {
        b.iter(|| execute_select_with(db, &sel, &unbudgeted).expect("unbudgeted"))
    });
    g.finish();
    let mut g = c.benchmark_group(group);
    g.sample_size(40);
    g.bench_function("after_partitioned_budget", |b| {
        b.iter(|| execute_select_with(db, &sel, &budgeted).expect("budgeted"))
    });
    g.finish();
}

fn bench_join_skew_hotkey(c: &mut Criterion) {
    // Every other build row carries the hot key: the budgeted plan must
    // route it through the resident hot map.
    let (mut db, sql) = skewed_join_db(2);
    run_budgeted_join(c, "join_skew_hotkey_10k", &mut db, sql, true);
}

fn bench_join_partitioned_budget(c: &mut Criterion) {
    // Near-distinct keys (no heavy hitter): the budget alone drives the
    // partitioned build, with no hot-key path in play.
    let (mut db, sql) = skewed_join_db(0);
    run_budgeted_join(c, "join_partitioned_budget_10k", &mut db, sql, false);
}

/// A 10k-row table where a hash-indexed 13-value `city` column fully
/// determines a hash-indexed 5-value `country` column. The query probes a
/// rare city (10 rows) plus its own country (~17% — the 0.1% × 17%
/// independence product would clear the intersection cutoff and fetch
/// the ~1.7k-row country bucket, which shrinks nothing). The joint-stats
/// estimator sees the redundancy, declines the probe, and runs the
/// country conjunct as a residual filter over the 10 city rows.
fn bench_correlated_and(c: &mut Criterion) {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("shop")
            .column("id", DataType::Int)
            .column("city", DataType::Text)
            .column("country", DataType::Text)
            .primary_key(&["id"])
            .build()
            .expect("schema"),
    )
    .expect("create");
    {
        let t = db.table_mut("shop").unwrap();
        t.create_index("city").unwrap();
        t.create_index("country").unwrap();
    }
    for i in 0..10_000i64 {
        // Cities 0-11 split ~832 rows each; city 12 holds only the last
        // 10 rows (so the wasted intersection merge walks the whole
        // country bucket) and shares country K0 with cities 0 and 1.
        let city = if i >= 9_990 { 12 } else { i % 12 };
        let country = match city {
            0 | 1 | 12 => 0,
            c => 1 + (c - 2) / 3,
        };
        db.insert("shop", row![i, format!("C{city}"), format!("K{country}")])
            .expect("insert");
    }
    let sql = "SELECT id FROM shop WHERE city = 'C12' AND country = 'K0'";
    let plan = default_plan(&db, sql);
    assert_eq!(
        plan.access.describe(),
        "index_eq(city)",
        "joint stats must decline the redundant country probe, got {}",
        plan.describe()
    );
    run_both(c, "correlated_and_10k", &mut db, sql);
}

fn bench_join3(c: &mut Criterion) {
    let mut db = awards_db(5_000, 10);
    run_both(
        c,
        "planner_join3_award_5k",
        &mut db,
        "SELECT movie.title, screening.price FROM movie \
         JOIN screening ON screening.movie_id = movie.movie_id \
         JOIN award ON award.movie_id = movie.movie_id \
         WHERE screening.price >= 12.0",
    );
}

fn bench_refine(c: &mut Criterion) {
    // The cinema corpus at production-ish scale; the policy refines on an
    // indexed local attribute and on a joined attribute.
    let mut db = generate_cinema(&CinemaConfig {
        movies: 400,
        actors: 600,
        customers: 5000,
        screenings: 4000,
        reservations: 2000,
        seed: 7,
    })
    .expect("corpus");
    db.table_mut("customer")
        .unwrap()
        .create_index("name")
        .unwrap();
    let cs = CandidateSet::all(&db, "customer").expect("candidates");
    // A name guaranteed to exist: read it off the first row.
    let name = db
        .table("customer")
        .unwrap()
        .scan()
        .next()
        .unwrap()
        .1
        .get(1)
        .unwrap()
        .clone();
    let attr = Attribute::local("customer", "name");
    {
        let mut a = cs.clone();
        let mut b = cs.clone();
        a.refine(&db, &attr, &name).expect("refine");
        b.refine_by_walk(&db, &attr, &name).expect("walk");
        assert_eq!(a.rows, b.rows, "refine paths disagree");
    }
    let mut g = c.benchmark_group("refine_cinema_5k");
    g.sample_size(40);
    g.bench_function("before_walk", |b| {
        b.iter(|| {
            let mut cs2 = cs.clone();
            cs2.refine_by_walk(&db, &attr, &name).expect("walk")
        })
    });
    g.bench_function("after_indexed", |b| {
        b.iter(|| {
            let mut cs2 = cs.clone();
            cs2.refine(&db, &attr, &name).expect("refine")
        })
    });
    g.finish();

    let value = Value::Text("Crime".into());
    let movie_cs = CandidateSet::all(&db, "movie").expect("candidates");
    let genre = Attribute::local("movie", "genre");
    let has_genre_col = db
        .table("movie")
        .unwrap()
        .schema()
        .column("genre")
        .is_some();
    if has_genre_col {
        db.table_mut("movie").unwrap().create_index("genre").ok();
        let mut g = c.benchmark_group("refine_cinema_movie_genre");
        g.sample_size(40);
        g.bench_function("before_walk", |b| {
            b.iter(|| {
                let mut cs2 = movie_cs.clone();
                cs2.refine_by_walk(&db, &genre, &value).expect("walk")
            })
        });
        g.bench_function("after_indexed", |b| {
            b.iter(|| {
                let mut cs2 = movie_cs.clone();
                cs2.refine(&db, &genre, &value).expect("refine")
            })
        });
        g.finish();
    }
}

/// The PR 8 group: the cost of reading through an MVCC snapshot.
/// *Before* is the pre-MVCC direct path — a clean table with no version
/// state, where the executor's byte-identical fast path skips
/// visibility entirely. *After* runs the same full scan and index probe
/// through an explicit snapshot while a concurrent writer holds
/// uncommitted versions over 1% of the rows, so every row access
/// resolves visibility (and index fetches re-verify against the visible
/// version). The visibility tax must stay within the CI 25% gate.
fn bench_mvcc_visibility(c: &mut Criterion) {
    let mut db = listings(10_000);
    // `bucket >= 0` is not sargable here (the range index is on
    // `price`), so the first query is a genuine full scan; the second
    // probes the `bucket` hash index.
    let scan_sql = "SELECT count(*) FROM listing WHERE bucket >= 0";
    let probe_sql = "SELECT price FROM listing WHERE bucket = 500";
    let Statement::Select(scan_sel) = parse_statement(scan_sql).expect("parse") else {
        panic!("not a select")
    };
    let Statement::Select(probe_sel) = parse_statement(probe_sql).expect("parse") else {
        panic!("not a select")
    };
    let opts = PlanOptions::default();
    let scan_clean = execute_select_with(&db, &scan_sel, &opts).expect("scan");
    let probe_clean = execute_select_with(&db, &probe_sel, &opts).expect("probe");

    let mut g = c.benchmark_group("mvcc_visibility_scan_10k");
    g.sample_size(40);
    g.bench_function("before_direct", |b| {
        b.iter(|| {
            let s = execute_select_with(&db, &scan_sel, &opts).expect("scan");
            let p = execute_select_with(&db, &probe_sel, &opts).expect("probe");
            (s, p)
        })
    });
    g.finish();

    // Dirty the table: a writer updates every 100th row and stays open
    // across the measurement, so the snapshot path has real version
    // chains to resolve (including rows the probe below touches).
    let rids: Vec<_> = (0..10_000i64)
        .step_by(100)
        .map(|i| {
            db.table("listing")
                .unwrap()
                .get_by_pk(&[Value::Int(i)])
                .expect("pk row")
                .0
        })
        .collect();
    let writer = db.txn_begin();
    for rid in rids {
        db.txn_update(writer, "listing", rid, "price", Value::Float(-1.0))
            .expect("txn update");
    }
    let snap = db.snapshot();
    // Sanity: the writer's versions are invisible — the snapshot reads
    // are byte-identical to the clean-table runs above.
    assert_eq!(
        execute_select_at(&db, &scan_sel, &opts, Some(&snap)).expect("scan"),
        scan_clean
    );
    assert_eq!(
        execute_select_at(&db, &probe_sel, &opts, Some(&snap)).expect("probe"),
        probe_clean
    );

    let mut g = c.benchmark_group("mvcc_visibility_scan_10k");
    g.sample_size(40);
    g.bench_function("after_snapshot", |b| {
        b.iter(|| {
            let s = execute_select_at(&db, &scan_sel, &opts, Some(&snap)).expect("scan");
            let p = execute_select_at(&db, &probe_sel, &opts, Some(&snap)).expect("probe");
            (s, p)
        })
    });
    g.finish();
    db.txn_rollback(writer).expect("rollback");
}

/// The PR 9 scan group: serial execution against the morsel-parallel
/// `Exchange` leaf on a 10k-row table with no usable index — an
/// expensive multi-conjunct filter (`LIKE` plus two comparisons) over
/// rows. Both shapes walk all 10k rows and evaluate the same compiled
/// conjuncts; the Exchange fans the per-row work out across morsel
/// workers, so the speedup tracks the machine's hardware threads (≥2x
/// expected at 4 threads on a ≥4-core machine). On a single-core runner
/// the group instead records the worker-pool overhead bound — see the
/// thread-count sensitivity note in BENCHMARKS.md.
fn bench_parallel_scan(c: &mut Criterion) {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("doc")
            .column("doc_id", DataType::Int)
            .column("cat", DataType::Int)
            .column("title", DataType::Text)
            .column("body", DataType::Text)
            .primary_key(&["doc_id"])
            .build()
            .expect("schema"),
    )
    .expect("create");
    let filler = "lorem-ipsum-dolor-sit-amet-".repeat(4);
    for i in 0..10_000i64 {
        db.insert(
            "doc",
            row![
                i,
                i % 7,
                format!("title-{:04}", i % 997),
                format!("{filler}{i}")
            ],
        )
        .expect("insert");
    }
    // `title LIKE '%-00%'` keeps ~1% of rows; the other conjuncts trim
    // further. None of the filter columns is indexed, so both shapes
    // walk all 10k rows.
    let sql = "SELECT doc_id, body FROM doc \
               WHERE title LIKE '%-00%' AND cat <> 3 AND doc_id > 100";
    let Statement::Select(sel) = parse_statement(sql).expect("parse") else {
        panic!("not a select")
    };
    let serial = PlanOptions {
        worker_threads: 1,
        ..PlanOptions::default()
    };
    let parallel = PlanOptions {
        worker_threads: 4,
        ..PlanOptions::default()
    };
    let plan = cat_txdb::sql::plan_select_with(&db, &sel, &parallel).expect("plan");
    assert!(
        plan.parallel_count() > 0,
        "fixture must grant the scan workers, got {}",
        plan.describe()
    );
    // Result identity: the parallel morsel merge is byte-identical to
    // the serial stream and to the naive reference.
    let reference = execute_select_reference(&db, &sel).expect("reference");
    let one = execute_select_with(&db, &sel, &serial).expect("serial");
    let four = execute_select_with(&db, &sel, &parallel).expect("parallel");
    assert_eq!(one, reference, "serial disagrees on {sql}");
    assert_eq!(four, one, "parallel disagrees on {sql}");

    let mut g = c.benchmark_group("parallel_scan_10k");
    g.sample_size(40);
    g.bench_function("before_1_thread", |b| {
        b.iter(|| execute_select_with(&db, &sel, &serial).expect("serial"))
    });
    g.finish();
    let mut g = c.benchmark_group("parallel_scan_10k");
    g.sample_size(40);
    g.bench_function("after_4_threads", |b| {
        b.iter(|| execute_select_with(&db, &sel, &parallel).expect("parallel"))
    });
    g.finish();
}

/// The PR 9 build group: the same query at `worker_threads` 1 vs 4 on a
/// duplicate-heavy 10k-row build side (every key holds ~10 rows), so
/// the parallel partial maps carry real bucket traffic and the morsel
/// merge has appends to do on every key.
fn bench_parallel_build_hash(c: &mut Criterion) {
    let mut db = Database::new();
    for t in ["probe", "build"] {
        db.create_table(
            TableSchema::builder(t)
                .column("id", DataType::Int)
                .column("k", DataType::Int)
                .primary_key(&["id"])
                .build()
                .expect("schema"),
        )
        .expect("create");
    }
    for i in 0..10_000i64 {
        db.insert("build", row![i, i % 1000]).expect("insert");
    }
    for i in 0..500i64 {
        db.insert("probe", row![i, i * 3 % 1500]).expect("insert");
    }
    let sql = "SELECT probe.id, build.id FROM probe JOIN build ON build.k = probe.k";
    let Statement::Select(sel) = parse_statement(sql).expect("parse") else {
        panic!("not a select")
    };
    let serial = PlanOptions {
        worker_threads: 1,
        ..PlanOptions::default()
    };
    let parallel = PlanOptions {
        worker_threads: 4,
        ..PlanOptions::default()
    };
    let plan = cat_txdb::sql::plan_select_with(&db, &sel, &parallel).expect("plan");
    assert!(
        plan.join_order
            .iter()
            .any(|j| j.strategy == JoinStrategy::BuildHash && j.build_workers > 1),
        "fixture must grant the build workers, got {}",
        plan.describe()
    );
    let reference = execute_select_reference(&db, &sel).expect("reference");
    let one = execute_select_with(&db, &sel, &serial).expect("serial");
    let four = execute_select_with(&db, &sel, &parallel).expect("parallel");
    assert_eq!(one, reference, "serial disagrees on {sql}");
    assert_eq!(four, one, "parallel disagrees on {sql}");

    let mut g = c.benchmark_group("parallel_build_hash_10k");
    g.sample_size(40);
    g.bench_function("before_1_thread", |b| {
        b.iter(|| execute_select_with(&db, &sel, &serial).expect("serial"))
    });
    g.finish();
    let mut g = c.benchmark_group("parallel_build_hash_10k");
    g.sample_size(40);
    g.bench_function("after_4_threads", |b| {
        b.iter(|| execute_select_with(&db, &sel, &parallel).expect("parallel"))
    });
    g.finish();
}

/// The first mixed read/write throughput group (ROADMAP item): each
/// iteration races two writer threads — 25 bank-transfer transactions
/// each under the write lock — against a reader draining 20 parallel
/// snapshot queries under read locks, `std::thread::scope` joining all
/// three. *Before* runs the reader serially, *after* with 4 morsel
/// workers; both sides do the identical transaction volume, so the
/// delta isolates the reader's execution strategy under write
/// contention. Transfers conserve the total balance and every read
/// asserts it, so the group doubles as a liveness + consistency check.
fn bench_mixed_read_write(c: &mut Criterion) {
    use std::sync::RwLock;

    const ACCOUNTS: i64 = 2_000;
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("account")
            .column("id", DataType::Int)
            .column("balance", DataType::Int)
            .primary_key(&["id"])
            .build()
            .expect("schema"),
    )
    .expect("create");
    for i in 0..ACCOUNTS {
        db.insert("account", row![i, 100i64]).expect("insert");
    }
    let db = RwLock::new(db);
    let sql = "SELECT sum(balance) FROM account";
    let Statement::Select(sel) = parse_statement(sql).expect("parse") else {
        panic!("not a select")
    };

    let round = |reader_opts: &PlanOptions| {
        std::thread::scope(|s| {
            for w in 0..2i64 {
                let db = &db;
                s.spawn(move || {
                    for i in 0..25i64 {
                        let from = (w * 977 + i * 13) % ACCOUNTS;
                        let to = (w * 499 + i * 31 + 1) % ACCOUNTS;
                        if from == to {
                            continue;
                        }
                        let mut guard = db.write().unwrap();
                        let txn = guard.txn_begin();
                        for (id, delta) in [(from, -5i64), (to, 5)] {
                            let hit = guard
                                .txn_select(txn, "account", &cat_txdb::Predicate::eq("id", id))
                                .expect("txn select");
                            let (rid, row) = &hit[0];
                            let bal = row.get(1).unwrap().as_int().unwrap();
                            guard
                                .txn_update(
                                    txn,
                                    "account",
                                    *rid,
                                    "balance",
                                    Value::Int(bal + delta),
                                )
                                .expect("txn update");
                        }
                        guard.txn_commit(txn).expect("commit");
                    }
                });
            }
            for _ in 0..20 {
                let guard = db.read().unwrap();
                let snap = guard.snapshot();
                let total = execute_select_at(&guard, &sel, reader_opts, Some(&snap))
                    .expect("snapshot read");
                assert_eq!(
                    total.rows[0][0],
                    Value::Int(ACCOUNTS * 100),
                    "torn read under write contention"
                );
            }
        })
    };

    let serial = PlanOptions {
        worker_threads: 1,
        ..PlanOptions::default()
    };
    let parallel = PlanOptions {
        worker_threads: 4,
        ..PlanOptions::default()
    };
    let mut g = c.benchmark_group("mixed_read_write_2k");
    g.sample_size(20);
    g.bench_function("before_serial_reads", |b| b.iter(|| round(&serial)));
    g.finish();
    let mut g = c.benchmark_group("mixed_read_write_2k");
    g.sample_size(20);
    g.bench_function("after_parallel_reads", |b| b.iter(|| round(&parallel)));
    g.finish();
}

/// Durable commit latency over a 2,000-account table: each round
/// commits 50 single-row update transactions, each an independent
/// `[Begin, Update, Commit]` batch appended to the write-ahead log as
/// one buffered write. *Before* syncs every commit batch to disk
/// (`WalOptions::default()`, the durable configuration), *after* leaves
/// flushing to the OS (`fsync: false`). The pair prices the fsync —
/// a durability/latency trade the report quantifies rather than a
/// speedup one would act on.
fn bench_wal_commit(c: &mut Criterion) {
    const ACCOUNTS: i64 = 2_000;
    let base = std::env::temp_dir().join(format!("txdb-bench-wal-{}", std::process::id()));
    let seed = |name: &str, fsync: bool| -> (Database, Vec<RowId>) {
        let dir = base.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = Database::open_with(&dir, WalOptions { fsync }).expect("open durable db");
        db.create_table(
            TableSchema::builder("account")
                .column("id", DataType::Int)
                .column("balance", DataType::Int)
                .primary_key(&["id"])
                .build()
                .expect("schema"),
        )
        .expect("create");
        let rids = (0..ACCOUNTS)
            .map(|i| db.insert("account", row![i, 100i64]).expect("insert"))
            .collect();
        (db, rids)
    };
    fn round(db: &mut Database, rids: &[RowId], salt: &mut i64) {
        for k in 0..50i64 {
            let rid = rids[((*salt * 53 + k * 17) % rids.len() as i64) as usize];
            let txn = db.txn_begin();
            db.txn_update(txn, "account", rid, "balance", Value::Int(*salt + k))
                .expect("txn update");
            db.txn_commit(txn).expect("commit");
        }
        *salt += 1;
    }

    let (mut db, rids) = seed("fsync", true);
    let mut salt = 1i64;
    let mut g = c.benchmark_group("wal_commit_2k");
    g.sample_size(10);
    g.bench_function("before_fsync_commit", |b| {
        b.iter(|| round(&mut db, &rids, &mut salt))
    });
    g.finish();
    assert!(db.wal_appended_records() > 0, "commits never hit the log");

    let (mut db, rids) = seed("nofsync", false);
    let mut salt = 1i64;
    let mut g = c.benchmark_group("wal_commit_2k");
    g.sample_size(10);
    g.bench_function("after_buffered_commit", |b| {
        b.iter(|| round(&mut db, &rids, &mut salt))
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&base);
}

/// Recovery cost of a 10,000-record write-ahead log: the setup inserts
/// 10k rows into a durable database and "crashes" (drops without
/// closing), leaving the whole history in the log; a twin directory
/// holds the identical state folded into a checkpoint snapshot.
/// *Before* is `Database::open` replaying the full log; *after* opens
/// the snapshot with an empty log — the startup-time difference is
/// exactly what running `CHECKPOINT` buys.
fn bench_recovery_replay(c: &mut Criterion) {
    const ROWS: i64 = 10_000;
    const NOFSYNC: WalOptions = WalOptions { fsync: false };
    let base = std::env::temp_dir().join(format!("txdb-bench-recovery-{}", std::process::id()));
    let seed = |name: &str| -> Database {
        let dir = base.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = Database::open_with(&dir, NOFSYNC).expect("open durable db");
        db.create_table(
            TableSchema::builder("item")
                .column("id", DataType::Int)
                .column("bucket", DataType::Int)
                .column("label", DataType::Text)
                .primary_key(&["id"])
                .build()
                .expect("schema"),
        )
        .expect("create");
        for i in 0..ROWS {
            db.insert("item", row![i, i % 97, format!("item-{i}")])
                .expect("insert");
        }
        db
    };
    let log_dir = base.join("log");
    drop(seed("log")); // crash: the log carries every record
    let snap_dir = base.join("snapshot");
    let mut db = seed("snapshot");
    db.checkpoint().expect("checkpoint");
    drop(db);

    // Both startup paths must reconstruct the same database.
    let replayed = Database::open_with(&log_dir, NOFSYNC).expect("replay");
    let restored = Database::open_with(&snap_dir, NOFSYNC).expect("restore");
    assert!(!replayed.table_names().is_empty(), "log was not replayed");
    assert_eq!(
        dump_sql(&replayed).expect("dump"),
        dump_sql(&restored).expect("dump"),
        "replay and snapshot disagree"
    );
    drop((replayed, restored));

    let mut g = c.benchmark_group("recovery_replay_10k");
    g.sample_size(10);
    g.bench_function("before_replay_log", |b| {
        b.iter(|| Database::open_with(&log_dir, NOFSYNC).expect("replay"))
    });
    g.finish();
    let mut g = c.benchmark_group("recovery_replay_10k");
    g.sample_size(10);
    g.bench_function("after_load_snapshot", |b| {
        b.iter(|| Database::open_with(&snap_dir, NOFSYNC).expect("restore"))
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&base);
}

/// Write `BENCH_PR12.json`: one record per benchmark group with the
/// before/after medians (ns) and the speedup factor. Groups shared with
/// the committed baselines feed the CI regression gate.
fn write_report(measurements: &[Measurement]) {
    let mut pairs: Vec<(String, f64, f64)> = Vec::new();
    for m in measurements {
        let Some((group, which)) = m.id.rsplit_once('/') else {
            continue;
        };
        if let Some(entry) = pairs.iter_mut().find(|(g, _, _)| g == group) {
            match which {
                w if w.starts_with("before") => entry.1 = m.median_ns,
                _ => entry.2 = m.median_ns,
            }
        } else {
            let (before, after) = if which.starts_with("before") {
                (m.median_ns, 0.0)
            } else {
                (0.0, m.median_ns)
            };
            pairs.push((group.to_string(), before, after));
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR12.json");
    let mut f = std::fs::File::create(path).expect("create BENCH_PR12.json");
    writeln!(
        f,
        "{{\n  \"pr\": 12,\n  \"bench\": \"planner\",\n  \"unit\": \"ns\",\n  \"results\": ["
    )
    .unwrap();
    for (i, (group, before, after)) in pairs.iter().enumerate() {
        let speedup = if *after > 0.0 { before / after } else { 0.0 };
        writeln!(
            f,
            "    {{\"name\": \"{group}\", \"before_median_ns\": {before:.1}, \
             \"after_median_ns\": {after:.1}, \"speedup\": {speedup:.2}}}{}",
            if i + 1 < pairs.len() { "," } else { "" }
        )
        .unwrap();
    }
    writeln!(f, "  ]\n}}").unwrap();
    println!("\nwrote {path}");
    for (group, before, after) in &pairs {
        if *after > 0.0 {
            println!("  {group}: {:.1}x speedup", before / after);
        }
    }
}

fn main() {
    let mut c = Criterion::default();
    bench_point_lookup(&mut c);
    bench_selective_eq(&mut c);
    bench_range_scan(&mut c);
    bench_top_k(&mut c);
    bench_multi_index_and(&mut c);
    bench_correlated_and(&mut c);
    bench_join3(&mut c);
    bench_join_unindexed_hash(&mut c);
    bench_join_merge_range(&mut c);
    bench_join_pushdown(&mut c);
    bench_join_skew_hotkey(&mut c);
    bench_join_partitioned_budget(&mut c);
    bench_mvcc_visibility(&mut c);
    bench_parallel_scan(&mut c);
    bench_parallel_build_hash(&mut c);
    bench_mixed_read_write(&mut c);
    bench_wal_commit(&mut c);
    bench_recovery_replay(&mut c);
    bench_refine(&mut c);
    write_report(c.measurements());
}
