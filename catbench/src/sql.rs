//! SQL workload: one `sql::Session` in autocommit mode over a durable
//! `listing` table (the shape of `benches/planner.rs`: hash indexes on
//! `listing_id` and `bucket`, a range index on `price`) plus a small
//! `seller`/`region` join fixture.
//!
//! Statements come in rounds of a fixed mix: ten primary-key lookups,
//! two price ranges, one `ORDER BY price DESC LIMIT 10`, two joins (one
//! two-way, one three-way) and one single-row `UPDATE`, whose commit
//! fsyncs. Every `STATS_VERSION_LAG` updates the next planned statement
//! recomputes the table's statistics. Reads are drawn from pools of
//! distinct statements, each checked against the reference executor
//! before timing starts.
//!
//! A traced run traces every statement: a read runs through parse →
//! plan → lower → drive one call at a time, with a span around each, and
//! an update runs through the session inside one span.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

use cat_txdb::database::WAL_FILE;
use cat_txdb::sql::{
    execute_select_reference, ops, parse_statement, plan_select_with, ExecBudget, PlanOptions,
    QueryResult, ResultSet, Session, Statement,
};
use cat_txdb::{dump_sql, row, DataType, Database, TableSchema, TableStats, Value};

use crate::report::{common_layers, metric, Report};
use crate::summary::{median, Timings};
use crate::trace::Tracer;
use crate::{
    derive_seed, file_len, open_durable_copy, peak_rss_mb, speed_factor, time_reopens, Digest,
    RunOptions,
};

/// Size of the SQL workload.
#[derive(Debug, Clone, Copy)]
pub struct SqlWorkload {
    /// Rows of `listing`.
    pub rows: usize,
}

/// Distinct point lookups and ranges in the read pools (a quarter as
/// many joins).
pub const POOL: usize = 64;
/// Set-ups a run makes (`setup_s` is their median).
const SETUPS: usize = 7;

/// Rows of `seller`: one per `listing.bucket` value.
const SELLERS: i64 = 1000;
/// Rows of `region`.
const REGIONS: i64 = 20;
/// Distinct prices are multiples of 0.1 below this bound.
const PRICE_TENTHS: i64 = 5000;
/// Seed of the generated tables. The data is part of the workload's
/// definition, like its size; the run's seed varies the statements.
pub const DATA_SEED: u64 = 2022;
/// Reopens of the data directory timed for `recover_s`.
const RECOVERY_OPENS: usize = 11;

/// Statement classes, each timed on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Point,
    Range,
    TopK,
    Join,
    Update,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::Range => "range",
            Class::TopK => "topk",
            Class::Join => "join",
            Class::Update => "update",
        }
    }

    /// Name of the root span of a statement of this class.
    fn span(self) -> &'static str {
        match self {
            Class::Point => "sql.point",
            Class::Range => "sql.range",
            Class::TopK => "sql.topk",
            Class::Join => "sql.join",
            Class::Update => "sql.update",
        }
    }
}

/// One round of the statement mix.
pub const ROUND: [Class; 16] = {
    use Class::*;
    [
        Point, Range, Point, Join, Point, Point, Update, Point, TopK, Point, Range, Point, Join,
        Point, Point, Point,
    ]
};

/// Build the listing database in memory.
pub fn generate(rows: usize, seed: u64) -> Result<Database, String> {
    let e = |e: cat_txdb::TxdbError| e.to_string();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("region")
            .column("region_id", DataType::Int)
            .column("name", DataType::Text)
            .primary_key(&["region_id"])
            .build()
            .map_err(e)?,
    )
    .map_err(e)?;
    db.create_table(
        TableSchema::builder("seller")
            .column("seller_id", DataType::Int)
            .column("name", DataType::Text)
            .column("region_id", DataType::Int)
            .primary_key(&["seller_id"])
            .build()
            .map_err(e)?,
    )
    .map_err(e)?;
    db.create_table(
        TableSchema::builder("listing")
            .column("listing_id", DataType::Int)
            .column("name", DataType::Text)
            .column("bucket", DataType::Int)
            .column("price", DataType::Float)
            .primary_key(&["listing_id"])
            .build()
            .map_err(e)?,
    )
    .map_err(e)?;
    db.create_index("listing", "bucket").map_err(e)?;
    db.create_range_index("listing", "price").map_err(e)?;
    for r in 0..REGIONS {
        db.insert("region", row![r, format!("R{r}")]).map_err(e)?;
    }
    for s in 0..SELLERS {
        let region = rng.random_range(0..REGIONS);
        db.insert(
            "seller",
            row![s, format!("S{}", rng.random_range(0..10_000)), region],
        )
        .map_err(e)?;
    }
    for i in 0..rows as i64 {
        let name = format!("L{}", rng.random_range(0..997));
        let bucket = rng.random_range(0..SELLERS);
        let price = rng.random_range(0..PRICE_TENTHS) as f64 / 10.0;
        db.insert("listing", row![i, name, bucket, price])
            .map_err(e)?;
    }
    Ok(db)
}

/// The distinct read statements of a run, per class.
#[derive(Debug, Clone)]
pub struct Pools {
    pub point: Vec<String>,
    pub range: Vec<String>,
    pub topk: Vec<String>,
    pub join: Vec<String>,
}

impl Pools {
    pub fn generate(rows: usize, size: usize, seed: u64) -> Pools {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = rows as i64;
        let point = (0..size)
            .map(|_| {
                let k = rng.random_range(0..rows);
                format!("SELECT name, bucket, price FROM listing WHERE listing_id = {k}")
            })
            .collect();
        let range = (0..size)
            .map(|_| {
                let lo = rng.random_range(0..PRICE_TENTHS - 15);
                format!(
                    "SELECT name, price FROM listing WHERE price >= {:.1} AND price < {:.1}",
                    lo as f64 / 10.0,
                    (lo + 15) as f64 / 10.0
                )
            })
            .collect();
        let topk = vec!["SELECT name, price FROM listing ORDER BY price DESC LIMIT 10".to_string()];
        let join = (0..size / 4)
            .map(|i| {
                if i % 2 == 0 {
                    let k = rng.random_range(0..rows);
                    format!(
                        "SELECT listing.name, seller.name FROM listing \
                         JOIN seller ON seller.seller_id = listing.bucket \
                         WHERE listing.listing_id = {k}"
                    )
                } else {
                    let b = rng.random_range(0..SELLERS);
                    format!(
                        "SELECT listing.listing_id, seller.name, region.name FROM listing \
                         JOIN seller ON seller.seller_id = listing.bucket \
                         JOIN region ON region.region_id = seller.region_id \
                         WHERE listing.bucket = {b}"
                    )
                }
            })
            .collect();
        Pools {
            point,
            range,
            topk,
            join,
        }
    }

    fn of(&self, class: Class) -> &[String] {
        match class {
            Class::Point => &self.point,
            Class::Range => &self.range,
            Class::TopK => &self.topk,
            Class::Join => &self.join,
            Class::Update => &[],
        }
    }
}

/// Run every distinct read through the session and through the naive
/// reference executor. Returns the digest of the results, or the first
/// statement on which the two disagree.
pub fn verify_reads(db: &mut Database, pools: &Pools) -> Result<Digest, String> {
    let mut session = Session::new();
    let mut digest = Digest::default();
    for class in [Class::Point, Class::Range, Class::TopK, Class::Join] {
        for sql in pools.of(class) {
            let planned = match session.execute(db, sql) {
                Ok(QueryResult::Rows(rs)) => rs,
                Ok(other) => return Err(format!("{sql}: returned {other:?}")),
                Err(e) => return Err(format!("{sql}: {e}")),
            };
            let Ok(Statement::Select(sel)) = parse_statement(sql) else {
                return Err(format!("{sql}: not a SELECT"));
            };
            let reference =
                execute_select_reference(db, &sel).map_err(|e| format!("{sql}: {e}"))?;
            if planned != reference {
                return Err(format!(
                    "{sql}: planned result differs from the reference executor"
                ));
            }
            digest.update(sql.as_bytes());
            digest_rows(&mut digest, &planned);
        }
    }
    Ok(digest)
}

fn digest_rows(digest: &mut Digest, rs: &ResultSet) {
    for row in &rs.rows {
        let line: Vec<String> = row.iter().map(Value::render).collect();
        digest.update(line.join("|").as_bytes());
    }
}

/// Rounds per block of latency samples.
const BLOCK_ROUNDS: u64 = 64;

/// Untraced latency samples, overall and per class.
#[derive(Debug, Default)]
struct Samples {
    all: Timings,
    by_class: [Timings; 5],
}

impl Samples {
    fn of(&self, class: Class) -> &Timings {
        &self.by_class[class as usize]
    }

    fn start_block(&mut self) {
        self.all.start_block();
        self.by_class.iter_mut().for_each(Timings::start_block);
    }

    fn push(&mut self, class: Class, us: f64, speed: f64) {
        self.all.push(us, speed);
        self.by_class[class as usize].push(us, speed);
    }
}

/// Execute one read through the layers one call at a time, with a span
/// around each: parse → plan → lower → drive. Returns the rows and the
/// rows the leaf operator produced.
fn traced_read(
    db: &Database,
    sql: &str,
    tracer: &mut Tracer,
) -> Result<(ResultSet, usize), String> {
    let stmt = tracer
        .span("sql.parse", || parse_statement(sql))
        .map_err(|e| e.to_string())?;
    let Statement::Select(sel) = stmt else {
        return Err(format!("{sql}: not a SELECT"));
    };
    let opts = PlanOptions::default();
    let plan = tracer
        .span("sql.plan", || plan_select_with(db, &sel, &opts))
        .map_err(|e| e.to_string())?;
    let budget = ExecBudget::from_options(&opts);
    let mut root = tracer
        .span("sql.lower", || ops::lower(db, &sel, &plan, &budget, None))
        .map_err(|e| e.to_string())?;
    let rows = tracer
        .span("sql.exec", || ops::drive(root.as_mut()))
        .map_err(|e| e.to_string())?;
    let mut leaf: &dyn ops::Operator = root.as_ref();
    while let Some(input) = leaf.input() {
        leaf = input;
    }
    let scanned = leaf.stats().map_or(0, |s| s.rows);
    Ok((rows, scanned))
}

/// Run the SQL workload for `opts.measure`.
pub fn run(w: &SqlWorkload, opts: &RunOptions) -> Result<Report, String> {
    let dir = opts.dir.join("listing");
    let (mut setup_s, mut setup_ref_s) = (Vec::new(), Vec::new());
    let mut corpus_s = Vec::new();
    let mut load_s = Vec::new();
    let mut db = None;
    for _ in 0..SETUPS {
        drop(db.take()); // close the previous copy before replacing its directory
        let speed_before = speed_factor();
        let start = Instant::now();
        let generated = generate(w.rows, DATA_SEED)?;
        corpus_s.push(start.elapsed().as_secs_f64());
        let t = Instant::now();
        db = Some(open_durable_copy(&generated, &dir)?);
        drop(generated);
        load_s.push(t.elapsed().as_secs_f64());
        let s = start.elapsed().as_secs_f64();
        setup_s.push(s);
        setup_ref_s.push(s * (speed_before + speed_factor()) / 2.0);
    }
    let mut db = db.expect("at least one set-up");

    let pools = Pools::generate(w.rows, POOL, derive_seed(opts.seed, 2, 0));
    let t = Instant::now();
    let digest = verify_reads(&mut db, &pools)?;
    let verify_s = t.elapsed().as_secs_f64();

    let mut tracer = Tracer::new(opts.trace);
    let mut stats_compute_ms = Vec::new();
    if opts.trace {
        let listing = db.table("listing").map_err(|e| e.to_string())?;
        for _ in 0..3 {
            let t = Instant::now();
            std::hint::black_box(TableStats::compute(listing));
            stats_compute_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }

    let wal_path = dir.join(WAL_FILE);
    let (wal_len, wal_records) = (file_len(&wal_path), db.wal_appended_records());
    let mut rng = StdRng::seed_from_u64(derive_seed(opts.seed, 3, 0));
    let mut session = Session::new();
    let mut samples = Samples::default();
    let mut speeds = Vec::new();
    let mut scanned_per_row: [Vec<f64>; 5] = Default::default();
    let (mut attempted, mut failed, mut updates) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed() < opts.measure {
        if round.is_multiple_of(BLOCK_ROUNDS) {
            samples.start_block();
        }
        let speed = speed_factor();
        speeds.push(speed);
        for (n, class) in ROUND.into_iter().enumerate() {
            let sql = match class {
                Class::Update => format!(
                    "UPDATE listing SET price = {:.1} WHERE listing_id = {}",
                    rng.random_range(0..PRICE_TENTHS) as f64 / 10.0,
                    rng.random_range(0..w.rows as i64)
                ),
                _ => pools
                    .of(class)
                    .choose(&mut rng)
                    .expect("non-empty pool")
                    .clone(),
            };
            attempted += 1;
            let ok = if opts.trace {
                tracer.begin_request(class.span());
                let result = match class {
                    Class::Update => tracer
                        .span("sql.session", || session.execute(&mut db, &sql))
                        .map(|_| None)
                        .map_err(|e| e.to_string()),
                    _ => traced_read(&db, &sql, &mut tracer).map(Some),
                };
                tracer.end();
                if let Ok(Some((rows, scanned))) = &result {
                    if !rows.rows.is_empty() {
                        scanned_per_row[class as usize]
                            .push(*scanned as f64 / rows.rows.len() as f64);
                    }
                }
                result.is_ok()
            } else {
                let t = Instant::now();
                let result = session.execute(&mut db, &sql);
                // The calibration just before leaves the caches cold for
                // the round's first statement: it runs, but is not timed.
                if n > 0 {
                    samples.push(class, t.elapsed().as_secs_f64() * 1e6, speed);
                }
                result.is_ok()
            };
            failed += u64::from(!ok);
            updates += u64::from(class == Class::Update && ok);
        }
        round += 1;
    }
    let wal_records = db.wal_appended_records() - wal_records;
    let wal_bytes = file_len(&wal_path).saturating_sub(wal_len);
    let live = dump_sql(&db).map_err(|e| format!("dump live database: {e}"))?;
    drop(db);
    let mut problems = Vec::new();
    let reopens = time_reopens(&dir, &live, RECOVERY_OPENS)?;
    if !reopens.matches {
        problems.push("the reopened data directory differs from the live database".to_string());
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    if opts.trace {
        tracer
            .write_jsonl(&opts.dir.join("trace.jsonl"))
            .map_err(|e| e.to_string())?;
    }

    let mut r = Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        ..Report::default()
    };
    r.note("workload", format!(
        "{} listing rows, rounds of {} statements, closed loop, 1 client thread, TXDB_THREADS=1, fsync on every commit",
        w.rows,
        ROUND.len()
    ));
    r.note("rounds", round);
    r.note(
        "verified_reads",
        pools.point.len() + pools.range.len() + pools.topk.len() + pools.join.len(),
    );
    r.note("read_digest", digest.hex());
    r.note("verify_s", verify_s);
    for p in &problems {
        r.note("check_failed", p);
    }
    r.note("speed_factor", median(&speeds));
    let all = &samples.all.reference;
    let wall = |c: Class| &samples.of(c).wall;
    r.end_to_end = vec![
        metric("setup_s", median(&setup_ref_s), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        metric("recover_ref_s", median(&reopens.ref_s), "s"),
        metric("request_p50_ref_us", all.p50(), "us"),
        metric("request_p95_ref_us", all.p95(), "us"),
        metric("requests_per_ref_s", all.per_s(), "1/s"),
        metric(
            "write_p50_ref_us",
            samples.of(Class::Update).reference.p50(),
            "us",
        ),
        metric(
            "task_success",
            (attempted - failed) as f64 / attempted.max(1) as f64,
            "share",
        ),
        metric("requests_per_task", 1.0, "count"),
    ];
    r.detail = vec![
        metric("sql_point_p50_us", wall(Class::Point).p50(), "us"),
        metric("sql_point_p99_us", wall(Class::Point).p99(), "us"),
        metric("sql_range_p50_us", wall(Class::Range).p50(), "us"),
        metric("sql_topk_p50_us", wall(Class::TopK).p50(), "us"),
        metric("sql_join_p50_us", wall(Class::Join).p50(), "us"),
        metric("sql_update_p50_us", wall(Class::Update).p50(), "us"),
        metric("sql_update_p99_us", wall(Class::Update).p99(), "us"),
        metric("sql_stmts_per_s", samples.all.wall.per_s(), "1/s"),
        metric("recover_s", median(&reopens.wall_s), "s"),
        metric("setup_wall_s", median(&setup_s), "s"),
    ];
    if !opts.trace {
        return Ok(r);
    }

    let commits = updates.max(1) as f64;
    r.per_layer = common_layers(
        &corpus_s,
        &load_s,
        &stats_compute_ms,
        &[wal_records as f64 / commits],
        &[wal_bytes as f64 / commits],
        tracer.overhead_pct(&ROUND.map(Class::span)),
    );
    r.detail.clear();
    for c in [Class::Point, Class::Range, Class::TopK, Class::Join] {
        for (phase, span) in [
            ("parse", "sql.parse"),
            ("plan", "sql.plan"),
            ("lower", "sql.lower"),
            ("exec", "sql.exec"),
        ] {
            let us = median(&tracer.durations_us(span, Some(c.span())));
            r.detail
                .push(metric(&format!("sql.{}.{phase}_us", c.name()), us, "us"));
        }
    }
    for c in [Class::TopK, Class::Range] {
        r.detail.push(metric(
            &format!("sql.{}.rows_scanned_per_row", c.name()),
            median(&scanned_per_row[c as usize]),
            "count",
        ));
    }
    Ok(r)
}
