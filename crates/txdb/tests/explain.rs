//! `EXPLAIN [ANALYZE]` snapshot tests: exact rendered operator trees on
//! fixed fixtures, pinning the operators, join strategies, partition
//! counts and estimated cardinalities the lowering produces — plus
//! `ANALYZE` tests asserting the actual-row annotations match real
//! result sizes.
//!
//! Every test pins `PlanOptions::memory_budget` explicitly, so the
//! snapshots hold both with and without the `tight-budget` feature
//! (which only flips the *default* budget).

use cat_txdb::sql::{
    execute, execute_script, execute_select_with, explain_select_with, parse_statement,
    PlanOptions, QueryResult, Statement,
};
use cat_txdb::{row, Database, Value};

/// Parse `sql` (a plain SELECT) and render its `EXPLAIN [ANALYZE]` tree
/// under `opts`, one line per operator.
fn explain(db: &Database, sql: &str, opts: &PlanOptions, analyze: bool) -> Vec<String> {
    let Statement::Select(sel) = parse_statement(sql).unwrap() else {
        panic!("fixture query is not a SELECT: {sql}")
    };
    explain_select_with(db, &sel, opts, analyze)
        .unwrap()
        .rows
        .into_iter()
        .map(|mut row| match row.remove(0) {
            Value::Text(line) => line,
            other => panic!("EXPLAIN emitted a non-text cell: {other:?}"),
        })
        .collect()
}

/// Unbudgeted defaults — pinned so snapshots are identical under the
/// `tight-budget` feature.
fn unbudgeted() -> PlanOptions {
    PlanOptions {
        memory_budget: None,
        ..PlanOptions::default()
    }
}

/// Small deterministic two-table fixture: `album` (8 rows; hash index
/// on `genre`, range index on `price`, `stock` unindexed) and `track`
/// (16 rows; pk index, range index on the `album_id` join key).
fn music_db() -> Database {
    let mut db = Database::new();
    execute_script(
        &mut db,
        "CREATE TABLE album (album_id INT PRIMARY KEY, genre TEXT, price FLOAT, stock INT);
         CREATE TABLE track (track_id INT PRIMARY KEY, album_id INT, length INT)",
    )
    .unwrap();
    for i in 0..8i64 {
        let genre = ["jazz", "rock"][(i % 2) as usize];
        db.insert("album", row![i, genre, 5.0 + i as f64, i % 3])
            .unwrap();
    }
    for i in 0..16i64 {
        db.insert("track", row![i, i % 8, 120 + i]).unwrap();
    }
    {
        let t = db.table_mut("album").unwrap();
        t.create_index("genre").unwrap();
        t.create_range_index("price").unwrap();
    }
    db.table_mut("track")
        .unwrap()
        .create_range_index("album_id")
        .unwrap();
    db
}

#[test]
fn explain_single_table_scan_filter_topk() {
    let db = music_db();
    let tree = explain(
        &db,
        "SELECT album_id, price FROM album WHERE stock = 1 ORDER BY price DESC LIMIT 2",
        &unbudgeted(),
        false,
    );
    assert_eq!(
        tree,
        vec![
            "Project [album_id, price] (est=2 rows)",
            "  TopK [price desc, k=2] (est=2 rows)",
            "    Filter [pushed: 1] (est=3 rows)",
            "      Scan [album] (est=8 rows)",
        ]
    );
}

#[test]
fn explain_build_hash_join_with_pushed_filter() {
    let db = music_db();
    let tree = explain(
        &db,
        "SELECT album.price, track.length FROM album JOIN track ON track.album_id = album.album_id WHERE album.genre = 'jazz'",
        &unbudgeted(),
        false,
    );
    assert_eq!(
        tree,
        vec![
            "Project [album.price, track.length] (est=8 rows)",
            "  BuildHashJoin [track.album_id, partitions=1] (est=8 rows)",
            "    Filter [pushed: 1] (est=4 rows)",
            "      Scan [album] (est=8 rows)",
        ]
    );
}

#[test]
fn explain_index_probe_join() {
    let db = music_db();
    let tree = explain(
        &db,
        "SELECT track.track_id, album.genre FROM track JOIN album ON album.album_id = track.album_id",
        &unbudgeted(),
        false,
    );
    assert_eq!(
        tree,
        vec![
            "Project [track.track_id, album.genre] (est=16 rows)",
            "  IndexProbeJoin [album.album_id] (est=16 rows)",
            "    Scan [track] (est=16 rows)",
        ]
    );
}

#[test]
fn explain_merge_range_join_with_index_scan() {
    // The MergeRange gate: an unindexed-hash float join key with range
    // indexes on both sides, and a selective outer (PK equality) so the
    // ordered walk beats building a hash map.
    let mut db = Database::new();
    execute_script(
        &mut db,
        "CREATE TABLE lt (l_id INT PRIMARY KEY, k FLOAT);
         CREATE TABLE rt (r_id INT PRIMARY KEY, k FLOAT, tag TEXT);
         INSERT INTO lt VALUES (1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0), (5, 2.0), (6, 9.0);
         INSERT INTO rt VALUES (10, 1.0, 'a'), (11, 2.0, 'b'), (12, 2.0, 'c'),
                               (13, 5.0, 'd'), (14, 6.0, 'e'), (15, 7.0, 'f')",
    )
    .unwrap();
    db.table_mut("lt").unwrap().create_range_index("k").unwrap();
    db.table_mut("rt").unwrap().create_range_index("k").unwrap();
    let tree = explain(
        &db,
        "SELECT lt.l_id, rt.tag FROM lt JOIN rt ON rt.k = lt.k WHERE lt.l_id = 2",
        &unbudgeted(),
        false,
    );
    assert_eq!(
        tree,
        vec![
            "Project [lt.l_id, rt.tag] (est=1 rows)",
            "  MergeRangeJoin [rt.k] (est=1 rows)",
            "    IndexScan [lt via index_eq(l_id)] (est=1 rows)",
        ]
    );
}

#[test]
fn explain_aggregate_pipeline() {
    let db = music_db();
    let tree = explain(
        &db,
        "SELECT genre, count(*), avg(price) FROM album GROUP BY genre ORDER BY genre LIMIT 3",
        &unbudgeted(),
        false,
    );
    assert_eq!(
        tree,
        vec![
            "Project [genre, count(*), avg(price)] (est=3 rows)",
            "  Limit [3] (est=3 rows)",
            "    Order [genre]",
            "      Aggregate [group_by=(genre), aggs=2]",
            "        Scan [album] (est=8 rows)",
        ]
    );
}

/// Skewed build side large enough that a 256 KiB budget makes the
/// planner partition the hash build (hot key 7 diverted resident).
fn skewed_db() -> Database {
    let mut db = Database::new();
    execute_script(
        &mut db,
        "CREATE TABLE probe (p_id INT PRIMARY KEY, k INT);
         CREATE TABLE build (b_id INT PRIMARY KEY, k INT)",
    )
    .unwrap();
    for i in 0..10_000i64 {
        let k = if i % 2 == 0 { 7 } else { i };
        db.insert("build", row![i, k]).unwrap();
    }
    for i in 0..32i64 {
        db.insert("probe", row![i, if i % 2 == 0 { 7 } else { 3 * i }])
            .unwrap();
    }
    db
}

#[test]
fn explain_partitioned_hash_join() {
    let db = skewed_db();
    let opts = PlanOptions {
        memory_budget: Some(256 * 1024),
        ..PlanOptions::default()
    };
    let tree = explain(
        &db,
        "SELECT probe.p_id, build.b_id FROM probe JOIN build ON build.k = probe.k",
        &opts,
        false,
    );
    assert_eq!(
        tree,
        vec![
            "Project [probe.p_id, build.b_id] (est=64 rows)",
            "  BuildHashJoin [build.k, partitions=64, hot=1] (est=64 rows)",
            "    Scan [probe] (est=32 rows)",
        ]
    );
}

#[test]
fn explain_analyze_actual_rows_match_result_sizes() {
    let db = music_db();
    let q = "SELECT album.price, track.length FROM album JOIN track ON track.album_id = album.album_id WHERE album.genre = 'jazz'";
    let Statement::Select(sel) = parse_statement(q).unwrap() else {
        unreachable!()
    };
    let result = execute_select_with(&db, &sel, &unbudgeted()).unwrap();
    assert_eq!(result.rows.len(), 8);
    let tree = explain(&db, q, &unbudgeted(), true);
    assert_eq!(
        tree,
        vec![
            "Project [album.price, track.length] (est=8 rows, actual=8 rows, peak=0 B)",
            "  BuildHashJoin [track.album_id, partitions=1] (est=8 rows, actual=8 rows, peak=512 B)",
            "    Filter [pushed: 1] (est=4 rows, actual=4 rows, peak=0 B)",
            "      Scan [album] (est=8 rows, actual=8 rows, peak=0 B)",
        ]
    );
    // The root's actual-row annotation is the result size by contract.
    let root_actual = parse_annotation(&tree[0], "actual=");
    assert_eq!(root_actual, result.rows.len());
}

/// Extract the numeric value following `key` in a rendered node line.
fn parse_annotation(line: &str, key: &str) -> usize {
    let at = line.find(key).unwrap_or_else(|| {
        panic!("annotation `{key}` missing in line `{line}`");
    });
    line[at + key.len()..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap()
        .parse()
        .unwrap()
}

/// 600-row fixture where `country` is fully determined by `city`: the
/// correlated pair the joint-statistics estimator prices. `EXPLAIN
/// ANALYZE` must show per-operator estimated vs actual rows — and the
/// joint-statistics estimate must be exact on the filtered node, where
/// the independence product would price 4/6 of the actual rows.
#[test]
fn explain_analyze_shows_estimates_vs_actuals_on_correlated_data() {
    let mut db = Database::new();
    execute_script(
        &mut db,
        "CREATE TABLE store (store_id INT PRIMARY KEY, city TEXT, country TEXT)",
    )
    .unwrap();
    let cities = ["Berlin", "Munich", "Hamburg", "Cologne", "Vienna", "Linz"];
    for i in 0..600i64 {
        let city = cities[(i % 6) as usize];
        let country = if city == "Vienna" || city == "Linz" {
            "Austria"
        } else {
            "Germany"
        };
        db.insert("store", row![i, city, country]).unwrap();
    }
    {
        let t = db.table_mut("store").unwrap();
        t.create_index("city").unwrap();
        t.create_index("country").unwrap();
    }
    let q = "SELECT store_id FROM store WHERE city = 'Berlin' AND country = 'Germany'";
    let correlated = explain(&db, q, &unbudgeted(), true);
    assert_eq!(
        correlated,
        vec![
            "Project [store_id] (est=100 rows, actual=100 rows, peak=0 B)",
            "  Filter [pushed: 1] (est=100 rows, actual=100 rows, peak=0 B)",
            "    IndexScan [store via index_eq(city)] (est=100 rows, actual=100 rows, peak=0 B)",
        ]
    );
    // The joint-statistics estimate is exact — visible per operator,
    // not just in totals.
    let actual = parse_annotation(&correlated[1], "actual=");
    let corr_est = parse_annotation(&correlated[1], "est=");
    assert_eq!(corr_est, actual);
}

#[test]
fn explain_statement_executes_through_the_shell_entry_point() {
    let mut db = music_db();
    let QueryResult::Rows(rs) = execute(&mut db, "EXPLAIN SELECT * FROM album").unwrap() else {
        panic!("EXPLAIN did not return rows")
    };
    assert_eq!(rs.columns, vec!["plan"]);
    let lines: Vec<&str> = rs
        .rows
        .iter()
        .map(|r| match &r[0] {
            Value::Text(s) => s.as_str(),
            other => panic!("non-text plan cell: {other:?}"),
        })
        .collect();
    assert_eq!(
        lines,
        vec!["Project [*] (est=8 rows)", "  Scan [album] (est=8 rows)"]
    );
    // EXPLAIN ANALYZE through the same entry point carries actuals.
    let QueryResult::Rows(rs) = execute(&mut db, "EXPLAIN ANALYZE SELECT * FROM album").unwrap()
    else {
        panic!("EXPLAIN ANALYZE did not return rows")
    };
    let Value::Text(root) = &rs.rows[0][0] else {
        panic!("non-text plan cell")
    };
    assert_eq!(parse_annotation(root, "actual="), 8);
}

#[test]
fn explain_rejects_non_select_statements() {
    let mut db = music_db();
    let err = execute(&mut db, "EXPLAIN DELETE FROM album").unwrap_err();
    assert!(
        err.to_string().contains("EXPLAIN only applies to SELECT"),
        "unexpected error: {err}"
    );
}
