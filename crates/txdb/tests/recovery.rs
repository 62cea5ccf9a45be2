//! Crash-consistency harness for the change log (WAL) and snapshot
//! checkpoints.
//!
//! The central invariant: after *any* crash — a log torn at any frame
//! boundary, a partially written frame, a flipped payload byte, a log
//! append that failed mid-commit — reopening the data directory yields
//! exactly the last committed state, nothing more and nothing less.
//!
//! The harness drives a fixed transactional workload, records a shadow
//! SQL dump after every commit, then mutilates the on-disk log at every
//! frame boundary and checks the recovered database against the shadow
//! that matches the surviving prefix of `Commit` records.

use std::path::{Path, PathBuf};

use cat_txdb::database::{SNAPSHOT_FILE, WAL_FILE};
use cat_txdb::{
    dump_sql, row, scan_wal, ChangeRecord, DataType, Database, Predicate, TableSchema, TxdbError,
    Value, WalOptions,
};

/// A fresh, empty scratch directory under the system temp dir, unique
/// per test name and process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("txdb-recovery-tests")
        .join(format!("{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Open without fsync: these tests exercise crash *consistency* (what
/// replay makes of the bytes that did reach the file), not the fsync
/// policy, and the full boundary sweep reopens the directory hundreds
/// of times.
fn open_fast(dir: &Path) -> Database {
    Database::open_with(dir, WalOptions { fsync: false }).expect("open")
}

fn accounts_schema() -> TableSchema {
    TableSchema::builder("account")
        .column("id", DataType::Int)
        .column("balance", DataType::Int)
        .nullable_column("note", DataType::Text)
        .primary_key(&["id"])
        .build()
        .unwrap()
}

/// Physical row id of the account with primary key `id` (latest
/// committed state). The mutation API is row-id-based.
fn rid_of(db: &Database, id: i64) -> cat_txdb::RowId {
    let hits = db.select("account", &Predicate::eq("id", id)).unwrap();
    assert_eq!(hits.len(), 1, "account id {id} not unique/present");
    hits[0].0
}

/// The canonical committed state of a database, for equality checks:
/// the SQL dump (schema + rows) plus every table's physical row ids
/// (the dump alone would not catch a replay that renumbers rows).
type Shadow = (String, Vec<(String, Vec<u64>)>);

fn observed_state(db: &Database) -> Shadow {
    let dump = dump_sql(db).expect("no active txns when observing state");
    let mut rids = Vec::new();
    for t in db.table_names() {
        let ids: Vec<u64> = db.table(t).unwrap().scan().map(|(rid, _)| rid.0).collect();
        rids.push((t.to_string(), ids));
    }
    (dump, rids)
}

// ---------------------------------------------------------------------
// Basic durability
// ---------------------------------------------------------------------

#[test]
fn drop_and_reopen_recovers_committed_state() {
    let dir = scratch("drop-reopen");
    let mut db = open_fast(&dir);
    db.create_table(accounts_schema()).unwrap();
    // Auto-commit writes...
    for i in 0..10i64 {
        db.insert("account", row![i, 100 * i, Value::Null]).unwrap();
    }
    // ...an explicit committed transaction...
    let (rid3, rid7) = (rid_of(&db, 3), rid_of(&db, 7));
    let txn = db.txn_begin();
    db.txn_update(txn, "account", rid3, "balance", Value::Int(-1))
        .unwrap();
    db.txn_delete(txn, "account", rid7).unwrap();
    db.txn_insert(txn, "account", row![77, 7, "seventy-seven"])
        .unwrap();
    db.txn_commit(txn).unwrap();
    // ...a rolled-back transaction (must leave no trace)...
    let txn = db.txn_begin();
    db.txn_insert(txn, "account", row![666, 0, Value::Null])
        .unwrap();
    db.txn_rollback(txn).unwrap();
    // ...and an uncommitted transaction still open at the "crash".
    let open_txn = db.txn_begin();
    db.txn_insert(open_txn, "account", row![999, 0, Value::Null])
        .unwrap();

    // Observe the state as a fresh reader sees it (committed only) by
    // rolling back the straggler on an in-memory copy; the on-disk files
    // never saw the uncommitted writes at all.
    let mut observer = db.to_in_memory();
    observer.txn_rollback(open_txn).unwrap();
    let expect = observed_state(&observer);

    drop(db); // crash: no close(), no checkpoint
    let reopened = open_fast(&dir);
    assert_eq!(observed_state(&reopened), expect);
    // The id allocator never rewinds below any id the log has seen:
    // every logged txn id stays smaller than the new watermark.
    let scan = scan_wal(&std::fs::read(dir.join(WAL_FILE)).unwrap())
        .unwrap()
        .expect("log exists");
    let max_logged = scan
        .records
        .iter()
        .filter_map(ChangeRecord::txn)
        .max()
        .unwrap();
    assert!(reopened.snapshot().watermark() > max_logged);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopened_database_keeps_accepting_writes() {
    let dir = scratch("reopen-write");
    let mut db = open_fast(&dir);
    db.create_table(accounts_schema()).unwrap();
    db.insert("account", row![1, 10, Value::Null]).unwrap();
    drop(db);

    let mut db = open_fast(&dir);
    // PK uniqueness survived recovery.
    assert!(db.insert("account", row![1, 99, Value::Null]).is_err());
    db.insert("account", row![2, 20, Value::Null]).unwrap();
    let txn = db.txn_begin();
    db.txn_insert(txn, "account", row![3, 30, Value::Null])
        .unwrap();
    db.txn_commit(txn).unwrap();
    drop(db);

    let db = open_fast(&dir);
    assert_eq!(db.table("account").unwrap().len(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn in_memory_copy_never_writes_the_log() {
    let dir = scratch("in-memory-copy");
    let mut db = open_fast(&dir);
    db.create_table(accounts_schema()).unwrap();
    db.insert("account", row![1, 10, Value::Null]).unwrap();
    let log_len = || std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
    let before = log_len();

    let mut copy = db.to_in_memory();
    copy.insert("account", row![2, 20, Value::Null]).unwrap();
    let txn = copy.txn_begin();
    copy.txn_insert(txn, "account", row![3, 30, Value::Null])
        .unwrap();
    copy.txn_commit(txn).unwrap();
    assert_eq!(copy.table("account").unwrap().len(), 3);
    assert_eq!(log_len(), before, "a write to the copy reached wal.log");
    drop((db, copy));

    let reopened = open_fast(&dir);
    assert_eq!(reopened.table("account").unwrap().len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------

#[test]
fn checkpoint_truncates_log_and_preserves_state() {
    let dir = scratch("checkpoint");
    let mut db = open_fast(&dir);
    db.create_table(accounts_schema()).unwrap();
    for i in 0..20i64 {
        db.insert("account", row![i, i, Value::Null]).unwrap();
    }
    assert!(db.wal_appended_records() > 0);
    db.checkpoint().unwrap();
    assert_eq!(db.wal_appended_records(), 0, "checkpoint truncates the log");
    // Writes after the checkpoint land in the fresh log.
    db.insert("account", row![100, 1, "post-checkpoint"])
        .unwrap();
    let expect = observed_state(&db);
    drop(db);

    let reopened = open_fast(&dir);
    assert_eq!(observed_state(&reopened), expect);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_refuses_active_transactions() {
    let dir = scratch("checkpoint-guard");
    let mut db = open_fast(&dir);
    db.create_table(accounts_schema()).unwrap();
    let txn = db.txn_begin();
    db.txn_insert(txn, "account", row![1, 1, Value::Null])
        .unwrap();
    let err = db.checkpoint().unwrap_err();
    assert!(
        matches!(
            &err,
            TxdbError::ActiveTransactions { operation, count: 1 } if operation == "checkpoint"
        ),
        "got {err:?}"
    );
    db.txn_commit(txn).unwrap();
    db.checkpoint().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn in_memory_database_refuses_checkpoint() {
    let mut db = Database::new();
    let err = db.checkpoint().unwrap_err();
    assert!(matches!(err, TxdbError::Io { .. }), "got {err:?}");
}

#[test]
fn stale_log_after_interrupted_checkpoint_is_discarded() {
    // Simulate a crash *between* "snapshot renamed into place" and "log
    // truncated": the old-generation log sits next to the new-generation
    // snapshot. Its contents are already inside the snapshot — replaying
    // them twice would double-apply.
    let dir = scratch("stale-log");
    let mut db = open_fast(&dir);
    db.create_table(accounts_schema()).unwrap();
    db.insert("account", row![1, 10, Value::Null]).unwrap();
    drop(db);
    let stale_log = std::fs::read(dir.join(WAL_FILE)).unwrap();

    let mut db = open_fast(&dir);
    db.checkpoint().unwrap();
    let expect = observed_state(&db);
    drop(db);
    // Put the pre-checkpoint log back, as the interrupted crash left it.
    std::fs::write(dir.join(WAL_FILE), &stale_log).unwrap();

    let reopened = open_fast(&dir);
    assert_eq!(observed_state(&reopened), expect);
    assert_eq!(
        reopened.table("account").unwrap().len(),
        1,
        "no double apply"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn log_newer_than_snapshot_is_corrupt() {
    let dir = scratch("newer-log");
    let mut db = open_fast(&dir);
    db.create_table(accounts_schema()).unwrap();
    db.checkpoint().unwrap(); // snapshot generation 1, log generation 1
    drop(db);
    // Losing the snapshot leaves a generation-1 log with no base to
    // apply on: recovery must refuse, not silently replay onto empty.
    std::fs::remove_file(dir.join(SNAPSHOT_FILE)).unwrap();
    let err = Database::open(&dir).unwrap_err();
    assert!(matches!(err, TxdbError::Corrupt(_)), "got {err:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Torn-log sweep: kill the log at every frame boundary
// ---------------------------------------------------------------------

/// Drive a workload of explicit transactions, recording a shadow dump
/// after every durable point (the DDL record, then every commit).
/// Returns the shadow states: `shadows[k]` is the expected observable
/// state once the first `k` durable points have been replayed.
fn committed_workload(dir: &Path) -> Vec<Shadow> {
    let mut db = open_fast(dir);
    let mut shadows = Vec::new();
    shadows.push(observed_state(&db)); // empty database, nothing replayed
    db.create_table(accounts_schema()).unwrap();
    shadows.push(observed_state(&db)); // DDL applied
    let mut commit = |db: &mut Database, ops: &dyn Fn(&mut Database, u64)| {
        let txn = db.txn_begin();
        ops(db, txn);
        db.txn_commit(txn).unwrap();
        shadows.push(observed_state(db));
    };
    commit(&mut db, &|db, t| {
        for i in 0..4i64 {
            db.txn_insert(t, "account", row![i, 10 * i, Value::Null])
                .unwrap();
        }
    });
    commit(&mut db, &|db, t| {
        let rid2 = rid_of(db, 2);
        db.txn_update(t, "account", rid2, "balance", Value::Int(777))
            .unwrap();
        db.txn_insert(t, "account", row![9, 9, "nine"]).unwrap();
    });
    commit(&mut db, &|db, t| {
        let (rid0, rid9) = (rid_of(db, 0), rid_of(db, 9));
        db.txn_delete(t, "account", rid0).unwrap();
        db.txn_update(t, "account", rid9, "note", Value::Null)
            .unwrap();
    });
    commit(&mut db, &|db, t| {
        let (rid1, rid9) = (rid_of(db, 1), rid_of(db, 9));
        db.txn_insert(t, "account", row![12, 1, Value::Null])
            .unwrap();
        db.txn_delete(t, "account", rid9).unwrap();
        db.txn_update(t, "account", rid1, "balance", Value::Int(-5))
            .unwrap();
    });
    drop(db); // crash, not close: the log holds everything
    shadows
}

/// How many durable points the first `k` records of the log hold: a
/// `Commit` publishes its batch, and DDL records apply immediately.
/// (Auto-commit txn-0 writes would count too; this workload has none.)
fn commits_in_prefix(records: &[ChangeRecord], k: usize) -> usize {
    records[..k]
        .iter()
        .filter(|r| {
            matches!(
                r,
                ChangeRecord::Commit { .. }
                    | ChangeRecord::CreateTable { .. }
                    | ChangeRecord::DropTable { .. }
                    | ChangeRecord::CreateIndex { .. }
            )
        })
        .count()
}

#[test]
fn torn_log_recovers_last_committed_prefix_at_every_boundary() {
    let dir = scratch("torn-sweep");
    let shadows = committed_workload(&dir);
    let wal_path = dir.join(WAL_FILE);
    let pristine = std::fs::read(&wal_path).unwrap();
    let scan = scan_wal(&pristine).unwrap().expect("log has a header");
    assert_eq!(
        commits_in_prefix(&scan.records, scan.records.len()),
        shadows.len() - 1,
        "workload and log disagree on commit count"
    );

    // Boundaries to kill at: the header end, plus just-past every frame —
    // and for each, also a cut *inside* the following frame (torn write).
    let mut cuts: Vec<(u64, usize)> = Vec::new(); // (cut at byte, frames fully kept)
    let mut starts = vec![cat_txdb::wal::WAL_HEADER_LEN];
    starts.extend(scan.frame_ends.iter().copied());
    for (frames_kept, &start) in starts.iter().enumerate() {
        cuts.push((start, frames_kept));
        let next_end = scan.frame_ends.get(frames_kept).copied();
        if let Some(end) = next_end {
            // Mid-frame cuts: 1 byte in (inside the length word) and 1
            // byte short of whole (payload truncated).
            cuts.push((start + 1, frames_kept));
            cuts.push((end - 1, frames_kept));
        }
    }

    for (cut, frames_kept) in cuts {
        std::fs::write(&wal_path, &pristine[..cut as usize]).unwrap();
        let reopened = open_fast(&dir);
        let expect = &shadows[commits_in_prefix(&scan.records, frames_kept)];
        assert_eq!(
            &observed_state(&reopened),
            expect,
            "cut at byte {cut} ({frames_kept} whole frames) recovered the wrong state"
        );
        // Recovery truncated the torn tail: the next open must replay
        // identically even though we do not restore the pristine bytes.
        let again = open_fast(&dir);
        assert_eq!(
            &observed_state(&again),
            expect,
            "recovery is not idempotent at {cut}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_crc_byte_discards_the_final_record() {
    let dir = scratch("crc-flip");
    let shadows = committed_workload(&dir);
    let wal_path = dir.join(WAL_FILE);
    let pristine = std::fs::read(&wal_path).unwrap();
    let scan = scan_wal(&pristine).unwrap().expect("log has a header");
    let frames = scan.frame_ends.len();
    assert!(frames >= 2);

    // Flip one byte in the payload of the final frame (its record is the
    // last Commit): the CRC no longer matches, the whole final batch is
    // an uncommitted tail, and recovery lands on the prior commit.
    let mut bytes = pristine;
    let last = *scan.frame_ends.last().unwrap() as usize;
    bytes[last - 1] ^= 0xFF;
    std::fs::write(&wal_path, &bytes).unwrap();
    let reopened = open_fast(&dir);
    let expect = &shadows[commits_in_prefix(&scan.records, frames - 1)];
    assert_eq!(&observed_state(&reopened), expect);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_log_corruption_stops_replay_at_the_damage() {
    // A flipped byte in the *middle* of the log: everything after it is
    // indistinguishable from a torn tail, so recovery keeps the clean
    // prefix and drops the rest. (Documented limit: no per-frame
    // resynchronization — see ARCHITECTURE.md.)
    let dir = scratch("mid-corrupt");
    let shadows = committed_workload(&dir);
    let wal_path = dir.join(WAL_FILE);
    let pristine = std::fs::read(&wal_path).unwrap();
    let scan = scan_wal(&pristine).unwrap().expect("log has a header");
    let frames = scan.frame_ends.len();
    let mid = frames / 2;
    let mut bytes = pristine;
    let target = scan.frame_ends[mid] as usize - 1; // last payload byte of frame `mid`
    bytes[target] ^= 0x55;
    std::fs::write(&wal_path, &bytes).unwrap();
    let reopened = open_fast(&dir);
    let expect = &shadows[commits_in_prefix(&scan.records, mid)];
    assert_eq!(&observed_state(&reopened), expect);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_magic_number_fails_loudly() {
    let dir = scratch("foreign-magic");
    let mut db = open_fast(&dir);
    db.create_table(accounts_schema()).unwrap();
    drop(db);
    let wal_path = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    bytes[0] = b'X';
    std::fs::write(&wal_path, &bytes).unwrap();
    let err = Database::open(&dir).unwrap_err();
    assert!(matches!(err, TxdbError::Corrupt(_)), "got {err:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Fault injection: the log append itself fails mid-commit
// ---------------------------------------------------------------------

#[test]
fn commit_is_atomic_under_append_failure_at_every_record() {
    // A committing transaction appends [Begin, writes.., Commit] as one
    // batch. Fail the append after every possible number of records
    // written: the commit must report an error, the in-memory state must
    // roll back, and recovery from the (torn) file must agree.
    let batch_len = 5; // Begin + 3 writes + Commit
    for fail_after in 0..batch_len {
        let dir = scratch(&format!("fault-{fail_after}"));
        let mut db = open_fast(&dir);
        db.create_table(accounts_schema()).unwrap();
        db.insert("account", row![1, 10, Value::Null]).unwrap();
        db.insert("account", row![2, 20, Value::Null]).unwrap();
        let expect = observed_state(&db);

        let txn = db.txn_begin();
        let (rid1, rid2) = (rid_of(&db, 1), rid_of(&db, 2));
        db.txn_insert(txn, "account", row![3, 30, Value::Null])
            .unwrap();
        db.txn_update(txn, "account", rid1, "balance", Value::Int(0))
            .unwrap();
        db.txn_delete(txn, "account", rid2).unwrap();
        db.wal_fail_appends_after(fail_after);
        let err = db.txn_commit(txn).unwrap_err();
        assert!(matches!(err, TxdbError::Io { .. }), "got {err:?}");

        // In memory: fully rolled back, transaction gone, writes invisible.
        assert!(!db.has_active_txns());
        assert_eq!(
            observed_state(&db),
            expect,
            "fail_after={fail_after}: memory state leaked"
        );

        // On disk: whatever partial batch hit the file has no Commit
        // record, so recovery discards it.
        drop(db);
        let reopened = open_fast(&dir);
        assert_eq!(
            observed_state(&reopened),
            expect,
            "fail_after={fail_after}: partial batch visible after recovery"
        );
        // And the recovered database still takes writes.
        let mut reopened = reopened;
        reopened
            .insert("account", row![50, 5, Value::Null])
            .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn direct_write_is_atomic_under_append_failure() {
    let dir = scratch("fault-direct");
    let mut db = open_fast(&dir);
    db.create_table(accounts_schema()).unwrap();
    db.insert("account", row![1, 10, Value::Null]).unwrap();
    let expect = observed_state(&db);

    db.wal_fail_appends_after(0);
    assert!(matches!(
        db.insert("account", row![2, 20, Value::Null]).unwrap_err(),
        TxdbError::Io { .. }
    ));
    assert_eq!(observed_state(&db), expect, "failed insert leaked");

    let rid1 = rid_of(&db, 1);
    db.wal_fail_appends_after(0);
    assert!(matches!(
        db.update("account", rid1, "balance", Value::Int(0))
            .unwrap_err(),
        TxdbError::Io { .. }
    ));
    assert_eq!(observed_state(&db), expect, "failed update leaked");

    db.wal_fail_appends_after(0);
    assert!(matches!(
        db.delete("account", rid1).unwrap_err(),
        TxdbError::Io { .. }
    ));
    assert_eq!(observed_state(&db), expect, "failed delete leaked");

    drop(db);
    let reopened = open_fast(&dir);
    assert_eq!(observed_state(&reopened), expect);
    let _ = std::fs::remove_dir_all(&dir);
}
