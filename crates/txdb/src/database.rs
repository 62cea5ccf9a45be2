//! The database facade: catalog of tables, stored procedures, foreign-key
//! enforcement, transactional execution, and — when opened from a data
//! directory — write-ahead logging, crash recovery and checkpoints.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use crate::error::{Result, TxdbError};
use crate::predicate::Predicate;
use crate::procedure::{ProcOp, ProcOutcome, Procedure};
use crate::row::{Row, RowId};
use crate::schema::TableSchema;
use crate::stats::TableStats;
use crate::table::Table;
use crate::txn::{Snapshot, Transaction, TxnManager};
use crate::value::Value;
use crate::wal::{self, ChangeRecord, Wal, WalOptions, AUTOCOMMIT_TXN};

/// File name of the append-only change log inside a data directory.
pub const WAL_FILE: &str = "wal.log";
/// File name of the binary snapshot inside a data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

/// Number of mutations (version bumps) cached statistics may lag behind
/// the live table before [`Database::with_stats`] recomputes them.
pub const STATS_VERSION_LAG: u64 = 64;

/// Fractional row-count drift that forces a statistics recompute even
/// within the version lag.
pub const STATS_ROW_DRIFT: f64 = 0.1;

/// Minimum absolute row-count drift tolerated regardless of the fraction
/// (so a handful of writes to a tiny table doesn't thrash recomputes).
const STATS_ROW_DRIFT_FLOOR: f64 = 8.0;

/// Whether cached statistics are still usable under the staleness bound.
/// The lag is measured against the *committed* mutation counter so a
/// rolled-back transaction's writes don't burn the recompute budget.
fn stats_usable(s: &TableStats, t: &Table) -> bool {
    let lag = t.committed_version().saturating_sub(s.version);
    if lag == 0 {
        return true;
    }
    if lag >= STATS_VERSION_LAG {
        return false;
    }
    let drift = (t.len() as f64 - s.row_count as f64).abs();
    drift <= (s.row_count as f64 * STATS_ROW_DRIFT).max(STATS_ROW_DRIFT_FLOOR)
}

/// A relational database with foreign keys, stored procedures and MVCC
/// snapshot-isolated transactions. In-memory by default
/// ([`Database::new`]); opened from a data directory
/// ([`Database::open`]) it additionally write-ahead-logs every mutation
/// and recovers the last committed state after a crash.
#[derive(Debug, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    procedures: BTreeMap<String, Procedure>,
    /// Transaction-id allocator and active-set registry backing MVCC
    /// visibility.
    txns: TxnManager,
    /// Lazily computed per-table statistics, invalidated via the table
    /// version counter. Interior mutability keeps the read-side query
    /// planner working on `&Database`.
    stats_cache: Mutex<HashMap<String, TableStats>>,
    /// The change log, when the database is durable. `None` for
    /// [`Database::new`]: every mutation path checks this once and the
    /// in-memory engine pays nothing else.
    wal: Option<Wal>,
    /// Directory holding [`WAL_FILE`] and [`SNAPSHOT_FILE`].
    data_dir: Option<PathBuf>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// A detached in-memory copy of this database: same tables,
    /// procedures and transaction state, but no write-ahead log, so
    /// writes to the copy never reach this database's data directory
    /// (two logs appending to one file would interleave batches). Open a
    /// second data directory for a durable copy.
    pub fn to_in_memory(&self) -> Database {
        Database {
            tables: self.tables.clone(),
            procedures: self.procedures.clone(),
            txns: self.txns.clone(),
            // Statistics are cheap to recompute lazily; start cold.
            stats_cache: Mutex::new(HashMap::new()),
            wal: None,
            data_dir: None,
        }
    }

    // ----- durability: open / checkpoint / close -----

    /// Open (or create) a durable database in directory `path` with
    /// default [`WalOptions`] (fsync on every commit).
    ///
    /// Recovery order: load `snapshot.bin` when present, then replay the
    /// committed batches of `wal.log` on top of it, discarding any torn
    /// tail (a crash mid-append) and any uncommitted transaction (writes
    /// without a `Commit` record). Row ids, index structure, version
    /// counters and the transaction-id watermark all come back exactly
    /// as they were at the last committed state.
    pub fn open(path: impl AsRef<Path>) -> Result<Database> {
        Database::open_with(path, WalOptions::default())
    }

    /// [`Database::open`] with explicit [`WalOptions`].
    pub fn open_with(path: impl AsRef<Path>, options: WalOptions) -> Result<Database> {
        let dir = path.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| TxdbError::io("create data directory", &e))?;
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let wal_path = dir.join(WAL_FILE);
        let (mut db, snap_gen) = if snapshot_path.exists() {
            let bytes =
                std::fs::read(&snapshot_path).map_err(|e| TxdbError::io("read snapshot", &e))?;
            crate::dump::restore_binary(&bytes)?
        } else {
            (Database::new(), 0)
        };
        let scan = if wal_path.exists() {
            let bytes = std::fs::read(&wal_path).map_err(|e| TxdbError::io("read wal", &e))?;
            wal::scan_wal(&bytes)?
        } else {
            None
        };
        let wal = match scan {
            Some(scan) if scan.generation == snap_gen => {
                let max_txn = wal::recover::apply_records(&mut db, &scan.records)?;
                db.txns.advance_past(max_txn);
                Wal::open(&wal_path, snap_gen, Some(scan.valid_len), options)?
            }
            Some(scan) if scan.generation < snap_gen => {
                // Crash between "snapshot renamed" and "log truncated":
                // the snapshot already contains everything this stale
                // log holds. Discard it rather than replay it twice.
                Wal::open(&wal_path, snap_gen, None, options)?
            }
            Some(scan) => {
                return Err(TxdbError::Corrupt(format!(
                    "wal generation {} is newer than snapshot generation {snap_gen}",
                    scan.generation
                )))
            }
            None => Wal::open(&wal_path, snap_gen, None, options)?,
        };
        db.wal = Some(wal);
        db.data_dir = Some(dir);
        Ok(db)
    }

    /// Whether this database writes a change log.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// The data directory, when durable.
    pub fn data_dir(&self) -> Option<&Path> {
        self.data_dir.as_deref()
    }

    /// Records appended to the log since open or the last checkpoint
    /// (0 for an in-memory database). Observability for tests and
    /// checkpoint policies.
    pub fn wal_appended_records(&self) -> u64 {
        self.wal.as_ref().map_or(0, Wal::appended_records)
    }

    /// Inject a log-append failure after `n` more records reach the
    /// file. Test hook for the commit-atomicity fault sweep; not part of
    /// the stable API.
    #[doc(hidden)]
    pub fn wal_fail_appends_after(&mut self, n: u64) {
        if let Some(wal) = self.wal.as_mut() {
            wal.fail_appends_after(n);
        }
    }

    /// Write a snapshot of the current committed state and truncate the
    /// log, bounding recovery cost. Refuses to run with transactions in
    /// flight ([`TxdbError::ActiveTransactions`]) — their uncommitted
    /// versions would leak into the snapshot.
    ///
    /// Crash-safe protocol: the snapshot is written to a temp file,
    /// fsynced and renamed into place carrying generation `g+1`; only
    /// then is the log truncated and restamped to `g+1`. A crash between
    /// the two leaves a `g` log next to a `g+1` snapshot, which
    /// [`Database::open`] detects and discards (the snapshot already
    /// contains those effects) instead of replaying twice.
    pub fn checkpoint(&mut self) -> Result<()> {
        let Some(dir) = self.data_dir.clone() else {
            return Err(TxdbError::Io {
                context: "checkpoint".into(),
                detail: "database has no data directory (opened with Database::new)".into(),
            });
        };
        if self.has_active_txns() {
            return Err(TxdbError::ActiveTransactions {
                operation: "checkpoint".into(),
                count: self.txns.active_count(),
            });
        }
        let gen = self
            .wal
            .as_ref()
            .expect("durable database has a wal")
            .generation()
            + 1;
        let bytes = crate::dump::dump_binary(self, gen)?;
        let tmp = dir.join("snapshot.bin.tmp");
        let finished = dir.join(SNAPSHOT_FILE);
        {
            let mut f = std::fs::File::create(&tmp)
                .map_err(|e| TxdbError::io("create snapshot temp file", &e))?;
            f.write_all(&bytes)
                .and_then(|()| f.sync_all())
                .map_err(|e| TxdbError::io("write snapshot", &e))?;
        }
        std::fs::rename(&tmp, &finished).map_err(|e| TxdbError::io("publish snapshot", &e))?;
        self.wal
            .as_mut()
            .expect("durable database has a wal")
            .reset(gen)?;
        Ok(())
    }

    /// Checkpoint (when durable) and consume the database. Purely a
    /// convenience: every commit is already durable the moment it
    /// returns, so dropping without `close` loses nothing — the next
    /// open just pays log replay instead of a snapshot load.
    pub fn close(mut self) -> Result<()> {
        if self.data_dir.is_some() {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Append records to the change log, when one is attached. The
    /// caller owns undo: on `Err` the in-memory effect must be unwound
    /// so memory and disk agree (commit atomicity).
    fn log_append(&mut self, records: &[ChangeRecord]) -> Result<()> {
        match self.wal.as_mut() {
            Some(wal) => wal.append_batch(records),
            None => Ok(()),
        }
    }

    // ----- catalog -----

    /// Create a table from a schema.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<()> {
        if self.tables.contains_key(schema.name()) {
            return Err(TxdbError::DuplicateTable(schema.name().to_string()));
        }
        let name = schema.name().to_string();
        // DDL is logged as the engine's own SQL rendering and re-parsed
        // on replay — one schema serialization, not two.
        let ddl = self
            .wal
            .is_some()
            .then(|| crate::dump::create_table_sql(&schema));
        self.evict_stats(&name);
        self.tables.insert(name.clone(), Table::new(schema)?);
        if let Some(sql) = ddl {
            if let Err(e) = self.log_append(&[ChangeRecord::CreateTable { sql }]) {
                self.tables.remove(&name);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Drop a table and all of its rows.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        self.evict_stats(name);
        let table = self
            .tables
            .remove(name)
            .ok_or_else(|| TxdbError::UnknownTable(name.to_string()))?;
        if let Err(e) = self.log_append(&[ChangeRecord::DropTable {
            table: name.to_string(),
        }]) {
            self.tables.insert(name.to_string(), table);
            return Err(e);
        }
        Ok(())
    }

    /// Create a secondary hash index on `table.column`. Unlike going
    /// through [`Database::table_mut`], this wrapper records the DDL in
    /// the change log, so the index comes back after a restart.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<()> {
        self.table_mut(table)?.create_index(column)?;
        if let Err(e) = self.log_append(&[ChangeRecord::CreateIndex {
            table: table.to_string(),
            column: column.to_string(),
            range: false,
        }]) {
            if let Ok(t) = self.table_mut(table) {
                t.drop_index(column);
            }
            return Err(e);
        }
        Ok(())
    }

    /// Create an ordered range index on `table.column`, logged like
    /// [`Database::create_index`].
    pub fn create_range_index(&mut self, table: &str, column: &str) -> Result<()> {
        self.table_mut(table)?.create_range_index(column)?;
        if let Err(e) = self.log_append(&[ChangeRecord::CreateIndex {
            table: table.to_string(),
            column: column.to_string(),
            range: true,
        }]) {
            if let Ok(t) = self.table_mut(table) {
                t.drop_range_index(column);
            }
            return Err(e);
        }
        Ok(())
    }

    /// Forget cached statistics for `name`. Version counters restart at
    /// zero for a re-created table, so a stale entry could otherwise pass
    /// the version check while describing the old table's data.
    fn evict_stats(&mut self, name: &str) {
        self.stats_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(name);
    }

    /// Immutable access to a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| TxdbError::UnknownTable(name.to_string()))
    }

    /// Mutable access to a table. Prefer the typed operations below; this
    /// escape hatch bypasses foreign-key enforcement *and* the change
    /// log — mutations made through it are invisible to crash recovery
    /// until the next checkpoint. Fine for in-memory setup code (its
    /// main use); on a durable database use the typed API or
    /// [`Database::create_index`] / [`Database::create_range_index`].
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| TxdbError::UnknownTable(name.to_string()))
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Schema of a table.
    pub fn schema_of(&self, name: &str) -> Result<&TableSchema> {
        Ok(self.table(name)?.schema())
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }

    // ----- statistics -----

    /// Run `f` over planning statistics for `table`. Statistics are
    /// computed on first use and cached; steady-state planning costs one
    /// lock and a staleness check.
    ///
    /// Freshness is *bounded*, not exact: a full `TableStats` pass is
    /// O(rows × cols), so recomputing on every version bump made
    /// write-heavy phases interleaved with planned SELECTs pay that cost
    /// per write. Cached stats are reused until the table has seen
    /// [`STATS_VERSION_LAG`] mutations since they were computed, or its
    /// row count has drifted by more than [`STATS_ROW_DRIFT`] (with a
    /// small absolute floor, so tiny tables refresh as soon as their
    /// shape meaningfully changes). Stale-within-bounds statistics can
    /// only mis-*price* a plan, never corrupt results: every access path
    /// re-checks actual index contents.
    pub fn with_stats<R>(&self, table: &str, f: impl FnOnce(&TableStats) -> R) -> Result<R> {
        let t = self.table(table)?;
        let mut cache = self
            .stats_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let stats = cache
            .entry(table.to_string())
            .and_modify(|s| {
                if !stats_usable(s, t) {
                    *s = TableStats::compute(t);
                }
            })
            .or_insert_with(|| TableStats::compute(t));
        Ok(f(stats))
    }

    /// Clone out the cached statistics for `table`.
    pub fn stats_of(&self, table: &str) -> Result<TableStats> {
        self.with_stats(table, Clone::clone)
    }

    // ----- procedures -----

    /// Register a stored procedure.
    pub fn register_procedure(&mut self, proc: Procedure) -> Result<()> {
        // Validate table/column references eagerly so a broken procedure
        // fails at registration, not mid-dialogue.
        for op in proc.ops() {
            let table = self.table(op.table())?;
            match op {
                ProcOp::Insert { columns, .. } => {
                    for c in columns {
                        table.schema().require_column(c)?;
                    }
                }
                ProcOp::Delete { filter, .. } | ProcOp::Select { filter, .. } => {
                    for (c, _) in filter {
                        table.schema().require_column(c)?;
                    }
                }
                ProcOp::Update { set, filter, .. } => {
                    for (c, _) in set.iter().chain(filter) {
                        table.schema().require_column(c)?;
                    }
                }
            }
        }
        for p in proc.params() {
            if let Some((t, c)) = &p.references {
                self.table(t)?.schema().require_column(c)?;
            }
        }
        self.procedures.insert(proc.name().to_string(), proc);
        Ok(())
    }

    /// Look up a procedure by name.
    pub fn procedure(&self, name: &str) -> Result<&Procedure> {
        self.procedures
            .get(name)
            .ok_or_else(|| TxdbError::UnknownProcedure(name.to_string()))
    }

    /// All registered procedures, sorted by name.
    pub fn procedures(&self) -> impl Iterator<Item = &Procedure> + '_ {
        self.procedures.values()
    }

    // ----- typed data operations (FK-enforcing) -----

    /// Insert a row, enforcing foreign keys. Returns the new row id.
    ///
    /// Auto-commit: with no transaction in flight the row is written
    /// directly as pristine (stamp-free) state; otherwise the write runs
    /// as a single-op transaction so concurrent snapshots never see it
    /// early.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<RowId> {
        if self.txns.active_count() == 0 {
            self.check_fk_parents(table, &row, None)?;
            if self.wal.is_none() {
                return self.table_mut(table)?.insert(row);
            }
            let logged = row.clone();
            let rid = self.table_mut(table)?.insert(row)?;
            if let Err(e) = self.log_append(&[ChangeRecord::Insert {
                txn: AUTOCOMMIT_TXN,
                table: table.to_string(),
                rid,
                row: logged,
            }]) {
                // Atomicity: the row is not durable, so it must not stay
                // visible either.
                if let Ok(t) = self.table_mut(table) {
                    t.remove_physical(rid);
                }
                return Err(e);
            }
            return Ok(rid);
        }
        let txn = self.txn_begin();
        match self.txn_insert(txn, table, row) {
            Ok(rid) => {
                self.txn_commit(txn)?;
                Ok(rid)
            }
            Err(e) => {
                let _ = self.txn_rollback(txn);
                Err(e)
            }
        }
    }

    /// Delete a row, enforcing referential integrity (RESTRICT).
    /// Auto-commits like [`Database::insert`].
    pub fn delete(&mut self, table: &str, rid: RowId) -> Result<Row> {
        if self.txns.active_count() == 0 {
            self.check_fk_children(table, rid, None)?;
            let row = self.table_mut(table)?.delete(rid)?;
            if let Err(e) = self.log_append(&[ChangeRecord::Delete {
                txn: AUTOCOMMIT_TXN,
                table: table.to_string(),
                rid,
            }]) {
                if let Ok(t) = self.table_mut(table) {
                    t.replay_insert(rid, row);
                }
                return Err(e);
            }
            return Ok(row);
        }
        let txn = self.txn_begin();
        match self.txn_delete(txn, table, rid) {
            Ok(row) => {
                self.txn_commit(txn)?;
                Ok(row)
            }
            Err(e) => {
                let _ = self.txn_rollback(txn);
                Err(e)
            }
        }
    }

    /// Update one column of a row, enforcing foreign keys.
    /// Auto-commits like [`Database::insert`].
    pub fn update(&mut self, table: &str, rid: RowId, column: &str, value: Value) -> Result<Value> {
        if self.txns.active_count() == 0 {
            self.check_fk_update(table, rid, column, &value, None)?;
            if self.wal.is_none() {
                return self.table_mut(table)?.update(rid, column, value);
            }
            let logged = value.clone();
            let old = self.table_mut(table)?.update(rid, column, value)?;
            if let Err(e) = self.log_append(&[ChangeRecord::Update {
                txn: AUTOCOMMIT_TXN,
                table: table.to_string(),
                rid,
                column: column.to_string(),
                value: logged,
                pushed: true,
            }]) {
                if let Ok(t) = self.table_mut(table) {
                    let _ = t.replay_update(rid, column, old);
                }
                return Err(e);
            }
            return Ok(old);
        }
        let txn = self.txn_begin();
        match self.txn_update(txn, table, rid, column, value) {
            Ok(old) => {
                self.txn_commit(txn)?;
                Ok(old)
            }
            Err(e) => {
                let _ = self.txn_rollback(txn);
                Err(e)
            }
        }
    }

    /// Rows matching a predicate (cloned out of storage). Access-path
    /// choice goes through the shared planner with this database's cached
    /// statistics, so the typed API prices index probes the same way the
    /// SQL planner does. Statistics only improve *range*-probe pricing —
    /// equality probes are priced exactly from hash-bucket sizes, and a
    /// predicate with no range-indexed sargable leaf scans or point-probes
    /// identically either way — so the O(rows × cols) stats pass is only
    /// paid when a range conjunct could actually use it.
    pub fn select(&self, table: &str, pred: &Predicate) -> Result<Vec<(RowId, Row)>> {
        let t = self.table(table)?;
        if !t.mvcc_clean() {
            // Uncommitted or superseded versions are present: read
            // through a latest-committed snapshot (full visible scan —
            // index buckets are version supersets on a dirty table).
            let snap = self.txns.latest_snapshot();
            return Ok(t
                .select_snapshot(pred, &snap)?
                .into_iter()
                .map(|(rid, row)| (rid, row.clone()))
                .collect());
        }
        let needs_stats = !t.is_empty()
            && pred
                .sargable_leaves()
                .iter()
                .any(|(c, op, _)| *op != crate::predicate::CmpOp::Eq && t.has_range_index(c));
        let rows = if needs_stats {
            self.with_stats(table, |stats| t.select_with_stats(pred, Some(stats)))??
        } else {
            t.select(pred)?
        };
        Ok(rows
            .into_iter()
            .map(|(rid, row)| (rid, row.clone()))
            .collect())
    }

    /// Begin an explicit transaction. All operations through the returned
    /// handle are rolled back unless `commit` is called.
    pub fn begin(&mut self) -> Transaction<'_> {
        Transaction::new(self)
    }

    /// Execute a stored procedure atomically with named arguments.
    pub fn call(&mut self, name: &str, args: &[(String, Value)]) -> Result<ProcOutcome> {
        let proc = self.procedure(name)?.clone();
        let bound = proc.bind_args(args)?;
        let mut txn = self.begin();
        let outcome = txn.run_procedure(&proc, &bound)?;
        txn.try_commit()?;
        Ok(outcome)
    }

    // ----- MVCC transaction API (id-based) -----
    //
    // `Transaction` is a convenience wrapper over these; SQL sessions
    // use the ids directly so a transaction can stay open across
    // statements without holding a borrow on the database.

    /// Start a transaction, returning its id. The transaction's snapshot
    /// is cut now; it must be finished with [`Database::txn_commit`] or
    /// [`Database::txn_rollback`].
    pub fn txn_begin(&mut self) -> u64 {
        self.txns.begin()
    }

    /// The snapshot of an active transaction (sees its own writes).
    pub fn txn_snapshot(&self, txn: u64) -> Result<Snapshot> {
        self.txns
            .snapshot_of(txn)
            .ok_or_else(|| TxdbError::Aborted(format!("transaction {txn} is not active")))
    }

    /// A detached snapshot of the latest committed state. Unlike a
    /// transaction's snapshot it is not registered in the active set,
    /// so a later commit's vacuum may reclaim versions it would need —
    /// reads through it are repeatable only until the next commit or
    /// rollback. For a reader whose view must stay stable across
    /// concurrent commits, open a transaction with
    /// [`Database::txn_begin`] and read through its snapshot.
    pub fn snapshot(&self) -> Snapshot {
        self.txns.latest_snapshot()
    }

    /// The transaction registry (active set, vacuum horizon).
    pub fn txns(&self) -> &TxnManager {
        &self.txns
    }

    /// Whether any transaction is currently in flight.
    pub fn has_active_txns(&self) -> bool {
        self.txns.active_count() > 0
    }

    /// The transaction-id watermark: the next id the allocator would
    /// issue. Snapshots persist it so recovery never re-issues an id.
    pub(crate) fn txn_watermark(&self) -> u64 {
        self.txns.next_txn_id()
    }

    /// Re-seed the transaction-id allocator from a persisted watermark
    /// (snapshot restore; only ever moves the allocator forward).
    pub(crate) fn set_txn_watermark(&mut self, watermark: u64) {
        self.txns.advance_past(watermark.saturating_sub(1));
    }

    /// Number of writes transaction `txn` has recorded so far.
    pub fn txn_pending_ops(&self, txn: u64) -> usize {
        self.txns.writes_len(txn)
    }

    /// Insert a row within transaction `txn`, enforcing foreign keys.
    pub fn txn_insert(&mut self, txn: u64, table: &str, row: Row) -> Result<RowId> {
        let snap = self.txn_snapshot(txn)?;
        self.check_fk_parents(table, &row, Some(&snap))?;
        let logged = row.clone();
        let rid = self.table_mut(table)?.mvcc_insert(row, txn)?;
        self.txns.record(
            txn,
            ChangeRecord::Insert {
                txn,
                table: table.to_string(),
                rid,
                row: logged,
            },
        );
        Ok(rid)
    }

    /// Delete a row within transaction `txn` (referential RESTRICT).
    /// Fails with [`TxdbError::Serialization`] if the row was touched by
    /// a concurrent transaction this one cannot see.
    pub fn txn_delete(&mut self, txn: u64, table: &str, rid: RowId) -> Result<Row> {
        let snap = self.txn_snapshot(txn)?;
        self.table(table)?.mvcc_write_check(rid, txn, &snap)?;
        self.check_fk_children(table, rid, Some(&snap))?;
        let row = self.table_mut(table)?.mvcc_delete(rid, txn)?;
        self.txns.record(
            txn,
            ChangeRecord::Delete {
                txn,
                table: table.to_string(),
                rid,
            },
        );
        Ok(row)
    }

    /// Update one column of a row within transaction `txn`, enforcing
    /// foreign keys and first-committer-wins conflict rules.
    pub fn txn_update(
        &mut self,
        txn: u64,
        table: &str,
        rid: RowId,
        column: &str,
        value: Value,
    ) -> Result<Value> {
        let snap = self.txn_snapshot(txn)?;
        self.table(table)?.mvcc_write_check(rid, txn, &snap)?;
        self.check_fk_update(table, rid, column, &value, Some(&snap))?;
        let logged = value.clone();
        let (old, pushed) = self
            .table_mut(table)?
            .mvcc_update(rid, column, value, txn)?;
        // Every update is recorded — replay needs the final cell value
        // even when the write landed in-place on a version this
        // transaction already owns. `pushed` tells rollback which
        // records actually have a version to pop.
        self.txns.record(
            txn,
            ChangeRecord::Update {
                txn,
                table: table.to_string(),
                rid,
                column: column.to_string(),
                value: logged,
                pushed,
            },
        );
        Ok(old)
    }

    /// Rows matching a predicate, read through transaction `txn`'s
    /// snapshot (own writes visible, concurrent transactions' invisible).
    pub fn txn_select(&self, txn: u64, table: &str, pred: &Predicate) -> Result<Vec<(RowId, Row)>> {
        let snap = self.txn_snapshot(txn)?;
        let t = self.table(table)?;
        let rows = if t.mvcc_clean() {
            // No version state: every row is visible to every snapshot,
            // so take the index-accelerated path.
            t.select(pred)?
        } else {
            t.select_snapshot(pred, &snap)?
        };
        Ok(rows
            .into_iter()
            .map(|(rid, row)| (rid, row.clone()))
            .collect())
    }

    /// Commit transaction `txn`: its versions become visible to every
    /// snapshot taken afterwards. On a durable database the whole batch
    /// (`Begin`, writes, `Commit`) is framed to the log with one fsync
    /// *before* the commit publishes — if the append fails the
    /// transaction unwinds exactly like a rollback and the error
    /// surfaces, so a commit is always all-durable-and-visible or
    /// nothing (a torn batch on disk has no `Commit` record and is
    /// discarded by recovery). Also credits the committed-mutation
    /// counters behind the statistics staleness bound and vacuums
    /// version garbage.
    pub fn txn_commit(&mut self, txn: u64) -> Result<()> {
        let writes = self
            .txns
            .finish(txn)
            .ok_or_else(|| TxdbError::Aborted(format!("transaction {txn} is not active")))?;
        let mut per_table: HashMap<String, u64> = HashMap::new();
        for w in &writes {
            if let ChangeRecord::Insert { table, .. }
            | ChangeRecord::Update { table, .. }
            | ChangeRecord::Delete { table, .. } = w
            {
                *per_table.entry(table.clone()).or_insert(0) += 1;
            }
        }
        if self.wal.is_some() && !writes.is_empty() {
            let mut batch = Vec::with_capacity(writes.len() + 2);
            batch.push(ChangeRecord::Begin { txn });
            batch.extend(writes);
            batch.push(ChangeRecord::Commit { txn });
            if let Err(e) = self.log_append(&batch) {
                // Publish nothing: unwind like a rollback. The partial
                // batch on disk (if any) lacks its Commit record, so
                // recovery discards it too.
                batch.pop();
                batch.remove(0);
                self.unwind_writes(batch);
                self.vacuum();
                return Err(e);
            }
        }
        for (name, n) in per_table {
            if let Some(t) = self.tables.get_mut(&name) {
                t.bump_committed(n);
            }
        }
        self.vacuum();
        Ok(())
    }

    /// Roll back transaction `txn`, unwinding its writes in reverse.
    /// Nothing is appended to the log: an uncommitted transaction leaves
    /// no durable trace.
    pub fn txn_rollback(&mut self, txn: u64) -> Result<()> {
        let writes = self
            .txns
            .finish(txn)
            .ok_or_else(|| TxdbError::Aborted(format!("transaction {txn} is not active")))?;
        self.unwind_writes(writes);
        self.vacuum();
        Ok(())
    }

    /// Unwind a transaction's recorded writes in reverse. Only `pushed`
    /// updates have a version to pop; in-place updates vanish with the
    /// version the first pushing write created.
    fn unwind_writes(&mut self, writes: Vec<ChangeRecord>) {
        for w in writes.into_iter().rev() {
            match w {
                ChangeRecord::Insert { table, rid, .. } => {
                    if let Some(t) = self.tables.get_mut(&table) {
                        t.mvcc_rollback_insert(rid);
                    }
                }
                ChangeRecord::Update {
                    table, rid, pushed, ..
                } if pushed => {
                    if let Some(t) = self.tables.get_mut(&table) {
                        t.mvcc_rollback_update(rid);
                    }
                }
                ChangeRecord::Delete { table, rid, .. } => {
                    if let Some(t) = self.tables.get_mut(&table) {
                        t.mvcc_rollback_delete(rid);
                    }
                }
                _ => {}
            }
        }
    }

    /// Reclaim version garbage no active snapshot can still reach.
    /// Returns the number of versions reclaimed. With no transactions in
    /// flight every table collapses back to pristine (stamp-free) state.
    /// Runs automatically after every commit and rollback.
    pub fn vacuum(&mut self) -> usize {
        let txns = &self.txns;
        let mut reclaimed = 0;
        for t in self.tables.values_mut() {
            if !t.mvcc_clean() {
                reclaimed += t.vacuum(&|id| txns.all_see(id));
            }
        }
        reclaimed
    }

    // ----- foreign-key machinery -----

    /// FK enforcement for an update: a changed FK column must point at
    /// an existing parent; a changed referenced key must not orphan
    /// children. Lookups are raw (version-superset), so checks on dirty
    /// tables are conservative — consistent with first committer wins.
    fn check_fk_update(
        &self,
        table: &str,
        rid: RowId,
        column: &str,
        value: &Value,
        snap: Option<&Snapshot>,
    ) -> Result<()> {
        let schema = self.table(table)?.schema();
        if let Some(fk) = schema.foreign_key_on(column).cloned() {
            if !value.is_null() {
                let parent = self.table(&fk.ref_table)?;
                let rids = parent.lookup(&fk.ref_column, value)?;
                let alive = match snap {
                    None => !rids.is_empty(),
                    Some(s) => {
                        let ref_idx = parent.schema().require_column(&fk.ref_column)?;
                        rids.iter().any(|&r| {
                            parent
                                .visible_row(r, s)
                                .is_some_and(|p| p.get(ref_idx) == Some(value))
                        })
                    }
                };
                if !alive {
                    return Err(TxdbError::ForeignKeyViolation {
                        table: table.to_string(),
                        detail: format!("{column}={value} has no parent in {}", fk.ref_table),
                    });
                }
            }
        }
        if self.is_referenced_column(table, column) {
            let old = self.table(table)?.value_of(rid, column)?;
            if old != *value && self.has_children(table, column, &old, snap)? {
                return Err(TxdbError::ForeignKeyViolation {
                    table: table.to_string(),
                    detail: format!("rows reference {table}.{column}={old}"),
                });
            }
        }
        Ok(())
    }

    /// Every FK column of `row` must point at an existing parent row.
    /// With a snapshot, "existing" means visible to the writing
    /// transaction (index buckets are version supersets on dirty
    /// tables); without one the raw bucket is exact.
    fn check_fk_parents(&self, table: &str, row: &Row, snap: Option<&Snapshot>) -> Result<()> {
        let schema = self.table(table)?.schema();
        for fk in schema.foreign_keys() {
            let idx = schema.require_column(&fk.column)?;
            let v = row.get(idx).cloned().unwrap_or(Value::Null);
            if v.is_null() {
                continue;
            }
            let parent = self.table(&fk.ref_table)?;
            let rids = parent.lookup(&fk.ref_column, &v)?;
            let alive = match snap {
                None => !rids.is_empty(),
                Some(s) => {
                    let ref_idx = parent.schema().require_column(&fk.ref_column)?;
                    rids.iter().any(|&r| {
                        parent
                            .visible_row(r, s)
                            .is_some_and(|p| p.get(ref_idx) == Some(&v))
                    })
                }
            };
            if !alive {
                return Err(TxdbError::ForeignKeyViolation {
                    table: table.to_string(),
                    detail: format!(
                        "{}={v} has no parent row in {}({})",
                        fk.column, fk.ref_table, fk.ref_column
                    ),
                });
            }
        }
        Ok(())
    }

    /// No child row may reference the row about to be deleted. With a
    /// snapshot, rows the writing transaction already deleted don't
    /// block, but other transactions' in-flight versions do (they may
    /// yet commit — first committer wins).
    fn check_fk_children(&self, table: &str, rid: RowId, snap: Option<&Snapshot>) -> Result<()> {
        let target = self.table(table)?;
        for (child_name, child) in &self.tables {
            for fk in child.schema().foreign_keys() {
                if fk.ref_table != table {
                    continue;
                }
                let key = target.value_of(rid, &fk.ref_column)?;
                if key.is_null() {
                    continue;
                }
                let rids = child.lookup(&fk.column, &key)?;
                let blocked = match snap {
                    None => !rids.is_empty(),
                    Some(s) => {
                        let idx = child.schema().require_column(&fk.column)?;
                        rids.iter()
                            .any(|&r| child.fk_reference_alive(r, idx, &key, s))
                    }
                };
                if blocked {
                    return Err(TxdbError::ForeignKeyViolation {
                        table: table.to_string(),
                        detail: format!(
                            "{child_name}.{} references {table}.{}={key}",
                            fk.column, fk.ref_column
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    fn is_referenced_column(&self, table: &str, column: &str) -> bool {
        self.tables.values().any(|t| {
            t.schema()
                .foreign_keys()
                .iter()
                .any(|fk| fk.ref_table == table && fk.ref_column == column)
        })
    }

    fn has_children(
        &self,
        table: &str,
        column: &str,
        key: &Value,
        snap: Option<&Snapshot>,
    ) -> Result<bool> {
        for child in self.tables.values() {
            for fk in child.schema().foreign_keys() {
                if fk.ref_table != table || fk.ref_column != column {
                    continue;
                }
                let rids = child.lookup(&fk.column, key)?;
                let blocked = match snap {
                    None => !rids.is_empty(),
                    Some(s) => {
                        let idx = child.schema().require_column(&fk.column)?;
                        rids.iter()
                            .any(|&r| child.fk_reference_alive(r, idx, key, s))
                    }
                };
                if blocked {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procedure::{ParamDef, ParamExpr, ProcOp};
    use crate::row;
    use crate::value::DataType;

    /// The cinema schema from the paper's Figure 3.
    pub(crate) fn cinema_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("movie")
                .column("movie_id", DataType::Int)
                .column("title", DataType::Text)
                .primary_key(&["movie_id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("customer")
                .column("customer_id", DataType::Int)
                .column("name", DataType::Text)
                .primary_key(&["customer_id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("screening")
                .column("screening_id", DataType::Int)
                .column("movie_id", DataType::Int)
                .column("date", DataType::Date)
                .primary_key(&["screening_id"])
                .foreign_key("movie_id", "movie", "movie_id")
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("reservation")
                .column("customer_id", DataType::Int)
                .column("screening_id", DataType::Int)
                .column("no_tickets", DataType::Int)
                .primary_key(&["customer_id", "screening_id"])
                .foreign_key("customer_id", "customer", "customer_id")
                .foreign_key("screening_id", "screening", "screening_id")
                .build()
                .unwrap(),
        )
        .unwrap();
        db.insert("movie", row![1, "Forrest Gump"]).unwrap();
        db.insert("movie", row![2, "Heat"]).unwrap();
        db.insert("customer", row![1, "Ada Lovelace"]).unwrap();
        db.insert(
            "screening",
            row![10, 1, crate::value::Date::new(2022, 3, 26).unwrap()],
        )
        .unwrap();
        db
    }

    #[test]
    fn create_and_drop_table() {
        let mut db = Database::new();
        let schema = TableSchema::builder("t")
            .column("a", DataType::Int)
            .build()
            .unwrap();
        db.create_table(schema.clone()).unwrap();
        assert!(matches!(
            db.create_table(schema).unwrap_err(),
            TxdbError::DuplicateTable(_)
        ));
        assert_eq!(db.table_names(), vec!["t"]);
        db.drop_table("t").unwrap();
        assert!(db.drop_table("t").is_err());
    }

    #[test]
    fn fk_parent_enforced_on_insert() {
        let mut db = cinema_db();
        // movie 99 does not exist.
        let err = db
            .insert(
                "screening",
                row![11, 99, crate::value::Date::new(2022, 1, 1).unwrap()],
            )
            .unwrap_err();
        assert!(matches!(err, TxdbError::ForeignKeyViolation { .. }));
        db.insert(
            "screening",
            row![11, 2, crate::value::Date::new(2022, 1, 1).unwrap()],
        )
        .unwrap();
    }

    #[test]
    fn fk_children_block_delete() {
        let mut db = cinema_db();
        let (movie_rid, _) = db
            .table("movie")
            .unwrap()
            .get_by_pk(&[Value::Int(1)])
            .unwrap();
        // screening 10 references movie 1.
        assert!(matches!(
            db.delete("movie", movie_rid).unwrap_err(),
            TxdbError::ForeignKeyViolation { .. }
        ));
        // Unreferenced movie 2 can be deleted.
        let (rid2, _) = db
            .table("movie")
            .unwrap()
            .get_by_pk(&[Value::Int(2)])
            .unwrap();
        db.delete("movie", rid2).unwrap();
    }

    #[test]
    fn fk_enforced_on_update() {
        let mut db = cinema_db();
        let (srid, _) = db
            .table("screening")
            .unwrap()
            .get_by_pk(&[Value::Int(10)])
            .unwrap();
        assert!(db
            .update("screening", srid, "movie_id", Value::Int(99))
            .is_err());
        db.update("screening", srid, "movie_id", Value::Int(2))
            .unwrap();
        // Updating a referenced key away from its children fails.
        let (mrid, _) = db
            .table("movie")
            .unwrap()
            .get_by_pk(&[Value::Int(2)])
            .unwrap();
        assert!(db.update("movie", mrid, "movie_id", Value::Int(5)).is_err());
    }

    #[test]
    fn procedure_registration_validates_references() {
        let mut db = cinema_db();
        let bad = Procedure::builder("p")
            .param(ParamDef::scalar("x", DataType::Int))
            .op(ProcOp::Delete {
                table: "nope".into(),
                filter: vec![("x".into(), ParamExpr::param("x"))],
            })
            .build()
            .unwrap();
        assert!(db.register_procedure(bad).is_err());

        let bad_col = Procedure::builder("p")
            .param(ParamDef::scalar("x", DataType::Int))
            .op(ProcOp::Delete {
                table: "movie".into(),
                filter: vec![("bogus".into(), ParamExpr::param("x"))],
            })
            .build()
            .unwrap();
        assert!(db.register_procedure(bad_col).is_err());
    }

    #[test]
    fn call_procedure_end_to_end() {
        let mut db = cinema_db();
        let proc = Procedure::builder("ticket_reservation")
            .param(ParamDef::entity(
                "customer_id",
                DataType::Int,
                "customer",
                "customer_id",
            ))
            .param(ParamDef::entity(
                "screening_id",
                DataType::Int,
                "screening",
                "screening_id",
            ))
            .param(ParamDef::scalar("ticket_amount", DataType::Int))
            .op(ProcOp::Insert {
                table: "reservation".into(),
                columns: vec![
                    "customer_id".into(),
                    "screening_id".into(),
                    "no_tickets".into(),
                ],
                values: vec![
                    ParamExpr::param("customer_id"),
                    ParamExpr::param("screening_id"),
                    ParamExpr::param("ticket_amount"),
                ],
            })
            .build()
            .unwrap();
        db.register_procedure(proc).unwrap();
        let outcome = db
            .call(
                "ticket_reservation",
                &[
                    ("customer_id".into(), Value::Int(1)),
                    ("screening_id".into(), Value::Int(10)),
                    ("ticket_amount".into(), Value::Int(4)),
                ],
            )
            .unwrap();
        assert_eq!(outcome.rows_affected, 1);
        assert_eq!(db.table("reservation").unwrap().len(), 1);

        // FK violation inside a call leaves the database unchanged.
        let before = db.table("reservation").unwrap().version();
        let err = db.call(
            "ticket_reservation",
            &[
                ("customer_id".into(), Value::Int(77)),
                ("screening_id".into(), Value::Int(10)),
                ("ticket_amount".into(), Value::Int(1)),
            ],
        );
        assert!(err.is_err());
        assert_eq!(db.table("reservation").unwrap().len(), 1);
        assert_eq!(db.table("reservation").unwrap().version(), before);
    }

    #[test]
    fn stats_cache_evicted_on_drop_and_recreate() {
        let mut db = Database::new();
        let schema = |name: &str| {
            TableSchema::builder(name)
                .column("id", DataType::Int)
                .column("v", DataType::Int)
                .primary_key(&["id"])
                .build()
                .unwrap()
        };
        db.create_table(schema("t")).unwrap();
        db.insert("t", row![1, 10]).unwrap();
        db.insert("t", row![2, 10]).unwrap();
        let distinct_before = db
            .with_stats("t", |s| s.column("v").unwrap().distinct)
            .unwrap();
        assert_eq!(distinct_before, 1);
        let version_before = db.table("t").unwrap().version();
        // Drop and rebuild with the same number of mutations so the fresh
        // table's version collides with the cached entry's.
        db.drop_table("t").unwrap();
        db.create_table(schema("t")).unwrap();
        db.insert("t", row![1, 10]).unwrap();
        db.insert("t", row![2, 20]).unwrap();
        assert_eq!(db.table("t").unwrap().version(), version_before);
        let distinct_after = db
            .with_stats("t", |s| s.column("v").unwrap().distinct)
            .unwrap();
        assert_eq!(distinct_after, 2, "stale stats served for re-created table");
    }

    #[test]
    fn stats_staleness_is_bounded() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("t")
                .column("id", DataType::Int)
                .column("v", DataType::Int)
                .primary_key(&["id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        for i in 0..100i64 {
            db.insert("t", row![i, i % 10]).unwrap();
        }
        let rc = db.with_stats("t", |s| s.row_count).unwrap();
        assert_eq!(rc, 100);
        // A few writes stay within both the version lag and the row-count
        // drift: the cached stats are served as-is.
        for i in 100..104i64 {
            db.insert("t", row![i, 0]).unwrap();
        }
        let rc = db.with_stats("t", |s| s.row_count).unwrap();
        assert_eq!(rc, 100, "within bounds: stale stats are served");
        // Push past the 10% row drift: recompute.
        for i in 104..120i64 {
            db.insert("t", row![i, 0]).unwrap();
        }
        let rc = db.with_stats("t", |s| s.row_count).unwrap();
        assert_eq!(rc, 120, "row drift forces a recompute");
        // In-place updates never move the row count; the version lag
        // alone must eventually force a refresh.
        let distinct = db
            .with_stats("t", |s| s.column("v").unwrap().distinct)
            .unwrap();
        for _ in 0..STATS_VERSION_LAG {
            let (rid, _) = db.table("t").unwrap().get_by_pk(&[Value::Int(0)]).unwrap();
            db.update("t", rid, "v", Value::Int(777)).unwrap();
        }
        let distinct_after = db
            .with_stats("t", |s| s.column("v").unwrap().distinct)
            .unwrap();
        assert!(
            distinct_after > distinct,
            "version lag forces a recompute ({distinct} -> {distinct_after})"
        );
    }

    #[test]
    fn typed_select_range_probe_keeps_nan_rows_it_must() {
        use crate::predicate::CmpOp;
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("t")
                .column("id", DataType::Int)
                .nullable_column("x", DataType::Float)
                .primary_key(&["id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        for i in 0..100i64 {
            db.insert("t", row![i, i as f64 / 10.0]).unwrap();
        }
        for i in 100..103i64 {
            db.insert("t", row![i, f64::NAN]).unwrap();
        }
        db.table_mut("t").unwrap().create_range_index("x").unwrap();
        // Ground truth by evaluating the predicate over a full scan.
        let check = |db: &Database, pred: &Predicate| {
            let t = db.table("t").unwrap();
            let expected: Vec<RowId> = t
                .scan()
                .filter(|(_, row)| pred.eval(t.schema(), row).unwrap())
                .map(|(rid, _)| rid)
                .collect();
            let got: Vec<RowId> = db
                .select("t", pred)
                .unwrap()
                .into_iter()
                .map(|(rid, _)| rid)
                .collect();
            assert_eq!(got, expected, "pred {pred}");
            expected.len()
        };
        // `<=` accepts NaN under the engine's comparison collapse; `<`
        // rejects it. Both must round-trip through the range probe.
        let le = Predicate::cmp("x", CmpOp::Le, 1.0);
        let lt = Predicate::cmp("x", CmpOp::Lt, 1.0);
        let gt = Predicate::cmp("x", CmpOp::Gt, 9.0);
        assert_eq!(check(&db, &le), 11 + 3);
        assert_eq!(check(&db, &lt), 10);
        assert_eq!(check(&db, &gt), 9);
    }

    #[test]
    fn typed_select_agrees_with_fresh_scan_under_stale_stats() {
        let mut db = cinema_db();
        // Interleave writes and selects: plans may be priced with stale
        // stats, but results must always reflect live data.
        for i in 100..160i64 {
            db.insert("movie", row![i, format!("M{i}")]).unwrap();
            let got = db.select("movie", &Predicate::eq("movie_id", i)).unwrap();
            assert_eq!(got.len(), 1, "row {i} visible immediately");
        }
    }

    #[test]
    fn unknown_procedure() {
        let mut db = cinema_db();
        assert!(matches!(
            db.call("nope", &[]).unwrap_err(),
            TxdbError::UnknownProcedure(_)
        ));
    }
}
