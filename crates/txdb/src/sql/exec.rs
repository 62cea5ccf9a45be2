//! Executor for the SQL subset.
//!
//! `SELECT` runs through the cost-aware planner in [`super::plan`] and
//! is then lowered into the physical operator tree of [`super::ops`]:
//! the base table is reached via the chosen access path (`Scan` /
//! `IndexScan`), base-only predicates filter before joins multiply rows
//! (`Filter`), joins execute in the planner's cardinality-greedy order
//! through per-strategy operators, and the row stream stays borrowed
//! (`&Row` per table) until `Project` — values are only cloned into the
//! result set at the very end. `ORDER BY ... LIMIT k` lowers to a fused
//! `TopK` keeping a bounded binary heap of `k` entries instead of
//! sorting everything; `GROUP BY` keys on [`OrdKey`] tuples instead of
//! rendered strings. When the planner grants a base fetch or a hash
//! build more than one worker (`PlanOptions::worker_threads`, rows above
//! the parallel threshold), the lowered tree swaps in the morsel-driven
//! leaf of [`super::ops`]'s `Exchange` / the parallel build path —
//! scoped worker threads over contiguous morsels whose partial outputs
//! merge back into the canonical ascending-RowId order, so parallel
//! execution stays byte-identical to `worker_threads = 1`. This module
//! keeps statement dispatch, script splitting and the `plan → lower →
//! drive` glue; the per-operator execution logic lives in [`super::ops`].
//!
//! Join reordering is invisible in results: both executors traverse index
//! buckets in ascending-RowId order, which makes the reference output the
//! lexicographic order of FROM-order RowId tuples — exactly the order the
//! planned path restores after executing joins in a different sequence.
//!
//! [`execute_select_reference`] retains the naive
//! materialize-everything implementation as an executable specification:
//! the differential test suite asserts both paths agree on every
//! generated query.

use std::collections::BTreeMap;

use crate::database::Database;
use crate::error::{Result, TxdbError};
use crate::index::OrdKey;
use crate::predicate::Predicate;
use crate::row::{Row, RowId};
use crate::table::Table;
use crate::value::{DataType, Value};

use super::ast::{Projection, SelectItem, SelectStmt, SqlExpr, Statement};
use super::budget::ExecBudget;
use super::ops;
use super::ops::expr::{is_qualified_suffix, join_key_excluded, slot_name};
use super::ops::{aggregate_values, sort_aggregated_output};
use super::parser::parse_statement;
use super::plan::{plan_select_with, Layout, PlanOptions};

/// Tabular result of a `SELECT`.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names (qualified as `table.column` for joins).
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Index of an output column (exact match first, then suffix match on
    /// the unqualified name).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name).or_else(|| {
            self.columns
                .iter()
                .position(|c| is_qualified_suffix(c, name))
        })
    }
}

/// Outcome of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// `CREATE TABLE` succeeded.
    Created,
    /// Number of rows inserted.
    Inserted(usize),
    /// Number of rows updated.
    Updated(usize),
    /// Number of rows deleted.
    Deleted(usize),
    /// Rows returned by a `SELECT`.
    Rows(ResultSet),
    /// `BEGIN` opened an explicit transaction (sessions only).
    Begun,
    /// `COMMIT` published the open transaction.
    Committed,
    /// `ROLLBACK` discarded the open transaction.
    RolledBack,
    /// `CHECKPOINT` wrote a snapshot and truncated the change log.
    Checkpointed,
}

impl QueryResult {
    /// The result set, if this was a `SELECT`.
    pub fn rows(&self) -> Option<&ResultSet> {
        match self {
            QueryResult::Rows(rs) => Some(rs),
            _ => None,
        }
    }
}

/// Parse and execute one statement.
pub fn execute(db: &mut Database, sql: &str) -> Result<QueryResult> {
    let stmt = parse_statement(sql)?;
    execute_statement(db, stmt)
}

/// Execute a whole script: statements separated by `;`. Returns the result
/// of each statement. Statement boundaries respect string literals.
pub fn execute_script(db: &mut Database, script: &str) -> Result<Vec<QueryResult>> {
    let mut results = Vec::new();
    for stmt_text in split_statements(script) {
        let trimmed = stmt_text.trim();
        if trimmed.is_empty() {
            continue;
        }
        results.push(execute(db, trimmed)?);
    }
    Ok(results)
}

/// Split on `;` outside string literals. Statements are contiguous slices
/// of the input, so this borrows instead of building per-statement
/// `String`s — a single-statement script allocates nothing.
fn split_statements(script: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut in_string = false;
    let mut prev_quote = false; // last char was a quote that may pair up
    for (i, c) in script.char_indices() {
        if in_string {
            if c == '\'' {
                if prev_quote {
                    // Escaped '' inside the literal: stay in the string.
                    prev_quote = false;
                } else {
                    prev_quote = true;
                }
            } else if prev_quote {
                // The quote closed the literal and `c` is ordinary text.
                in_string = false;
                prev_quote = false;
                if c == ';' {
                    out.push(&script[start..i]);
                    start = i + 1;
                }
            }
        } else {
            match c {
                '\'' => in_string = true,
                ';' => {
                    out.push(&script[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
    }
    let tail = &script[start..];
    if !tail.trim().is_empty() {
        out.push(tail);
    }
    out
}

fn execute_statement(db: &mut Database, stmt: Statement) -> Result<QueryResult> {
    match stmt {
        Statement::CreateTable(schema) => {
            db.create_table(schema)?;
            Ok(QueryResult::Created)
        }
        Statement::Insert {
            table,
            columns,
            rows,
        } => {
            let schema = db.schema_of(&table)?.clone();
            let mut txn = db.begin();
            let mut n = 0;
            for literal_row in rows {
                let cells = coerce_insert_row(&schema, &table, columns.as_ref(), literal_row)?;
                txn.insert(&table, Row::new(cells))?;
                n += 1;
            }
            txn.try_commit()?;
            Ok(QueryResult::Inserted(n))
        }
        Statement::Select(sel) => execute_select(db, &sel).map(QueryResult::Rows),
        Statement::Explain { analyze, select } => {
            explain_select_with(db, &select, &PlanOptions::default(), analyze)
                .map(QueryResult::Rows)
        }
        Statement::Update {
            table,
            set,
            where_clause,
        } => {
            let pred = single_table_predicate(db, &table, where_clause.as_ref())?;
            let rids: Vec<RowId> = db
                .select(&table, &pred)?
                .into_iter()
                .map(|(r, _)| r)
                .collect();
            let schema = db.schema_of(&table)?.clone();
            let mut txn = db.begin();
            for rid in &rids {
                for (col, v) in &set {
                    let idx = schema.require_column(col)?;
                    let coerced = coerce_literal_to(v, schema.columns()[idx].ty)?;
                    txn.update(&table, *rid, col, coerced)?;
                }
            }
            txn.try_commit()?;
            Ok(QueryResult::Updated(rids.len()))
        }
        Statement::Delete {
            table,
            where_clause,
        } => {
            let pred = single_table_predicate(db, &table, where_clause.as_ref())?;
            let rids: Vec<RowId> = db
                .select(&table, &pred)?
                .into_iter()
                .map(|(r, _)| r)
                .collect();
            let mut txn = db.begin();
            for rid in &rids {
                txn.delete(&table, *rid)?;
            }
            txn.try_commit()?;
            Ok(QueryResult::Deleted(rids.len()))
        }
        Statement::Begin | Statement::Commit | Statement::Rollback => Err(TxdbError::InvalidValue(
            "transaction control statements require a session — use Session::execute".into(),
        )),
        Statement::Checkpoint => {
            db.checkpoint()?;
            Ok(QueryResult::Checkpointed)
        }
    }
}

/// Coerce one `INSERT` literal row to the table's schema, honoring an
/// optional explicit column list (unlisted columns become NULL).
fn coerce_insert_row(
    schema: &crate::schema::TableSchema,
    table: &str,
    columns: Option<&Vec<String>>,
    literal_row: Vec<Value>,
) -> Result<Vec<Value>> {
    match columns {
        None => {
            if literal_row.len() != schema.arity() {
                return Err(TxdbError::ArityMismatch {
                    table: table.to_string(),
                    expected: schema.arity(),
                    got: literal_row.len(),
                });
            }
            literal_row
                .into_iter()
                .zip(schema.columns())
                .map(|(v, c)| coerce_literal_to(&v, c.ty))
                .collect()
        }
        Some(cols) => {
            let mut cells = vec![Value::Null; schema.arity()];
            if cols.len() != literal_row.len() {
                return Err(TxdbError::ArityMismatch {
                    table: table.to_string(),
                    expected: cols.len(),
                    got: literal_row.len(),
                });
            }
            for (col, v) in cols.iter().zip(literal_row) {
                let idx = schema.require_column(col)?;
                cells[idx] = coerce_literal_to(&v, schema.columns()[idx].ty)?;
            }
            Ok(cells)
        }
    }
}

// ===== sessions: explicit transactions over SQL =====

/// A SQL session holding at most one open explicit transaction.
///
/// `BEGIN` opens a transaction whose [`Snapshot`](crate::Snapshot) pins
/// every subsequent read until `COMMIT` or `ROLLBACK`: statements inside
/// the transaction see its own writes plus the state committed before it
/// began, and nothing that commits concurrently. Any statement error
/// inside an open transaction aborts and rolls back the *whole*
/// transaction (PostgreSQL-style), so partial transactional state never
/// leaks.
#[derive(Debug, Default)]
pub struct Session {
    txn: Option<u64>,
}

impl Session {
    /// A session with no open transaction.
    pub fn new() -> Session {
        Session::default()
    }

    /// The open transaction's id, if any.
    pub fn open_txn(&self) -> Option<u64> {
        self.txn
    }

    /// Parse and execute one statement within this session.
    pub fn execute(&mut self, db: &mut Database, sql: &str) -> Result<QueryResult> {
        let stmt = parse_statement(sql)?;
        match stmt {
            Statement::Begin => {
                if self.txn.is_some() {
                    return Err(TxdbError::Aborted("a transaction is already open".into()));
                }
                self.txn = Some(db.txn_begin());
                Ok(QueryResult::Begun)
            }
            Statement::Commit => {
                let txn = self
                    .txn
                    .take()
                    .ok_or_else(|| TxdbError::Aborted("no open transaction to commit".into()))?;
                db.txn_commit(txn)?;
                Ok(QueryResult::Committed)
            }
            Statement::Rollback => {
                let txn = self
                    .txn
                    .take()
                    .ok_or_else(|| TxdbError::Aborted("no open transaction to roll back".into()))?;
                db.txn_rollback(txn)?;
                Ok(QueryResult::RolledBack)
            }
            stmt => match self.txn {
                None => execute_statement(db, stmt),
                Some(txn) => {
                    let result = execute_statement_in(db, stmt, txn);
                    if result.is_err() {
                        // Whole-transaction abort: the failed statement
                        // may have applied part of its writes.
                        self.txn = None;
                        let _ = db.txn_rollback(txn);
                    }
                    result
                }
            },
        }
    }
}

/// Execute one non-control statement inside the open transaction `txn`.
fn execute_statement_in(db: &mut Database, stmt: Statement, txn: u64) -> Result<QueryResult> {
    match stmt {
        Statement::CreateTable(_) => Err(TxdbError::InvalidValue(
            "DDL is not transactional — COMMIT or ROLLBACK first".into(),
        )),
        Statement::Insert {
            table,
            columns,
            rows,
        } => {
            let schema = db.schema_of(&table)?.clone();
            let mut n = 0;
            for literal_row in rows {
                let cells = coerce_insert_row(&schema, &table, columns.as_ref(), literal_row)?;
                db.txn_insert(txn, &table, Row::new(cells))?;
                n += 1;
            }
            Ok(QueryResult::Inserted(n))
        }
        Statement::Select(sel) => {
            let snap = db.txn_snapshot(txn)?;
            execute_select_at(db, &sel, &PlanOptions::default(), Some(&snap)).map(QueryResult::Rows)
        }
        Statement::Explain { analyze, select } => {
            // EXPLAIN inspects the plan, not transactional state; ANALYZE
            // additionally runs the tree against latest-committed
            // visibility (the session's own uncommitted writes are not
            // re-planned).
            explain_select_with(db, &select, &PlanOptions::default(), analyze)
                .map(QueryResult::Rows)
        }
        Statement::Update {
            table,
            set,
            where_clause,
        } => {
            let pred = single_table_predicate(db, &table, where_clause.as_ref())?;
            let rids: Vec<RowId> = db
                .txn_select(txn, &table, &pred)?
                .into_iter()
                .map(|(r, _)| r)
                .collect();
            let schema = db.schema_of(&table)?.clone();
            for rid in &rids {
                for (col, v) in &set {
                    let idx = schema.require_column(col)?;
                    let coerced = coerce_literal_to(v, schema.columns()[idx].ty)?;
                    db.txn_update(txn, &table, *rid, col, coerced)?;
                }
            }
            Ok(QueryResult::Updated(rids.len()))
        }
        Statement::Delete {
            table,
            where_clause,
        } => {
            let pred = single_table_predicate(db, &table, where_clause.as_ref())?;
            let rids: Vec<RowId> = db
                .txn_select(txn, &table, &pred)?
                .into_iter()
                .map(|(r, _)| r)
                .collect();
            for rid in &rids {
                db.txn_delete(txn, &table, *rid)?;
            }
            Ok(QueryResult::Deleted(rids.len()))
        }
        Statement::Begin | Statement::Commit | Statement::Rollback => {
            unreachable!("control statements handled by Session::execute")
        }
        // The session's own transaction is active by definition here, so
        // a checkpoint can never proceed. Refuse up front (the session
        // aborts the transaction on any statement error, and silently
        // rolling back the user's work over a checkpoint would be worse).
        Statement::Checkpoint => Err(TxdbError::ActiveTransactions {
            operation: "checkpoint".into(),
            count: db.txns().active_count(),
        }),
    }
}

/// Convert a `WHERE` expression on a single table into an engine predicate,
/// coercing literals to the column types (so `date = '2022-01-01'` works).
fn single_table_predicate(db: &Database, table: &str, expr: Option<&SqlExpr>) -> Result<Predicate> {
    let Some(expr) = expr else {
        return Ok(Predicate::True);
    };
    let schema = db.schema_of(table)?;
    fn convert(schema: &crate::schema::TableSchema, e: &SqlExpr) -> Result<Predicate> {
        Ok(match e {
            SqlExpr::Cmp { column, op, value } => {
                let idx = schema.require_column(&column.column)?;
                let coerced = coerce_literal_to(value, schema.columns()[idx].ty)?;
                Predicate::Cmp {
                    column: column.column.clone(),
                    op: *op,
                    value: coerced,
                }
            }
            SqlExpr::Like { column, pattern } => {
                Predicate::contains(column.column.clone(), pattern.clone())
            }
            SqlExpr::IsNull { column, negated } => {
                let p = Predicate::IsNull {
                    column: column.column.clone(),
                };
                if *negated {
                    p.not()
                } else {
                    p
                }
            }
            SqlExpr::And(a, b) => convert(schema, a)?.and(convert(schema, b)?),
            SqlExpr::Or(a, b) => convert(schema, a)?.or(convert(schema, b)?),
            SqlExpr::Not(a) => convert(schema, a)?.not(),
        })
    }
    convert(schema, expr)
}

fn coerce_literal_to(v: &Value, ty: DataType) -> Result<Value> {
    v.coerce_to(ty)
}

// ===== planned execution: plan → lower → drive =====

/// Execute a `SELECT` with the default (fully enabled) planner.
fn execute_select(db: &Database, sel: &SelectStmt) -> Result<ResultSet> {
    execute_select_with(db, sel, &PlanOptions::default())
}

/// Execute a `SELECT` under explicit planner options — used by benchmarks
/// and differential tests to run the budgeted and parallel shapes. A
/// [`PlanOptions::memory_budget`] materializes as an [`ExecBudget`] guard
/// threaded through the whole execution.
pub fn execute_select_with(
    db: &Database,
    sel: &SelectStmt,
    opts: &PlanOptions,
) -> Result<ResultSet> {
    execute_select_at(db, sel, opts, None)
}

/// [`execute_select_with`] pinned to a [`Snapshot`](crate::txn::Snapshot): every row access
/// resolves through MVCC visibility against `snap`, so two calls with
/// the same snapshot return identical results regardless of concurrent
/// committed writes. `None` reads latest-committed state — on tables
/// without version chains that is exactly the pre-MVCC fast path, so
/// existing call sites stay byte-identical.
pub fn execute_select_at(
    db: &Database,
    sel: &SelectStmt,
    opts: &PlanOptions,
    snap: Option<&crate::txn::Snapshot>,
) -> Result<ResultSet> {
    let budget = ExecBudget::from_options(opts);
    execute_select_budgeted(db, sel, opts, &budget, snap)
}

/// [`execute_select_at`] against a caller-supplied budget guard. Tests
/// inject fault-carrying or instrumented budgets here to observe peak
/// tracked bytes and to force mid-join exhaustion.
fn execute_select_budgeted(
    db: &Database,
    sel: &SelectStmt,
    opts: &PlanOptions,
    budget: &ExecBudget,
    snap: Option<&crate::txn::Snapshot>,
) -> Result<ResultSet> {
    let plan = plan_select_with(db, sel, opts)?;
    let mut root = ops::lower(db, sel, &plan, budget, snap)?;
    ops::drive(root.as_mut())
}

/// `EXPLAIN [ANALYZE]`: plan and lower the statement, optionally execute
/// it, and render the operator tree as a one-column result set. Plain
/// `EXPLAIN` annotates each node with the planner's cardinality
/// estimate; `ANALYZE` also runs the tree and adds the actual row count
/// and the node's own budget peak (excluding its children's work).
pub fn explain_select_with(
    db: &Database,
    sel: &SelectStmt,
    opts: &PlanOptions,
    analyze: bool,
) -> Result<ResultSet> {
    let budget = ExecBudget::from_options(opts);
    let plan = plan_select_with(db, sel, opts)?;
    let mut root = ops::lower(db, sel, &plan, &budget, None)?;
    if analyze {
        ops::drive(root.as_mut())?;
    }
    let rows = ops::render(root.as_ref(), analyze)
        .into_iter()
        .map(|line| vec![Value::Text(line)])
        .collect();
    Ok(ResultSet {
        columns: vec!["plan".into()],
        rows,
    })
}

// ===== reference execution (naive, materializing) =====

/// The pre-planner `SELECT` implementation: materialize the base table,
/// join by cloning combined rows, evaluate `WHERE` after joins, full-sort
/// for `ORDER BY`. Kept as an executable specification — the differential
/// tests run every query through both this and the planned path and
/// require identical results. Not used by `execute`.
pub fn execute_select_reference(db: &Database, sel: &SelectStmt) -> Result<ResultSet> {
    execute_select_reference_at(db, sel, None)
}

/// [`execute_select_reference`] pinned to a [`Snapshot`](crate::txn::Snapshot) — the
/// executable specification of snapshot reads. Resolution mirrors the
/// planned path: an explicit snapshot pins every access; otherwise
/// MVCC-dirty tables force the latest-committed snapshot and clean
/// tables keep the original newest-version code path untouched.
pub fn execute_select_reference_at(
    db: &Database,
    sel: &SelectStmt,
    snap: Option<&crate::txn::Snapshot>,
) -> Result<ResultSet> {
    let resolved: Option<crate::txn::Snapshot> = match snap {
        Some(s) => Some(s.clone()),
        None => {
            let mut dirty = !db.table(&sel.table)?.mvcc_clean();
            for join in &sel.joins {
                if dirty {
                    break;
                }
                dirty = !db.table(&join.table)?.mvcc_clean();
            }
            dirty.then(|| db.snapshot())
        }
    };
    let layout = Layout::build(db, sel)?;
    let base = db.table(&sel.table)?;
    let mut rows: Vec<Vec<Value>> = match resolved.as_ref().filter(|_| !base.mvcc_clean()) {
        Some(s) => base
            .scan()
            .filter_map(|(rid, _)| base.visible_row(rid, s))
            .map(|r| r.values().to_vec())
            .collect(),
        None => base.scan().map(|(_, r)| r.values().to_vec()).collect(),
    };

    for (ji, join) in sel.joins.iter().enumerate() {
        let right: &Table = db.table(&join.table)?;
        let (cur_ref, new_ref) = if join.left.table.as_deref().is_some_and(|t| t == join.table) {
            (&join.right, &join.left)
        } else {
            (&join.left, &join.right)
        };
        let left_idx = layout.resolve_prefix(cur_ref, ji + 1)?;
        let right_idx = right.schema().require_column(&new_ref.column)?;
        let right_col_name = right.schema().columns()[right_idx].name.clone();
        // Ascending-RowId bucket order: the canonical join order both
        // executors share — it makes the nested-loop output the
        // lexicographic order of FROM-order RowId tuples, which the
        // planned path restores after reordering joins. Hash-index
        // buckets are maintained sorted and borrowed in place; an
        // unindexed join column gets a build-side map in one scan (same
        // NULL/NaN key exclusion), never a scan per outer row. A
        // version-carrying right table always gets the map, keyed on
        // *visible* cells (index buckets are version supersets).
        let visible = resolved.as_ref().filter(|_| !right.mvcc_clean());
        let build_map = match visible {
            Some(s) => Some(right.join_map_visible(&right_col_name, s)?),
            None if right.has_index(&right_col_name) => None,
            None => Some(right.join_map(&right_col_name)?),
        };
        let mut out = Vec::new();
        for row in rows {
            let key = &row[left_idx];
            if join_key_excluded(key) {
                continue;
            }
            let bucket: &[RowId] = match &build_map {
                Some(map) => map.get(key).map_or(&[][..], Vec::as_slice),
                None => right
                    .index_bucket(&right_col_name, key)
                    .expect("hash index presence checked above"),
            };
            for &rid in bucket {
                let rrow = match visible {
                    Some(s) => right
                        .visible_row(rid, s)
                        .expect("visible join map only holds visible ids"),
                    None => right.get(rid).expect("lookup returned live id"),
                };
                let mut combined = row.clone();
                combined.extend(rrow.values().iter().cloned());
                out.push(combined);
            }
        }
        rows = out;
    }

    // WHERE filter, after joins.
    if let Some(expr) = &sel.where_clause {
        let mut filtered = Vec::with_capacity(rows.len());
        for row in rows {
            if eval_expr_materialized(&layout, expr, &row)? {
                filtered.push(row);
            }
        }
        rows = filtered;
    }

    if sel.projection.has_aggregates() || !sel.group_by.is_empty() {
        return execute_aggregation_reference(sel, &layout, rows);
    }

    // ORDER BY: full stable sort with the canonical comparator.
    if let Some((col, desc)) = &sel.order_by {
        let idx = layout.resolve(col)?;
        rows.sort_by(|a, b| {
            let ord = OrdKey::cmp_values(&a[idx], &b[idx]);
            if *desc {
                ord.reverse()
            } else {
                ord
            }
        });
    }

    if let Some(n) = sel.limit {
        rows.truncate(n);
    }

    let qualified = !sel.joins.is_empty();
    match &sel.projection {
        Projection::Star => Ok(ResultSet {
            columns: (0..layout.slots.len())
                .map(|i| slot_name(&layout, qualified, i))
                .collect(),
            rows,
        }),
        Projection::Items(items) => {
            let idxs: Vec<usize> = items
                .iter()
                .map(|i| match i {
                    SelectItem::Column(c) => layout.resolve(c),
                    SelectItem::Aggregate { .. } => unreachable!("handled above"),
                })
                .collect::<Result<_>>()?;
            Ok(ResultSet {
                columns: idxs
                    .iter()
                    .map(|&i| slot_name(&layout, qualified, i))
                    .collect(),
                rows: rows
                    .into_iter()
                    .map(|row| idxs.iter().map(|&i| row[i].clone()).collect())
                    .collect(),
            })
        }
    }
}

fn eval_expr_materialized(layout: &Layout, expr: &SqlExpr, row: &[Value]) -> Result<bool> {
    Ok(match expr {
        SqlExpr::Cmp { column, op, value } => {
            let idx = layout.resolve(column)?;
            let cv = &row[idx];
            if cv.is_null() || value.is_null() {
                false
            } else {
                let coerced = value
                    .coerce_to(layout.slots[idx].ty)
                    .unwrap_or_else(|_| value.clone());
                op.eval(cv, &coerced).unwrap_or(false)
            }
        }
        SqlExpr::Like { column, pattern } => {
            let idx = layout.resolve(column)?;
            row[idx]
                .as_text()
                .is_some_and(|s| s.to_lowercase().contains(&pattern.to_lowercase()))
        }
        SqlExpr::IsNull { column, negated } => {
            let idx = layout.resolve(column)?;
            row[idx].is_null() != *negated
        }
        SqlExpr::And(a, b) => {
            eval_expr_materialized(layout, a, row)? && eval_expr_materialized(layout, b, row)?
        }
        SqlExpr::Or(a, b) => {
            eval_expr_materialized(layout, a, row)? || eval_expr_materialized(layout, b, row)?
        }
        SqlExpr::Not(a) => !eval_expr_materialized(layout, a, row)?,
    })
}

/// Naive grouped aggregation over materialized rows (same OrdKey group
/// order as the planned path, so outputs are directly comparable).
fn execute_aggregation_reference(
    sel: &SelectStmt,
    layout: &Layout,
    rows: Vec<Vec<Value>>,
) -> Result<ResultSet> {
    let Projection::Items(items) = &sel.projection else {
        return Err(TxdbError::Parse(
            "SELECT * cannot be combined with GROUP BY".into(),
        ));
    };
    let group_idxs: Vec<usize> = sel
        .group_by
        .iter()
        .map(|c| layout.resolve(c))
        .collect::<Result<_>>()?;
    for item in items {
        if let SelectItem::Column(c) = item {
            let idx = layout.resolve(c)?;
            if !group_idxs.contains(&idx) {
                return Err(TxdbError::Parse(format!(
                    "column `{c}` must appear in GROUP BY or inside an aggregate"
                )));
            }
        }
    }
    let mut groups: BTreeMap<Vec<OrdKey>, Vec<Vec<Value>>> = BTreeMap::new();
    for row in rows {
        let key: Vec<OrdKey> = group_idxs.iter().map(|&i| OrdKey(row[i].clone())).collect();
        groups.entry(key).or_default().push(row);
    }
    if groups.is_empty() && group_idxs.is_empty() {
        groups.insert(Vec::new(), Vec::new());
    }

    let qualified = !sel.joins.is_empty();
    let columns: Vec<String> = items
        .iter()
        .map(|item| match item {
            SelectItem::Column(c) => layout.resolve(c).map(|p| slot_name(layout, qualified, p)),
            SelectItem::Aggregate { func, arg } => Ok(match arg {
                Some(c) => format!("{}({})", func.keyword(), c),
                None => format!("{}(*)", func.keyword()),
            }),
        })
        .collect::<Result<_>>()?;

    let mut out_rows = Vec::with_capacity(groups.len());
    for (key, group_rows) in &groups {
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            match item {
                SelectItem::Column(c) => {
                    let idx = layout.resolve(c)?;
                    let pos = group_idxs
                        .iter()
                        .position(|&g| g == idx)
                        .expect("validated");
                    out.push(key[pos].0.clone());
                }
                SelectItem::Aggregate { func, arg } => match arg {
                    None => out.push(Value::Int(group_rows.len() as i64)),
                    Some(c) => {
                        let idx = layout.resolve(c)?;
                        let values: Vec<&Value> = group_rows
                            .iter()
                            .map(|r| &r[idx])
                            .filter(|v| !v.is_null())
                            .collect();
                        out.push(aggregate_values(*func, &values)?);
                    }
                },
            }
        }
        out_rows.push(out);
    }

    sort_aggregated_output(sel, &columns, &mut out_rows)?;
    if let Some(n) = sel.limit {
        out_rows.truncate(n);
    }
    Ok(ResultSet {
        columns,
        rows: out_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::plan::plan_select;

    fn setup() -> Database {
        let mut db = Database::new();
        execute_script(
            &mut db,
            "CREATE TABLE movie (movie_id INT PRIMARY KEY, title TEXT NOT NULL, genre TEXT, rating FLOAT);
             CREATE TABLE screening (screening_id INT PRIMARY KEY,
                                     movie_id INT NOT NULL REFERENCES movie(movie_id),
                                     date DATE NOT NULL, price FLOAT);
             INSERT INTO movie VALUES (1, 'Forrest Gump', 'Drama', 8.8),
                                      (2, 'Heat', 'Crime', 8.3),
                                      (3, 'Alien', 'Horror', 8.5);
             INSERT INTO screening VALUES (10, 1, '2022-03-26', 12.5),
                                          (11, 2, '2022-03-26', 10.0),
                                          (12, 2, '2022-03-27', 10.0);",
        )
        .unwrap();
        db
    }

    #[test]
    fn create_insert_select_roundtrip() {
        let mut db = setup();
        let r = execute(
            &mut db,
            "SELECT title FROM movie WHERE rating >= 8.5 ORDER BY title",
        )
        .unwrap();
        let rs = r.rows().unwrap();
        assert_eq!(rs.columns, vec!["title"]);
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][0], Value::Text("Alien".into()));
        assert_eq!(rs.rows[1][0], Value::Text("Forrest Gump".into()));
    }

    #[test]
    fn select_star_and_limit() {
        let mut db = setup();
        let r = execute(&mut db, "SELECT * FROM movie ORDER BY rating DESC LIMIT 1").unwrap();
        let rs = r.rows().unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][1], Value::Text("Forrest Gump".into()));
        assert_eq!(rs.column_index("genre"), Some(2));
    }

    #[test]
    fn join_produces_qualified_columns() {
        let mut db = setup();
        let r = execute(
            &mut db,
            "SELECT movie.title, screening.date FROM screening \
             JOIN movie ON screening.movie_id = movie.movie_id \
             WHERE movie.title = 'Heat' ORDER BY screening.date",
        )
        .unwrap();
        let rs = r.rows().unwrap();
        assert_eq!(rs.columns, vec!["movie.title", "screening.date"]);
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][1].render(), "2022-03-26");
        assert_eq!(rs.column_index("date"), Some(1));
    }

    #[test]
    fn date_literals_coerced_in_where() {
        let mut db = setup();
        let r = execute(&mut db, "SELECT * FROM screening WHERE date = '2022-03-26'").unwrap();
        assert_eq!(r.rows().unwrap().rows.len(), 2);
        let r = execute(&mut db, "SELECT * FROM screening WHERE date > '2022-03-26'").unwrap();
        assert_eq!(r.rows().unwrap().rows.len(), 1);
    }

    #[test]
    fn update_and_delete() {
        let mut db = setup();
        let r = execute(
            &mut db,
            "UPDATE movie SET rating = 9.0 WHERE title = 'Heat'",
        )
        .unwrap();
        assert_eq!(r, QueryResult::Updated(1));
        let r = execute(&mut db, "SELECT rating FROM movie WHERE title = 'Heat'").unwrap();
        assert_eq!(r.rows().unwrap().rows[0][0], Value::Float(9.0));
        // Delete must respect FKs: movie 2 has screenings.
        assert!(execute(&mut db, "DELETE FROM movie WHERE movie_id = 2").is_err());
        let r = execute(&mut db, "DELETE FROM screening WHERE movie_id = 2").unwrap();
        assert_eq!(r, QueryResult::Deleted(2));
        let r = execute(&mut db, "DELETE FROM movie WHERE movie_id = 2").unwrap();
        assert_eq!(r, QueryResult::Deleted(1));
    }

    #[test]
    fn insert_respects_fk() {
        let mut db = setup();
        let err = execute(
            &mut db,
            "INSERT INTO screening VALUES (99, 42, '2022-01-01', 1.0)",
        );
        assert!(err.is_err());
        // And the failed multi-row insert is atomic:
        let before = db.table("screening").unwrap().len();
        let err = execute(
            &mut db,
            "INSERT INTO screening VALUES (20, 1, '2022-01-01', 1.0), (21, 42, '2022-01-01', 1.0)",
        );
        assert!(err.is_err());
        assert_eq!(db.table("screening").unwrap().len(), before);
    }

    #[test]
    fn like_and_null_handling() {
        let mut db = setup();
        execute(
            &mut db,
            "INSERT INTO movie (movie_id, title) VALUES (4, 'Gump II')",
        )
        .unwrap();
        let r = execute(&mut db, "SELECT title FROM movie WHERE title LIKE '%gump%'").unwrap();
        assert_eq!(r.rows().unwrap().rows.len(), 2);
        let r = execute(&mut db, "SELECT title FROM movie WHERE rating IS NULL").unwrap();
        assert_eq!(r.rows().unwrap().rows.len(), 1);
        let r = execute(&mut db, "SELECT title FROM movie WHERE rating IS NOT NULL").unwrap();
        assert_eq!(r.rows().unwrap().rows.len(), 3);
    }

    #[test]
    fn ambiguous_column_is_error() {
        let mut db = setup();
        let err = execute(
            &mut db,
            "SELECT movie_id FROM screening JOIN movie ON screening.movie_id = movie.movie_id",
        );
        assert!(err.is_err());
    }

    #[test]
    fn count_star_and_count_column() {
        let mut db = setup();
        let r = execute(&mut db, "SELECT count(*) FROM movie").unwrap();
        let rs = r.rows().unwrap();
        assert_eq!(rs.columns, vec!["count(*)"]);
        assert_eq!(rs.rows, vec![vec![Value::Int(3)]]);
        // COUNT(col) skips NULLs.
        execute(
            &mut db,
            "INSERT INTO movie (movie_id, title) VALUES (9, 'NoRating')",
        )
        .unwrap();
        let r = execute(&mut db, "SELECT count(rating) FROM movie").unwrap();
        assert_eq!(r.rows().unwrap().rows[0][0], Value::Int(3));
        let r = execute(&mut db, "SELECT count(*) FROM movie").unwrap();
        assert_eq!(r.rows().unwrap().rows[0][0], Value::Int(4));
    }

    #[test]
    fn sum_avg_min_max() {
        let mut db = setup();
        let r = execute(
            &mut db,
            "SELECT min(rating), max(rating), avg(rating) FROM movie",
        )
        .unwrap();
        let rs = r.rows().unwrap();
        assert_eq!(rs.rows[0][0], Value::Float(8.3));
        assert_eq!(rs.rows[0][1], Value::Float(8.8));
        let avg = rs.rows[0][2].as_float().unwrap();
        assert!((avg - (8.8 + 8.3 + 8.5) / 3.0).abs() < 1e-9);
        // SUM over ints stays integral.
        let r = execute(&mut db, "SELECT sum(movie_id) FROM movie").unwrap();
        assert_eq!(r.rows().unwrap().rows[0][0], Value::Int(6));
    }

    #[test]
    fn group_by_with_aggregates() {
        let mut db = setup();
        let r = execute(
            &mut db,
            "SELECT movie_id, count(*), sum(price) FROM screening              GROUP BY movie_id ORDER BY movie_id",
        )
        .unwrap();
        let rs = r.rows().unwrap();
        assert_eq!(rs.columns, vec!["movie_id", "count(*)", "sum(price)"]);
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(
            rs.rows[0],
            vec![Value::Int(1), Value::Int(1), Value::Float(12.5)]
        );
        assert_eq!(
            rs.rows[1],
            vec![Value::Int(2), Value::Int(2), Value::Float(20.0)]
        );
    }

    #[test]
    fn group_by_over_join() {
        let mut db = setup();
        let r = execute(
            &mut db,
            "SELECT movie.title, count(*) FROM screening              JOIN movie ON screening.movie_id = movie.movie_id              GROUP BY movie.title ORDER BY title DESC",
        )
        .unwrap();
        let rs = r.rows().unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][0], Value::Text("Heat".into()));
        assert_eq!(rs.rows[0][1], Value::Int(2));
    }

    #[test]
    fn aggregate_validation_errors() {
        let mut db = setup();
        // Non-grouped plain column.
        assert!(execute(&mut db, "SELECT title, count(*) FROM movie").is_err());
        // star + group by
        assert!(execute(&mut db, "SELECT * FROM movie GROUP BY genre").is_err());
        // SUM over text.
        assert!(execute(&mut db, "SELECT sum(title) FROM movie").is_err());
        // Unknown function.
        assert!(execute(&mut db, "SELECT median(rating) FROM movie").is_err());
        // `*` only for COUNT.
        assert!(execute(&mut db, "SELECT sum(*) FROM movie").is_err());
    }

    #[test]
    fn aggregates_over_empty_input() {
        let mut db = setup();
        let r = execute(
            &mut db,
            "SELECT count(*), min(rating) FROM movie WHERE movie_id > 99",
        )
        .unwrap();
        let rs = r.rows().unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(0));
        assert_eq!(rs.rows[0][1], Value::Null);
        // Grouped over empty input: no groups, no rows.
        let r = execute(
            &mut db,
            "SELECT genre, count(*) FROM movie WHERE movie_id > 99 GROUP BY genre",
        )
        .unwrap();
        assert!(r.rows().unwrap().rows.is_empty());
    }

    #[test]
    fn group_by_limit() {
        let mut db = setup();
        let r = execute(
            &mut db,
            "SELECT genre, count(*) FROM movie GROUP BY genre ORDER BY genre LIMIT 2",
        )
        .unwrap();
        assert_eq!(r.rows().unwrap().rows.len(), 2);
    }

    #[test]
    fn script_splitting_respects_strings() {
        let mut db = Database::new();
        let results = execute_script(
            &mut db,
            "CREATE TABLE t (id INT PRIMARY KEY, s TEXT);
             INSERT INTO t VALUES (1, 'semi;colon');",
        )
        .unwrap();
        assert_eq!(results.len(), 2);
        let r = execute(&mut db, "SELECT s FROM t").unwrap();
        assert_eq!(
            r.rows().unwrap().rows[0][0],
            Value::Text("semi;colon".into())
        );
    }

    #[test]
    fn split_statements_borrows_single_statement() {
        let script = "SELECT * FROM t";
        let parts = split_statements(script);
        assert_eq!(parts, vec![script]);
        // The returned slice points into the input, not a copy.
        assert_eq!(parts[0].as_ptr(), script.as_ptr());
    }

    #[test]
    fn split_statements_edge_cases() {
        assert_eq!(split_statements("a; b ;c"), vec!["a", " b ", "c"]);
        assert_eq!(split_statements("a;"), vec!["a"]);
        assert_eq!(split_statements("  "), Vec::<&str>::new());
        assert_eq!(
            split_statements("say 'don''t; stop'; x"),
            vec!["say 'don''t; stop'", " x"]
        );
        assert_eq!(split_statements("'a';'b'"), vec!["'a'", "'b'"]);
    }

    #[test]
    fn column_index_does_not_match_partial_suffix() {
        let rs = ResultSet {
            columns: vec!["movie.title".into(), "screening.date".into()],
            rows: Vec::new(),
        };
        assert_eq!(rs.column_index("title"), Some(0));
        assert_eq!(rs.column_index("date"), Some(1));
        assert_eq!(rs.column_index("movie.title"), Some(0));
        // `itle` is a suffix of the string but not of the column name.
        assert_eq!(rs.column_index("itle"), None);
        assert_eq!(rs.column_index("nope"), None);
    }

    /// Every query on the shared fixture must agree between the planned
    /// and the reference executor.
    #[test]
    fn planned_matches_reference_on_fixture() {
        let mut db = setup();
        db.table_mut("movie")
            .unwrap()
            .create_range_index("rating")
            .unwrap();
        let queries = [
            "SELECT * FROM movie",
            "SELECT title FROM movie WHERE movie_id = 2",
            "SELECT title FROM movie WHERE rating > 8.4 ORDER BY title",
            "SELECT * FROM movie WHERE rating >= 8.3 AND rating < 8.8 ORDER BY rating DESC LIMIT 1",
            "SELECT * FROM movie WHERE genre = 'Crime' OR genre = 'Horror' ORDER BY movie_id",
            "SELECT movie.title, screening.price FROM screening \
             JOIN movie ON screening.movie_id = movie.movie_id \
             WHERE screening.price > 10.0 ORDER BY screening.price",
            "SELECT movie.title FROM screening \
             JOIN movie ON screening.movie_id = movie.movie_id \
             WHERE movie.movie_id = 2 ORDER BY movie.title LIMIT 5",
            "SELECT genre, count(*), avg(rating) FROM movie GROUP BY genre ORDER BY genre",
            "SELECT count(*) FROM screening WHERE price = 10.0",
            "SELECT title FROM movie WHERE rating IS NOT NULL ORDER BY rating LIMIT 2",
            // A text literal that coerces to NULL mid-evaluation: both
            // paths must apply the null check to the *uncoerced* literal.
            "SELECT title FROM movie WHERE rating > 'null'",
            "SELECT title FROM movie WHERE genre = 'null'",
        ];
        for q in queries {
            let Statement::Select(sel) = parse_statement(q).unwrap() else {
                unreachable!()
            };
            let planned = execute_select(&db, &sel).unwrap();
            let reference = execute_select_reference(&db, &sel).unwrap();
            assert_eq!(planned, reference, "query: {q}");
        }
    }

    #[test]
    fn ambiguous_column_errors_even_when_pushdown_would_empty_the_stream() {
        let db = setup();
        // `movie_id` is ambiguous over the joined layout; `rating > 100`
        // matches nothing. The seed evaluated WHERE per joined row and
        // errored on the first one — pushing the rating filter first
        // would empty the stream and silently skip the error.
        let q = "SELECT movie.title FROM movie \
                 JOIN screening ON screening.movie_id = movie.movie_id \
                 WHERE movie_id = 1 AND movie.rating > 100.0";
        let Statement::Select(sel) = parse_statement(q).unwrap() else {
            unreachable!()
        };
        let planned = execute_select(&db, &sel);
        let reference = execute_select_reference(&db, &sel);
        assert!(
            reference.is_err(),
            "reference must reject the ambiguous column"
        );
        assert!(planned.is_err(), "planned path must preserve the error");
    }

    #[test]
    fn nan_values_agree_between_paths_and_group_separately() {
        let mut db = Database::new();
        execute(&mut db, "CREATE TABLE t (id INT PRIMARY KEY, x FLOAT)").unwrap();
        execute(
            &mut db,
            "INSERT INTO t VALUES (1, 5.0), (2, 'NaN'), (3, 7.0), (4, 'NaN')",
        )
        .unwrap();
        db.table_mut("t").unwrap().create_range_index("x").unwrap();
        for q in [
            // NaN bound must filter everything out, not be dropped.
            "SELECT id FROM t WHERE x > 5.0 AND x > 'NaN'",
            "SELECT id FROM t WHERE x > 'NaN'",
            // NaN rows form their own group, not merge into 5.0's.
            "SELECT x, count(*) FROM t GROUP BY x",
            // NaN sorts deterministically after the numbers.
            "SELECT id FROM t ORDER BY x LIMIT 3",
            "SELECT id FROM t ORDER BY x DESC",
        ] {
            let Statement::Select(sel) = parse_statement(q).unwrap() else {
                unreachable!()
            };
            let planned = execute_select(&db, &sel).unwrap();
            let reference = execute_select_reference(&db, &sel).unwrap();
            assert_eq!(planned, reference, "query: {q}");
        }
        let r = execute(&mut db, "SELECT id FROM t WHERE x > 5.0 AND x > 'NaN'").unwrap();
        assert!(
            r.rows().unwrap().rows.is_empty(),
            "NaN comparison is never true"
        );
        let r = execute(&mut db, "SELECT x, count(*) FROM t GROUP BY x").unwrap();
        assert_eq!(r.rows().unwrap().rows.len(), 3, "5.0, 7.0 and NaN groups");
    }

    #[test]
    fn nan_rows_and_range_probe_bounds_agree() {
        // The engine's comparison semantics collapse `NaN <op> float` to
        // Equal: NaN cells pass `<=`/`>=` but fail `<`/`>`/`=`. The
        // ordered index sorts NaN above every number, so a consumed
        // range probe must add or strip the NaN bucket to match — for
        // every bound shape.
        let mut db = Database::new();
        execute(&mut db, "CREATE TABLE t (id INT PRIMARY KEY, x FLOAT)").unwrap();
        for i in 0..100i64 {
            execute(
                &mut db,
                &format!("INSERT INTO t VALUES ({i}, {})", i as f64 / 10.0),
            )
            .unwrap();
        }
        for i in 100..103i64 {
            execute(&mut db, &format!("INSERT INTO t VALUES ({i}, 'NaN')")).unwrap();
        }
        db.table_mut("t").unwrap().create_range_index("x").unwrap();
        for q in [
            "SELECT id FROM t WHERE x <= 1.0",
            "SELECT id FROM t WHERE x < 1.0",
            "SELECT id FROM t WHERE x >= 9.0",
            "SELECT id FROM t WHERE x > 9.0",
            "SELECT id FROM t WHERE x >= 1.0 AND x <= 2.0",
            "SELECT id FROM t WHERE x > 1.0 AND x <= 2.0",
        ] {
            let Statement::Select(sel) = parse_statement(q).unwrap() else {
                unreachable!()
            };
            let planned = execute_select(&db, &sel).unwrap();
            let reference = execute_select_reference(&db, &sel).unwrap();
            assert_eq!(planned, reference, "query: {q}");
        }
        // Spot-check the semantics themselves: non-strict bounds accept
        // NaN, strict bounds reject it.
        let r = execute(&mut db, "SELECT count(*) FROM t WHERE x <= 1.0").unwrap();
        assert_eq!(r.rows().unwrap().rows[0][0], Value::Int(11 + 3));
        let r = execute(&mut db, "SELECT count(*) FROM t WHERE x < 1.0").unwrap();
        assert_eq!(r.rows().unwrap().rows[0][0], Value::Int(10));
        let r = execute(&mut db, "SELECT count(*) FROM t WHERE x > 9.0").unwrap();
        assert_eq!(r.rows().unwrap().rows[0][0], Value::Int(9));
    }

    #[test]
    fn top_k_matches_stable_sort_semantics() {
        let mut db = Database::new();
        execute(&mut db, "CREATE TABLE t (id INT PRIMARY KEY, k INT)").unwrap();
        // Many ties: stable order must break them by insertion sequence.
        for i in 0..50i64 {
            execute(&mut db, &format!("INSERT INTO t VALUES ({i}, {})", i % 5)).unwrap();
        }
        for q in [
            "SELECT id FROM t ORDER BY k LIMIT 7",
            "SELECT id FROM t ORDER BY k DESC LIMIT 7",
            "SELECT id FROM t ORDER BY k LIMIT 0",
            "SELECT id FROM t ORDER BY k LIMIT 100",
        ] {
            let Statement::Select(sel) = parse_statement(q).unwrap() else {
                unreachable!()
            };
            let planned = execute_select(&db, &sel).unwrap();
            let reference = execute_select_reference(&db, &sel).unwrap();
            assert_eq!(planned, reference, "query: {q}");
        }
    }

    /// Assert planned (default options), the tight-budget shape
    /// (degradation paths live) and the reference executor all agree on
    /// `q` — including row order.
    fn assert_all_paths_agree(db: &Database, q: &str) -> ResultSet {
        let Statement::Select(sel) = parse_statement(q).unwrap() else {
            unreachable!()
        };
        let planned = execute_select(db, &sel).unwrap();
        let tight =
            execute_select_with(db, &sel, &crate::sql::plan::PlanOptions::tight_budget()).unwrap();
        let reference = execute_select_reference(db, &sel).unwrap();
        assert_eq!(planned, reference, "planned vs reference: {q}");
        assert_eq!(tight, reference, "tight-budget shape vs reference: {q}");
        planned
    }

    /// The planner's build-pushdown count for `q` — pins that a test
    /// actually exercised the pre-filtered path.
    fn pushdowns(db: &Database, q: &str) -> usize {
        let Statement::Select(sel) = parse_statement(q).unwrap() else {
            unreachable!()
        };
        plan_select(db, &sel).unwrap().build_pushdown_count()
    }

    /// The planner's strategy for each join of `q`, for pinning which
    /// code path a test actually exercised.
    fn strategies(db: &Database, q: &str) -> Vec<crate::sql::plan::JoinStrategy> {
        let Statement::Select(sel) = parse_statement(q).unwrap() else {
            unreachable!()
        };
        plan_select(db, &sel)
            .unwrap()
            .join_order
            .iter()
            .map(|j| j.strategy)
            .collect()
    }

    /// Two tables with an unindexed float join key: NULLs, NaNs and
    /// Int/Float-mixed values on both sides. `ordered` adds range
    /// indexes on both key columns (the MergeRange gate); `hash` adds a
    /// hash index on the right key (the IndexProbe gate).
    fn key_edge_db(ordered: bool, hash: bool) -> Database {
        let mut db = Database::new();
        execute_script(
            &mut db,
            "CREATE TABLE lt (l_id INT PRIMARY KEY, k FLOAT);
             CREATE TABLE rt (r_id INT PRIMARY KEY, k FLOAT, tag TEXT);
             INSERT INTO lt VALUES (1, 1.0), (2, 2.0), (3, 'NaN'), (4, NULL), (5, 2.0), (6, 9.0);
             INSERT INTO rt VALUES (10, 1.0, 'a'), (11, 2.0, 'b'), (12, 2.0, 'c'),
                                   (13, 'NaN', 'd'), (14, NULL, 'e'), (15, 7.0, 'f');",
        )
        .unwrap();
        if ordered {
            db.table_mut("lt").unwrap().create_range_index("k").unwrap();
            db.table_mut("rt").unwrap().create_range_index("k").unwrap();
        }
        if hash {
            db.table_mut("rt").unwrap().create_index("k").unwrap();
        }
        db
    }

    #[test]
    fn join_key_edge_cases_through_all_strategies() {
        use crate::sql::plan::JoinStrategy;
        let q = "SELECT lt.l_id, rt.tag FROM lt JOIN rt ON rt.k = lt.k";
        // Expected: NULL keys (l_id 4 / r_id 14) drop, NaN keys (l_id 3 /
        // r_id 13) never match, 2.0 fans out 2×2, in canonical
        // (FROM-order RowId lexicographic) order.
        let expected = vec![
            vec![Value::Int(1), Value::Text("a".into())],
            vec![Value::Int(2), Value::Text("b".into())],
            vec![Value::Int(2), Value::Text("c".into())],
            vec![Value::Int(5), Value::Text("b".into())],
            vec![Value::Int(5), Value::Text("c".into())],
        ];
        for (ordered, hash, want) in [
            (false, false, JoinStrategy::BuildHash),
            (true, false, JoinStrategy::BuildHash),
            (false, true, JoinStrategy::IndexProbe),
        ] {
            let db = key_edge_db(ordered, hash);
            assert_eq!(strategies(&db, q), vec![want], "ordered={ordered}");
            let rs = assert_all_paths_agree(&db, q);
            assert_eq!(rs.rows, expected, "ordered={ordered} hash={hash}");
        }
        // MergeRange needs a small outer estimate: filter the left side
        // down to one row through its PK.
        let db = key_edge_db(true, false);
        let q_sel = "SELECT lt.l_id, rt.tag FROM lt JOIN rt ON rt.k = lt.k WHERE lt.l_id = 2";
        assert_eq!(strategies(&db, q_sel), vec![JoinStrategy::MergeRange]);
        let rs = assert_all_paths_agree(&db, q_sel);
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::Int(2), Value::Text("b".into())],
                vec![Value::Int(2), Value::Text("c".into())],
            ]
        );
    }

    #[test]
    fn index_probe_join_without_hash_index_is_refused() {
        use crate::sql::plan::JoinStrategy;
        let db = key_edge_db(false, false);
        let Statement::Select(sel) =
            parse_statement("SELECT lt.l_id FROM lt JOIN rt ON rt.k = lt.k").unwrap()
        else {
            unreachable!()
        };
        let mut plan = plan_select(&db, &sel).unwrap();
        plan.join_order[0].strategy = JoinStrategy::IndexProbe;
        let budget = ExecBudget::from_options(&PlanOptions::default());
        let mut root = ops::lower(&db, &sel, &plan, &budget, None).unwrap();
        let err = ops::drive(root.as_mut()).unwrap_err();
        assert!(
            matches!(&err, TxdbError::InvalidValue(m) if m.contains("hash index on `rt.k`")),
            "{err}"
        );
    }

    #[test]
    fn cross_type_int_float_keys_join_under_every_strategy() {
        for (ordered, hash) in [(false, false), (true, false), (false, true)] {
            let mut db = Database::new();
            execute_script(
                &mut db,
                "CREATE TABLE li (l_id INT PRIMARY KEY, k INT);
                 CREATE TABLE rf (r_id INT PRIMARY KEY, k FLOAT);
                 INSERT INTO li VALUES (1, 1), (2, 2), (3, 3);
                 INSERT INTO rf VALUES (10, 1.0), (11, 2.5), (12, 3.0);",
            )
            .unwrap();
            if ordered {
                db.table_mut("li").unwrap().create_range_index("k").unwrap();
                db.table_mut("rf").unwrap().create_range_index("k").unwrap();
            }
            if hash {
                db.table_mut("rf").unwrap().create_index("k").unwrap();
            }
            let rs = assert_all_paths_agree(
                &db,
                "SELECT li.l_id, rf.r_id FROM li JOIN rf ON rf.k = li.k",
            );
            assert_eq!(
                rs.rows,
                vec![
                    vec![Value::Int(1), Value::Int(10)],
                    vec![Value::Int(3), Value::Int(12)],
                ],
                "Int(1) must join Float(1.0), ordered={ordered} hash={hash}"
            );
            // And with a small outer stream the ordered variant merges.
            if ordered {
                let q = "SELECT li.l_id, rf.r_id FROM li JOIN rf ON rf.k = li.k WHERE li.l_id = 3";
                let rs = assert_all_paths_agree(&db, q);
                assert_eq!(rs.rows, vec![vec![Value::Int(3), Value::Int(12)]]);
            }
        }
    }

    #[test]
    fn empty_build_side_and_single_bucket_preserve_canonical_order() {
        // Empty right table: zero output under every strategy.
        let mut db = Database::new();
        execute_script(
            &mut db,
            "CREATE TABLE lt (l_id INT PRIMARY KEY, k INT);
             CREATE TABLE rt (r_id INT PRIMARY KEY, k INT);
             INSERT INTO lt VALUES (1, 7), (2, 7);",
        )
        .unwrap();
        let rs = assert_all_paths_agree(&db, "SELECT lt.l_id FROM lt JOIN rt ON rt.k = lt.k");
        assert!(rs.rows.is_empty());

        // Single bucket (every row the same key): full cross product in
        // FROM-order RowId lexicographic order.
        execute(&mut db, "INSERT INTO rt VALUES (10, 7), (11, 7), (12, 7)").unwrap();
        let rs = assert_all_paths_agree(
            &db,
            "SELECT lt.l_id, rt.r_id FROM lt JOIN rt ON rt.k = lt.k",
        );
        let expected: Vec<Vec<Value>> = [(1, 10), (1, 11), (1, 12), (2, 10), (2, 11), (2, 12)]
            .iter()
            .map(|&(l, r)| vec![Value::Int(l), Value::Int(r)])
            .collect();
        assert_eq!(rs.rows, expected);
    }

    /// Build-side pushdown edge cases: an unindexed float join key with
    /// NULL and NaN on both sides, plus a range-indexed float filter
    /// column `score` that itself carries NULL and NaN cells. `ordered`
    /// adds range indexes on both join-key columns (the MergeRange gate).
    fn pushdown_edge_db(ordered: bool) -> Database {
        let mut db = Database::new();
        execute_script(
            &mut db,
            "CREATE TABLE lt (l_id INT PRIMARY KEY, k FLOAT);
             CREATE TABLE rt (r_id INT PRIMARY KEY, k FLOAT, score FLOAT)",
        )
        .unwrap();
        for i in 0..40i64 {
            let k = match i % 9 {
                0 => "NULL".to_string(),
                3 => "'NaN'".to_string(),
                _ => format!("{}.0", i % 20),
            };
            execute(&mut db, &format!("INSERT INTO lt VALUES ({i}, {k})")).unwrap();
        }
        for i in 0..60i64 {
            let k = match i % 11 {
                0 => "NULL".to_string(),
                4 => "'NaN'".to_string(),
                _ => format!("{}.0", i % 20),
            };
            let score = match i % 15 {
                0 => "NULL".to_string(),
                7 => "'NaN'".to_string(),
                _ => format!("{}", i as f64 / 2.0),
            };
            execute(
                &mut db,
                &format!("INSERT INTO rt VALUES ({i}, {k}, {score})"),
            )
            .unwrap();
        }
        db.table_mut("rt")
            .unwrap()
            .create_range_index("score")
            .unwrap();
        if ordered {
            db.table_mut("lt").unwrap().create_range_index("k").unwrap();
            db.table_mut("rt").unwrap().create_range_index("k").unwrap();
        }
        db
    }

    #[test]
    fn pushdown_handles_null_and_nan_cells_on_build_side() {
        let db = pushdown_edge_db(false);
        // Non-strict bound: NaN score cells pass (`partial_cmp` collapse),
        // so the fetched set must include the index's NaN bucket; strict
        // bound: NaN cells fail and must be stripped. NULL score cells
        // never pass either way (the index excludes them). NULL/NaN join
        // *keys* on the filtered rows must still never join.
        for q in [
            "SELECT lt.l_id, rt.r_id FROM lt JOIN rt ON rt.k = lt.k WHERE rt.score <= 1.0",
            "SELECT lt.l_id, rt.r_id FROM lt JOIN rt ON rt.k = lt.k WHERE rt.score < 1.0",
            "SELECT lt.l_id, rt.r_id FROM lt JOIN rt ON rt.k = lt.k WHERE rt.score >= 27.0",
        ] {
            assert!(pushdowns(&db, q) >= 1, "pushdown must trigger: {q}");
            assert_all_paths_agree(&db, q);
        }
    }

    #[test]
    fn pushdown_probe_that_empties_the_build_side() {
        let db = pushdown_edge_db(false);
        let q = "SELECT lt.l_id, rt.r_id FROM lt JOIN rt ON rt.k = lt.k WHERE rt.score < -5.0";
        assert!(pushdowns(&db, q) >= 1, "pushdown must trigger: {q}");
        let rs = assert_all_paths_agree(&db, q);
        assert!(rs.rows.is_empty(), "no build row survives the probe");
    }

    #[test]
    fn clamped_merge_walk_agrees_with_reference() {
        use crate::sql::plan::JoinStrategy;
        let db = pushdown_edge_db(true);
        // A selective bound on the join key itself with a tiny outer
        // stream: the planner clamps the MergeRange walk to the probe's
        // bounds. The non-strict `<=` additionally pulls NaN join-key
        // cells into the fetched set — they must still never join.
        let q = "SELECT lt.l_id, rt.r_id FROM lt JOIN rt ON rt.k = lt.k \
                 WHERE lt.l_id = 2 AND rt.k <= 1.0";
        assert_eq!(strategies(&db, q), vec![JoinStrategy::MergeRange]);
        assert!(pushdowns(&db, q) >= 1, "pushdown must trigger: {q}");
        assert_all_paths_agree(&db, q);
    }

    #[test]
    fn consumed_pushdown_conjunct_is_not_double_filtered() {
        let db = pushdown_edge_db(false);
        let q = "SELECT lt.l_id, rt.r_id FROM lt JOIN rt ON rt.k = lt.k WHERE rt.score <= 1.0";
        let Statement::Select(sel) = parse_statement(q).unwrap() else {
            unreachable!()
        };
        let p = plan_select(&db, &sel).unwrap();
        assert_eq!(p.build_pushdown_count(), 1);
        assert_eq!(
            p.staged_count(),
            0,
            "consumed conjunct must leave the residual stages: {}",
            p.describe()
        );
        // And dropping it is sound: results still match the reference,
        // which evaluates the full WHERE clause after the join.
        assert_all_paths_agree(&db, q);
    }

    #[test]
    fn reordered_joins_keep_canonical_order_under_pushdown() {
        // Star join where the tiny `a` join reorders first and the
        // unindexed `s` join carries a build-side pushdown: the filtered
        // BuildHash output must still canonicalize to FROM-order
        // nested-loop order.
        let mut db = Database::new();
        execute_script(
            &mut db,
            "CREATE TABLE m (m_id INT PRIMARY KEY, k INT);
             CREATE TABLE s (s_id INT PRIMARY KEY, k INT, tag INT);
             CREATE TABLE a (a_id INT PRIMARY KEY, m_id INT REFERENCES m(m_id));",
        )
        .unwrap();
        for i in 0..30i64 {
            execute(&mut db, &format!("INSERT INTO m VALUES ({i}, {})", i % 5)).unwrap();
            execute(
                &mut db,
                &format!("INSERT INTO s VALUES ({i}, {}, {})", i % 5, i % 10),
            )
            .unwrap();
        }
        execute(&mut db, "INSERT INTO a VALUES (0, 3), (1, 17)").unwrap();
        db.table_mut("s").unwrap().create_index("tag").unwrap();
        let q = "SELECT m.m_id, s.s_id, a.a_id FROM m \
                 JOIN s ON s.k = m.k \
                 JOIN a ON a.m_id = m.m_id \
                 WHERE s.tag = 1";
        let Statement::Select(sel) = parse_statement(q).unwrap() else {
            unreachable!()
        };
        let p = plan_select(&db, &sel).unwrap();
        assert!(p.joins_reordered(), "fixture must trigger a reorder");
        assert_eq!(
            p.build_pushdown_count(),
            1,
            "fixture must exercise the pushdown, got {}",
            p.describe()
        );
        assert_all_paths_agree(&db, q);
    }

    #[test]
    fn reordered_joins_keep_canonical_order_under_build_hash() {
        use crate::sql::plan::JoinStrategy;
        // Star join where the second join is tiny (reordered first) and
        // the first uses an unindexed key: the BuildHash output must
        // still canonicalize back to FROM-order nested-loop order.
        let mut db = Database::new();
        execute_script(
            &mut db,
            "CREATE TABLE m (m_id INT PRIMARY KEY, k INT);
             CREATE TABLE s (s_id INT PRIMARY KEY, k INT);
             CREATE TABLE a (a_id INT PRIMARY KEY, m_id INT REFERENCES m(m_id));",
        )
        .unwrap();
        for i in 0..30i64 {
            execute(&mut db, &format!("INSERT INTO m VALUES ({i}, {})", i % 5)).unwrap();
            execute(&mut db, &format!("INSERT INTO s VALUES ({i}, {})", i % 5)).unwrap();
        }
        execute(&mut db, "INSERT INTO a VALUES (0, 3), (1, 17)").unwrap();
        let q = "SELECT m.m_id, s.s_id, a.a_id FROM m \
                 JOIN s ON s.k = m.k \
                 JOIN a ON a.m_id = m.m_id";
        let Statement::Select(sel) = parse_statement(q).unwrap() else {
            unreachable!()
        };
        let p = plan_select(&db, &sel).unwrap();
        assert!(p.joins_reordered(), "fixture must trigger a reorder");
        assert!(
            p.join_order
                .iter()
                .any(|j| j.strategy == JoinStrategy::BuildHash),
            "fixture must exercise BuildHash, got {}",
            p.describe()
        );
        assert_all_paths_agree(&db, q);
    }

    #[test]
    fn indexed_access_returns_scan_order() {
        let mut db = setup();
        // Grow the table so a point lookup is clearly below the planner's
        // selectivity threshold (on a 3-row table a scan is as cheap).
        for i in 100..120 {
            execute(
                &mut db,
                &format!("INSERT INTO movie VALUES ({i}, 'M{i}', 'Drama', 5.0)"),
            )
            .unwrap();
        }
        // movie_id is the PK (hash-indexed): the planner takes the index
        // path, and results must still come back in row order.
        let r = execute(&mut db, "SELECT title FROM movie WHERE movie_id = 2").unwrap();
        assert_eq!(
            r.rows().unwrap().rows,
            vec![vec![Value::Text("Heat".into())]]
        );
        let p = plan_select(
            &db,
            &match parse_statement("SELECT title FROM movie WHERE movie_id = 2").unwrap() {
                Statement::Select(s) => s,
                _ => unreachable!(),
            },
        )
        .unwrap();
        assert_eq!(p.access.describe(), "index_eq(movie_id)");
    }

    #[test]
    fn index_probe_pushdown_prefilters_probed_buckets() {
        use crate::sql::plan::JoinStrategy;
        // Indexed join key AND a selective indexed build-side conjunct:
        // the planner consumes the conjunct into a pre-filter, so the
        // executor MUST intersect every probed bucket with the fetched
        // set — the reference evaluates the full WHERE after the join
        // and any un-filtered probe row would show up as a mismatch.
        let mut db = Database::new();
        execute_script(
            &mut db,
            "CREATE TABLE l (l_id INT PRIMARY KEY, k INT);
             CREATE TABLE r (r_id INT PRIMARY KEY, k INT, tag INT)",
        )
        .unwrap();
        for i in 0..200i64 {
            db.insert("l", crate::row![i, i % 50]).unwrap();
            db.insert("r", crate::row![i, i % 50, i % 100]).unwrap();
        }
        db.table_mut("r").unwrap().create_index("k").unwrap();
        db.table_mut("r").unwrap().create_index("tag").unwrap();
        let q = "SELECT l.l_id, r.r_id FROM l JOIN r ON r.k = l.k WHERE r.tag = 7";
        let Statement::Select(sel) = parse_statement(q).unwrap() else {
            unreachable!()
        };
        let p = plan_select(&db, &sel).unwrap();
        assert_eq!(p.join_order[0].strategy, JoinStrategy::IndexProbe);
        assert_eq!(p.build_pushdown_count(), 1, "{}", p.describe());
        assert_eq!(
            p.staged_count(),
            0,
            "conjunct must be consumed by the pre-filter: {}",
            p.describe()
        );
        let rs = assert_all_paths_agree(&db, q);
        // tag = 7 keeps r_id ∈ {7, 107}, both with k = 7: the 4 outer
        // rows sharing that key each match exactly those two.
        assert_eq!(rs.rows.len(), 8);
    }

    /// 10k-row build side where one key holds ~half the rows (the
    /// MCV-visible heavy hitter) and the rest are near-distinct, joined
    /// from a small outer table that hits the hot key, tail keys and
    /// misses. No index on the key, so the planner must BuildHash — and
    /// partition under a budget far below the build-map footprint.
    fn skewed_db() -> Database {
        let mut db = Database::new();
        execute_script(
            &mut db,
            "CREATE TABLE probe (p_id INT PRIMARY KEY, k INT);
             CREATE TABLE build (b_id INT PRIMARY KEY, k INT)",
        )
        .unwrap();
        for i in 0..10_000i64 {
            let k = if i % 2 == 0 { 42 } else { i };
            db.insert("build", crate::row![i, k]).unwrap();
        }
        for i in 0..40i64 {
            // Two hot probes, tail hits (odd ids), and misses (even
            // ids other than 42 never appear on the build side).
            let k = match i % 4 {
                0 => 42,
                1 => 2 * i + 1,
                2 => 2 * i,
                _ => 9_999,
            };
            db.insert("probe", crate::row![i, k]).unwrap();
        }
        db
    }

    const SKEW_BUDGET: usize = 256 * 1024;

    #[test]
    fn skewed_join_partitions_under_budget_with_identical_results() {
        use crate::sql::plan::JoinStrategy;
        let db = skewed_db();
        let q = "SELECT probe.p_id, build.b_id FROM probe JOIN build ON build.k = probe.k";
        let Statement::Select(sel) = parse_statement(q).unwrap() else {
            unreachable!()
        };
        let opts = PlanOptions {
            memory_budget: Some(SKEW_BUDGET),
            ..PlanOptions::default()
        };
        let p = plan_select_with(&db, &sel, &opts).unwrap();
        assert_eq!(p.join_order[0].strategy, JoinStrategy::BuildHash);
        assert!(
            p.join_order[0].partitions > 1,
            "build must partition under the budget: {}",
            p.describe()
        );
        assert!(
            p.join_order[0].hot_keys.contains(&Value::Int(42)),
            "MCV stats must surface the hot key: {:?}",
            p.join_order[0].hot_keys
        );
        // Identical results, and the tracked peak stays under budget even
        // though the in-place build map alone would cost ~560 KiB.
        let budget = ExecBudget::with_limit(SKEW_BUDGET);
        let partitioned = execute_select_budgeted(&db, &sel, &opts, &budget, None).unwrap();
        let reference = execute_select_reference(&db, &sel).unwrap();
        assert_eq!(partitioned, reference);
        assert!(
            partitioned.rows.len() > 5_000,
            "hot key must fan out through the resident path"
        );
        assert!(budget.peak() > 0, "the join must charge the budget");
        assert!(
            budget.peak() <= SKEW_BUDGET,
            "peak {} exceeds budget {}",
            budget.peak(),
            SKEW_BUDGET
        );
        assert_eq!(budget.used(), 0, "all transient charges released");
    }

    #[test]
    fn runtime_degradation_kicks_in_without_a_planned_partitioning() {
        // Plan without a budget (partitions stays 1), then execute under
        // a budget the in-place build cannot fit: the executor must
        // degrade to the partitioned path on its own and still agree.
        let db = skewed_db();
        let q = "SELECT probe.p_id, build.b_id FROM probe JOIN build ON build.k = probe.k";
        let Statement::Select(sel) = parse_statement(q).unwrap() else {
            unreachable!()
        };
        // Explicitly budget-less (the `tight-budget` feature flips the
        // default), so the plan keeps the in-place build.
        let unbudgeted = PlanOptions {
            memory_budget: None,
            ..PlanOptions::default()
        };
        assert_eq!(
            plan_select_with(&db, &sel, &unbudgeted).unwrap().join_order[0].partitions,
            1
        );
        let budget = ExecBudget::with_limit(SKEW_BUDGET);
        let degraded = execute_select_budgeted(&db, &sel, &unbudgeted, &budget, None).unwrap();
        assert_eq!(degraded, execute_select_reference(&db, &sel).unwrap());
        assert!(
            budget.peak() <= SKEW_BUDGET,
            "peak {} exceeds budget {}",
            budget.peak(),
            SKEW_BUDGET
        );
    }
}
