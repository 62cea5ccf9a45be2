//! A small SQL subset: `CREATE TABLE`, `INSERT`, `SELECT` (with inner
//! joins, `WHERE`, `GROUP BY`, aggregates, `ORDER BY`, `LIMIT`),
//! `UPDATE` and `DELETE`.
//!
//! The conversational layers use the typed API; the SQL layer exists so
//! that example databases can be loaded from `.sql` scripts, that tests can
//! cross-check the typed API against a second implementation path, and that
//! the repository is usable as a standalone mini database.
//!
//! # Pipeline
//!
//! A statement flows through [`tokenize`] → [`parse_statement`] (AST
//! types re-exported below) → [`execute`]. `SELECT` additionally passes through
//! the cost-aware planner in [`plan`]: sargable-conjunct extraction,
//! multi-index AND, cardinality-greedy join ordering, a per-step
//! [`JoinStrategy`] with build-side pushdown, and staged predicate
//! evaluation — then lowers the plan into a tree of physical operators
//! in [`ops`] (scan, filter, join, aggregate, order, project nodes)
//! which the executor drives. See the [`plan`] module docs for the full
//! cost model and `ARCHITECTURE.md` at the repository root for the
//! guided tour.
//!
//! # Entry points
//!
//! - [`execute`] / [`execute_script`]: parse and run one statement / a
//!   `;`-separated script against a [`Database`](crate::Database).
//! - [`plan_select`] / [`plan_select_with`]: plan a `SELECT` without
//!   running it (the returned [`SelectPlan`] describes the chosen access
//!   path, join order, strategies and filter stages).
//! - [`execute_select_with`]: run a `SELECT` under explicit
//!   [`PlanOptions`] — a memory budget or a worker pool; benchmarks and
//!   the differential suite use this to run those shapes.
//! - [`execute_select_reference`]: the naive materialize-everything
//!   executor, kept as the executable specification the differential
//!   suite compares every other path against.
//! - [`explain_select_with`]: render the lowered operator tree —
//!   `EXPLAIN` (estimated cardinalities only) or `EXPLAIN ANALYZE`
//!   (also executes; actual rows and budget peaks per node). The SQL
//!   statements of the same names route here through [`execute`].

mod ast;
pub mod budget;
mod exec;
mod lexer;
pub mod ops;
mod parser;
pub mod plan;
mod pool;

pub use ast::{
    AggFunc, ColumnRef, JoinClause, Projection, SelectItem, SelectStmt, SqlExpr, Statement,
};
pub use budget::ExecBudget;
pub use exec::{
    execute, execute_script, execute_select_at, execute_select_reference,
    execute_select_reference_at, execute_select_with, explain_select_with, QueryResult, ResultSet,
    Session,
};
pub use lexer::{tokenize, Token};
pub use parser::parse_statement;
pub use plan::{
    plan_select, plan_select_with, AccessPath, IndexProbe, JoinStrategy, PlanOptions, PlannedJoin,
    SelectPlan,
};
