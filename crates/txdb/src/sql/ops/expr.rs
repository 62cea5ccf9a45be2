//! Expression machinery shared by the operator tree and the reference
//! executor: borrowed-tuple cell access, per-statement predicate
//! compilation, and output-column naming.

use crate::error::Result;
use crate::row::Row;
use crate::value::Value;

use super::super::ast::SqlExpr;
use super::super::plan::Layout;

pub(crate) const NULL_VALUE: Value = Value::Null;

/// Whether a join key never matches — the single definition
/// ([`Value::is_excluded_join_key`]) shared by every strategy's build
/// and probe sides in both executors, so the two executors agree.
pub(crate) fn join_key_excluded(v: &Value) -> bool {
    v.is_excluded_join_key()
}

/// A joined row is a tuple of `&Row`, one per FROM-order table. Fetch the
/// value at a layout position without cloning.
pub(crate) fn cell<'a>(layout: &Layout, tuple: &[&'a Row], pos: usize) -> &'a Value {
    let slot = &layout.slots[pos];
    tuple[slot.table_ord]
        .get(slot.col_idx)
        .unwrap_or(&NULL_VALUE)
}

/// [`cell`] over a tuple whose positions follow the plan's join execution
/// order: `map[table_ord]` is the table's position in the tuple. (After
/// the final canonicalization step the stream is back in FROM order and
/// the plain [`cell`] applies.)
pub(crate) fn cell_mapped<'a>(
    layout: &Layout,
    map: &[usize],
    tuple: &[&'a Row],
    pos: usize,
) -> &'a Value {
    let slot = &layout.slots[pos];
    tuple[map[slot.table_ord]]
        .get(slot.col_idx)
        .unwrap_or(&NULL_VALUE)
}

/// Evaluate a WHERE (sub)expression against a borrowed row tuple (in
/// execution order, see [`cell_mapped`]). Same semantics as the reference
/// path: NULL comparisons are false, literals are coerced to the column
/// type when possible.
pub(crate) fn eval_expr(
    layout: &Layout,
    map: &[usize],
    expr: &SqlExpr,
    tuple: &[&Row],
) -> Result<bool> {
    Ok(match expr {
        SqlExpr::Cmp { column, op, value } => {
            let idx = layout.resolve(column)?;
            let cv = cell_mapped(layout, map, tuple, idx);
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
            cell_mapped(layout, map, tuple, idx)
                .as_text()
                .is_some_and(|s| s.to_lowercase().contains(&pattern.to_lowercase()))
        }
        SqlExpr::IsNull { column, negated } => {
            let idx = layout.resolve(column)?;
            cell_mapped(layout, map, tuple, idx).is_null() != *negated
        }
        SqlExpr::And(a, b) => {
            eval_expr(layout, map, a, tuple)? && eval_expr(layout, map, b, tuple)?
        }
        SqlExpr::Or(a, b) => eval_expr(layout, map, a, tuple)? || eval_expr(layout, map, b, tuple)?,
        SqlExpr::Not(a) => !eval_expr(layout, map, a, tuple)?,
    })
}

/// A WHERE conjunct pre-compiled against the layout: column references
/// resolved to slots, literals coerced to the column type, LIKE patterns
/// lowercased — once per statement instead of once per row.
pub(crate) enum Compiled {
    Cmp {
        slot: usize,
        op: crate::predicate::CmpOp,
        value: Value,
    },
    Like {
        slot: usize,
        needle: String,
    },
    IsNull {
        slot: usize,
        negated: bool,
    },
    And(Box<Compiled>, Box<Compiled>),
    Or(Box<Compiled>, Box<Compiled>),
    Not(Box<Compiled>),
    /// Subtree whose columns did not resolve at compile time: evaluated
    /// per row by [`eval_expr`], preserving the executor's lazy
    /// unknown/ambiguous-column error semantics exactly (the error only
    /// surfaces if a row actually reaches the subtree).
    Deferred(SqlExpr),
}

pub(crate) fn compile_expr(layout: &Layout, expr: &SqlExpr) -> Compiled {
    match expr {
        SqlExpr::Cmp { column, op, value } => match layout.resolve(column) {
            // A NULL literal never matches (checked on the *uncoerced*
            // literal, as in `eval_expr`); defer so the semantics —
            // including literals that only become NULL through coercion —
            // stay byte-identical to the reference path.
            Ok(_) if value.is_null() => Compiled::Deferred(expr.clone()),
            Ok(slot) => {
                let value = value
                    .coerce_to(layout.slots[slot].ty)
                    .unwrap_or_else(|_| value.clone());
                Compiled::Cmp {
                    slot,
                    op: *op,
                    value,
                }
            }
            Err(_) => Compiled::Deferred(expr.clone()),
        },
        SqlExpr::Like { column, pattern } => match layout.resolve(column) {
            Ok(slot) => Compiled::Like {
                slot,
                needle: pattern.to_lowercase(),
            },
            Err(_) => Compiled::Deferred(expr.clone()),
        },
        SqlExpr::IsNull { column, negated } => match layout.resolve(column) {
            Ok(slot) => Compiled::IsNull {
                slot,
                negated: *negated,
            },
            Err(_) => Compiled::Deferred(expr.clone()),
        },
        SqlExpr::And(a, b) => Compiled::And(
            Box::new(compile_expr(layout, a)),
            Box::new(compile_expr(layout, b)),
        ),
        SqlExpr::Or(a, b) => Compiled::Or(
            Box::new(compile_expr(layout, a)),
            Box::new(compile_expr(layout, b)),
        ),
        SqlExpr::Not(a) => Compiled::Not(Box::new(compile_expr(layout, a))),
    }
}

pub(crate) fn eval_compiled(
    layout: &Layout,
    map: &[usize],
    c: &Compiled,
    tuple: &[&Row],
) -> Result<bool> {
    Ok(match c {
        Compiled::Cmp { slot, op, value } => {
            let cv = cell_mapped(layout, map, tuple, *slot);
            // The literal was non-NULL pre-coercion (NULL literals defer),
            // so only the cell's nullness gates the comparison — exactly
            // the reference path's order of checks.
            if cv.is_null() {
                false
            } else {
                op.eval(cv, value).unwrap_or(false)
            }
        }
        Compiled::Like { slot, needle } => cell_mapped(layout, map, tuple, *slot)
            .as_text()
            .is_some_and(|s| s.to_lowercase().contains(needle)),
        Compiled::IsNull { slot, negated } => {
            cell_mapped(layout, map, tuple, *slot).is_null() != *negated
        }
        Compiled::And(a, b) => {
            eval_compiled(layout, map, a, tuple)? && eval_compiled(layout, map, b, tuple)?
        }
        Compiled::Or(a, b) => {
            eval_compiled(layout, map, a, tuple)? || eval_compiled(layout, map, b, tuple)?
        }
        Compiled::Not(a) => !eval_compiled(layout, map, a, tuple)?,
        Compiled::Deferred(e) => eval_expr(layout, map, e, tuple)?,
    })
}

/// Output column name for a layout position (qualified when joining).
pub(crate) fn slot_name(layout: &Layout, qualified: bool, pos: usize) -> String {
    let slot = &layout.slots[pos];
    if qualified {
        format!("{}.{}", slot.table, slot.column)
    } else {
        slot.column.clone()
    }
}

/// Whether `qualified` is `<anything>.<name>` — suffix match without
/// building a scratch string per probe.
pub(crate) fn is_qualified_suffix(qualified: &str, name: &str) -> bool {
    qualified.len() > name.len()
        && qualified.ends_with(name)
        && qualified.as_bytes()[qualified.len() - name.len() - 1] == b'.'
}
