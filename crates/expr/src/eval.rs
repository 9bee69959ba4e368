//! Vectorized expression evaluation over chunks.
//!
//! Evaluation is column-at-a-time with SQL three-valued-logic null handling:
//! comparisons on NULL yield NULL, `AND`/`OR` follow Kleene logic, and a
//! WHERE clause keeps only rows whose predicate is *true* (not NULL).

use std::borrow::Cow;
use std::cmp::Ordering;

use bfq_common::{date, BfqError, ColumnId, DataType, Datum, Result};
use bfq_storage::{Bitmap, Chunk, Column, ColumnBuilder, StrData};

use crate::like::like_match;
use crate::{BinOp, Expr, UnOp};

/// Maps chunk slots back to the [`ColumnId`]s they carry.
///
/// Every physical operator's output is described by a `Layout`; expression
/// evaluation resolves `Expr::Column(id)` to a slot through it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Layout {
    columns: Vec<ColumnId>,
}

impl Layout {
    /// A layout over the given column ids.
    pub fn new(columns: Vec<ColumnId>) -> Self {
        Layout { columns }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the layout has no slots.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The column ids in slot order.
    pub fn columns(&self) -> &[ColumnId] {
        &self.columns
    }

    /// The slot carrying `id`, if any.
    pub fn slot_of(&self, id: ColumnId) -> Option<usize> {
        self.columns.iter().position(|c| *c == id)
    }

    /// Concatenated layout (join output = left slots then right slots).
    pub fn concat(&self, other: &Layout) -> Layout {
        let mut columns = self.columns.clone();
        columns.extend_from_slice(&other.columns);
        Layout { columns }
    }

    /// Whether every column of `expr` is available in this layout.
    pub fn covers(&self, expr: &Expr) -> bool {
        expr.columns().iter().all(|c| self.slot_of(*c).is_some())
    }
}

/// A boolean vector with three-valued logic (value + validity).
#[derive(Debug, Clone)]
struct BoolVec {
    vals: Vec<bool>,
    valid: Option<Vec<bool>>,
}

impl BoolVec {
    fn new(vals: Vec<bool>) -> Self {
        BoolVec { vals, valid: None }
    }

    fn len(&self) -> usize {
        self.vals.len()
    }

    fn is_valid(&self, i: usize) -> bool {
        self.valid.as_ref().is_none_or(|v| v[i])
    }

    fn set_invalid(&mut self, i: usize) {
        if self.valid.is_none() {
            self.valid = Some(vec![true; self.vals.len()]);
        }
        self.valid.as_mut().unwrap()[i] = false;
    }

    fn into_column(self) -> Column {
        let validity = self.valid.map(Bitmap::from_bools);
        Column::Bool(self.vals, validity)
    }

    fn from_column(col: &Column) -> Result<Self> {
        let vals = col
            .as_bool()
            .ok_or_else(|| BfqError::Type(format!("expected BOOL, got {}", col.data_type())))?
            .to_vec();
        let valid = col
            .validity()
            .map(|bm| (0..col.len()).map(|i| bm.get(i)).collect());
        Ok(BoolVec { vals, valid })
    }

    /// Kleene NOT.
    fn not(mut self) -> Self {
        for v in &mut self.vals {
            *v = !*v;
        }
        self
    }

    /// Kleene AND.
    fn and(self, other: BoolVec) -> Self {
        let n = self.len();
        let mut out = BoolVec::new(vec![false; n]);
        for i in 0..n {
            let (lv, ln) = (self.vals[i], !self.is_valid(i));
            let (rv, rn) = (other.vals[i], !other.is_valid(i));
            // F if either side is definitively false; N if unknown remains.
            if (!ln && !lv) || (!rn && !rv) {
                out.vals[i] = false;
            } else if ln || rn {
                out.set_invalid(i);
            } else {
                out.vals[i] = true;
            }
        }
        out
    }

    /// Kleene OR.
    fn or(self, other: BoolVec) -> Self {
        let n = self.len();
        let mut out = BoolVec::new(vec![false; n]);
        for i in 0..n {
            let (lv, ln) = (self.vals[i], !self.is_valid(i));
            let (rv, rn) = (other.vals[i], !other.is_valid(i));
            if (!ln && lv) || (!rn && rv) {
                out.vals[i] = true;
            } else if ln || rn {
                out.set_invalid(i);
            } else {
                out.vals[i] = false;
            }
        }
        out
    }
}

/// Evaluate `expr` over `chunk`, producing one output column.
pub fn eval(expr: &Expr, chunk: &Chunk, layout: &Layout) -> Result<Column> {
    eval_ref(expr, chunk, layout).map(Cow::into_owned)
}

/// [`eval`] that reads a bare column reference in place: the input column
/// is borrowed, not copied. Any other expression computes a new column.
pub fn eval_ref<'a>(expr: &Expr, chunk: &'a Chunk, layout: &Layout) -> Result<Cow<'a, Column>> {
    match expr {
        Expr::Column(id) => {
            let slot = layout
                .slot_of(*id)
                .ok_or_else(|| BfqError::internal(format!("column {id} not present in layout")))?;
            Ok(Cow::Borrowed(chunk.column(slot).as_ref()))
        }
        _ => eval_computed(expr, chunk, layout).map(Cow::Owned),
    }
}

/// Evaluate an expression other than a bare column reference. Operands
/// are read through [`eval_ref`], so column inputs are never copied.
fn eval_computed(expr: &Expr, chunk: &Chunk, layout: &Layout) -> Result<Column> {
    let rows = chunk.rows();
    match expr {
        Expr::Column(_) => unreachable!("bare columns are read by eval_ref"),
        Expr::Literal(d) => broadcast_literal(d, rows),
        Expr::Param(i) => Err(BfqError::Execution(format!(
            "unbound parameter ${} (bind values before executing)",
            i + 1
        ))),
        Expr::Binary { op, left, right } => {
            if op.is_logical() {
                let l = BoolVec::from_column(&*eval_ref(left, chunk, layout)?)?;
                let r = BoolVec::from_column(&*eval_ref(right, chunk, layout)?)?;
                let out = match op {
                    BinOp::And => l.and(r),
                    BinOp::Or => l.or(r),
                    _ => unreachable!(),
                };
                Ok(out.into_column())
            } else if op.is_comparison() {
                let l = eval_ref(left, chunk, layout)?;
                let r = eval_ref(right, chunk, layout)?;
                Ok(compare_columns(*op, &l, &r)?.into_column())
            } else {
                let l = eval_ref(left, chunk, layout)?;
                let r = eval_ref(right, chunk, layout)?;
                arith_columns(*op, &l, &r)
            }
        }
        Expr::Unary { op, expr } => match op {
            UnOp::Not => {
                let v = BoolVec::from_column(&*eval_ref(expr, chunk, layout)?)?;
                Ok(v.not().into_column())
            }
            UnOp::Neg => {
                let c = eval_ref(expr, chunk, layout)?;
                negate_column(&c)
            }
            UnOp::IsNull | UnOp::IsNotNull => {
                let c = eval_ref(expr, chunk, layout)?;
                let want_null = matches!(op, UnOp::IsNull);
                let vals = (0..c.len()).map(|i| c.is_null(i) == want_null).collect();
                Ok(Column::Bool(vals, None))
            }
        },
        Expr::Between {
            expr: e,
            low,
            high,
            negated,
        } => {
            let v = eval_ref(e, chunk, layout)?;
            let lo = eval_ref(low, chunk, layout)?;
            let hi = eval_ref(high, chunk, layout)?;
            let ge = compare_columns(BinOp::GtEq, &v, &lo)?;
            let le = compare_columns(BinOp::LtEq, &v, &hi)?;
            let mut out = ge.and(le);
            if *negated {
                out = out.not();
            }
            Ok(out.into_column())
        }
        Expr::InList {
            expr: e,
            list,
            negated,
        } => {
            let v = eval_ref(e, chunk, layout)?;
            let mut acc: Option<BoolVec> = None;
            for item in list {
                let iv = eval_ref(item, chunk, layout)?;
                let eq = compare_columns(BinOp::Eq, &v, &iv)?;
                acc = Some(match acc {
                    None => eq,
                    Some(a) => a.or(eq),
                });
            }
            let mut out = acc.unwrap_or_else(|| BoolVec::new(vec![false; rows]));
            if *negated {
                out = out.not();
            }
            Ok(out.into_column())
        }
        Expr::Like {
            expr: e,
            pattern,
            negated,
        } => {
            let c = eval_ref(e, chunk, layout)?;
            let s = c
                .as_str()
                .ok_or_else(|| BfqError::Type("LIKE requires a string operand".into()))?;
            let mut out = BoolVec::new(vec![false; rows]);
            for i in 0..rows {
                if c.is_null(i) {
                    out.set_invalid(i);
                } else {
                    let m = like_match(s.get(i), pattern);
                    out.vals[i] = m != *negated;
                }
            }
            Ok(out.into_column())
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            let conds: Vec<BoolVec> = branches
                .iter()
                .map(|(c, _)| BoolVec::from_column(&*eval_ref(c, chunk, layout)?))
                .collect::<Result<_>>()?;
            let vals: Vec<Cow<Column>> = branches
                .iter()
                .map(|(_, v)| eval_ref(v, chunk, layout))
                .collect::<Result<_>>()?;
            let else_col = match else_expr {
                Some(e) => Some(eval_ref(e, chunk, layout)?),
                None => None,
            };
            let out_type = vals
                .first()
                .map(|c| c.data_type())
                .or(else_col.as_ref().map(|c| c.data_type()))
                .ok_or_else(|| BfqError::Type("CASE with no branches".into()))?;
            let mut builder = ColumnBuilder::with_capacity(out_type, rows);
            for i in 0..rows {
                let mut chosen: Option<Datum> = None;
                for (cond, val) in conds.iter().zip(&vals) {
                    if cond.is_valid(i) && cond.vals[i] {
                        chosen = Some(val.get(i));
                        break;
                    }
                }
                let datum = chosen
                    .unwrap_or_else(|| else_col.as_ref().map(|c| c.get(i)).unwrap_or(Datum::Null));
                builder.push_datum(&datum)?;
            }
            Ok(builder.finish())
        }
        Expr::ExtractYear(e) => extract_date_part(e, chunk, layout, date::year_of),
        Expr::ExtractMonth(e) => extract_date_part(e, chunk, layout, |d| date::month_of(d) as i32),
        Expr::Substring {
            expr: e,
            start,
            len,
        } => {
            let c = eval_ref(e, chunk, layout)?;
            let s = c
                .as_str()
                .ok_or_else(|| BfqError::Type("SUBSTRING requires a string operand".into()))?;
            let mut out = StrData::with_capacity(rows, *len);
            for i in 0..rows {
                let text = s.get(i);
                let piece: String = text
                    .chars()
                    .skip(start.saturating_sub(1))
                    .take(*len)
                    .collect();
                out.push(&piece);
            }
            Ok(Column::Utf8(out, c.validity().cloned()))
        }
    }
}

fn extract_date_part(
    e: &Expr,
    chunk: &Chunk,
    layout: &Layout,
    part: impl Fn(i32) -> i32,
) -> Result<Column> {
    let c = eval_ref(e, chunk, layout)?;
    let days = c
        .as_date()
        .ok_or_else(|| BfqError::Type("EXTRACT requires a date operand".into()))?;
    let vals: Vec<i64> = days.iter().map(|&d| part(d) as i64).collect();
    let validity = c.validity().cloned();
    Ok(Column::Int64(vals, validity))
}

/// Evaluate a predicate to a selection vector of rows where it is TRUE.
pub fn eval_predicate(expr: &Expr, chunk: &Chunk, layout: &Layout) -> Result<Vec<u32>> {
    // `col <op> literal` on Int64/Date never needs the materialized Bool
    // column: compact the selection vector straight off the typed values.
    if let Some(sel) = eval_predicate_fast(expr, chunk, layout) {
        return Ok(sel);
    }
    let col = eval_ref(expr, chunk, layout)?;
    let vals = col
        .as_bool()
        .ok_or_else(|| BfqError::Type(format!("predicate has type {}", col.data_type())))?;
    let mut sel = Vec::new();
    match col.validity() {
        None => {
            for (i, &v) in vals.iter().enumerate() {
                if v {
                    sel.push(i as u32);
                }
            }
        }
        Some(bm) => {
            for (i, &v) in vals.iter().enumerate() {
                if v && bm.get(i) {
                    sel.push(i as u32);
                }
            }
        }
    }
    Ok(sel)
}

/// The comparison with its operands swapped: `lit <op> col` ≡ `col <mirror(op)> lit`.
fn mirror_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        other => other, // Eq / NotEq are symmetric
    }
}

/// Fast path for `col <op> literal` (either operand order) on Int64 and
/// Date columns: a branch-free selection-vector compaction over the typed
/// values, mirroring the Bloom probe kernel contract — no Bool column, no
/// per-row branch, one comparison per element that LLVM can vectorize.
/// Returns `None` whenever the expression shape or types don't fit; the
/// general three-valued-logic path handles those.
fn eval_predicate_fast(expr: &Expr, chunk: &Chunk, layout: &Layout) -> Option<Vec<u32>> {
    let Expr::Binary { op, left, right } = expr else {
        return None;
    };
    if !op.is_comparison() {
        return None;
    }
    let (col_id, lit, op) = match (left.as_ref(), right.as_ref()) {
        (Expr::Column(c), Expr::Literal(d)) => (*c, d, *op),
        (Expr::Literal(d), Expr::Column(c)) => (*c, d, mirror_cmp(*op)),
        _ => return None,
    };
    let col: &Column = chunk.column(layout.slot_of(col_id)?);
    // Same-type comparisons only: cross-type pairs go through the general
    // numeric view, and a NULL literal never selects anything but must
    // still produce SQL NULL semantics upstream — both stay on the slow
    // path.
    match (col, lit) {
        (Column::Int64(vals, _), Datum::Int(k)) => Some(cmp_sel(vals, col.validity(), op, *k)),
        (Column::Date(vals, _), Datum::Date(k)) => Some(cmp_sel(vals, col.validity(), op, *k)),
        _ => None,
    }
}

/// Compact row indices where `vals[i] <op> lit` holds (and the row is
/// valid) into a fresh selection vector. The operator dispatch happens
/// once, outside the loop; each loop body is a write-always/advance-
/// conditionally compaction with no data-dependent branch.
fn cmp_sel<T: Copy + PartialOrd>(
    vals: &[T],
    validity: Option<&Bitmap>,
    op: BinOp,
    lit: T,
) -> Vec<u32> {
    #[inline]
    fn compact<T: Copy>(
        vals: &[T],
        validity: Option<&Bitmap>,
        pred: impl Fn(T) -> bool,
    ) -> Vec<u32> {
        let mut sel = vec![0u32; vals.len()];
        let mut k = 0usize;
        match validity {
            None => {
                for (i, &v) in vals.iter().enumerate() {
                    sel[k] = i as u32;
                    k += pred(v) as usize;
                }
            }
            Some(bm) => {
                for (i, &v) in vals.iter().enumerate() {
                    sel[k] = i as u32;
                    k += (pred(v) & bm.get(i)) as usize;
                }
            }
        }
        sel.truncate(k);
        sel
    }
    match op {
        BinOp::Eq => compact(vals, validity, |v| v == lit),
        BinOp::NotEq => compact(vals, validity, |v| v != lit),
        BinOp::Lt => compact(vals, validity, |v| v < lit),
        BinOp::LtEq => compact(vals, validity, |v| v <= lit),
        BinOp::Gt => compact(vals, validity, |v| v > lit),
        BinOp::GtEq => compact(vals, validity, |v| v >= lit),
        _ => unreachable!("not a comparison"),
    }
}

fn broadcast_literal(d: &Datum, rows: usize) -> Result<Column> {
    Ok(match d {
        Datum::Null => Column::nulls(DataType::Int64, rows),
        Datum::Int(v) => Column::Int64(vec![*v; rows], None),
        Datum::Float(v) => Column::Float64(vec![*v; rows], None),
        Datum::Bool(b) => Column::Bool(vec![*b; rows], None),
        Datum::Date(v) => Column::Date(vec![*v; rows], None),
        Datum::Str(s) => {
            let mut sd = StrData::with_capacity(rows, s.len());
            for _ in 0..rows {
                sd.push(s);
            }
            Column::Utf8(sd, None)
        }
    })
}

fn cmp_matches(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::NotEq => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::LtEq => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::GtEq => ord != Ordering::Less,
        _ => unreachable!("not a comparison"),
    }
}

fn compare_columns(op: BinOp, l: &Column, r: &Column) -> Result<BoolVec> {
    let n = l.len();
    if r.len() != n {
        return Err(BfqError::internal("comparison arity mismatch"));
    }
    let mut out = BoolVec::new(vec![false; n]);
    // Fast paths by type pair; fall back to datum comparison otherwise.
    match (l, r) {
        (Column::Utf8(ls, _), Column::Utf8(rs, _)) => {
            for i in 0..n {
                if l.is_null(i) || r.is_null(i) {
                    out.set_invalid(i);
                } else {
                    out.vals[i] = cmp_matches(op, ls.get(i).cmp(rs.get(i)));
                }
            }
        }
        (Column::Int64(lv, _), Column::Int64(rv, _)) => {
            for i in 0..n {
                if l.is_null(i) || r.is_null(i) {
                    out.set_invalid(i);
                } else {
                    out.vals[i] = cmp_matches(op, lv[i].cmp(&rv[i]));
                }
            }
        }
        (Column::Date(lv, _), Column::Date(rv, _)) => {
            for i in 0..n {
                if l.is_null(i) || r.is_null(i) {
                    out.set_invalid(i);
                } else {
                    out.vals[i] = cmp_matches(op, lv[i].cmp(&rv[i]));
                }
            }
        }
        _ => {
            // Numeric cross-type comparison on the f64 axis, or error.
            let lf = numeric_view(l)?;
            let rf = numeric_view(r)?;
            for i in 0..n {
                if l.is_null(i) || r.is_null(i) {
                    out.set_invalid(i);
                } else {
                    let ord = lf(i).partial_cmp(&rf(i)).unwrap_or(Ordering::Equal);
                    out.vals[i] = cmp_matches(op, ord);
                }
            }
        }
    }
    Ok(out)
}

type NumView<'a> = Box<dyn Fn(usize) -> f64 + 'a>;

fn numeric_view(c: &Column) -> Result<NumView<'_>> {
    match c {
        Column::Int64(v, _) => Ok(Box::new(move |i| v[i] as f64)),
        Column::Float64(v, _) => Ok(Box::new(move |i| v[i])),
        Column::Date(v, _) => Ok(Box::new(move |i| v[i] as f64)),
        Column::Bool(v, _) => Ok(Box::new(move |i| v[i] as u8 as f64)),
        Column::Utf8(..) => Err(BfqError::Type(
            "cannot compare a string with a numeric value".into(),
        )),
    }
}

fn merged_validity(l: &Column, r: &Column, extra_null: impl Fn(usize) -> bool) -> Option<Bitmap> {
    let n = l.len();
    let any = l.validity().is_some() || r.validity().is_some() || (0..n).any(&extra_null);
    if !any {
        return None;
    }
    Some(Bitmap::from_bools(
        (0..n).map(|i| !l.is_null(i) && !r.is_null(i) && !extra_null(i)),
    ))
}

fn arith_columns(op: BinOp, l: &Column, r: &Column) -> Result<Column> {
    let n = l.len();
    if r.len() != n {
        return Err(BfqError::internal("arithmetic arity mismatch"));
    }
    let (lt, rt) = (l.data_type(), r.data_type());
    // Date arithmetic.
    if lt == DataType::Date || rt == DataType::Date {
        return date_arith(op, l, r);
    }
    if !lt.is_numeric() || !rt.is_numeric() {
        return Err(BfqError::Type(format!(
            "arithmetic on non-numeric types {lt} {op} {rt}"
        )));
    }
    if op == BinOp::Div {
        let lf = numeric_view(l)?;
        let rf = numeric_view(r)?;
        let vals: Vec<f64> = (0..n)
            .map(|i| {
                let d = rf(i);
                if d == 0.0 {
                    0.0
                } else {
                    lf(i) / d
                }
            })
            .collect();
        let validity = merged_validity(l, r, |i| rf(i) == 0.0);
        return Ok(Column::Float64(vals, validity));
    }
    if lt == DataType::Float64 || rt == DataType::Float64 {
        let lf = numeric_view(l)?;
        let rf = numeric_view(r)?;
        let vals: Vec<f64> = (0..n)
            .map(|i| match op {
                BinOp::Plus => lf(i) + rf(i),
                BinOp::Minus => lf(i) - rf(i),
                BinOp::Mul => lf(i) * rf(i),
                _ => unreachable!(),
            })
            .collect();
        Ok(Column::Float64(vals, merged_validity(l, r, |_| false)))
    } else {
        let lv = l.as_i64().expect("int column");
        let rv = r.as_i64().expect("int column");
        let vals: Vec<i64> = (0..n)
            .map(|i| match op {
                BinOp::Plus => lv[i].wrapping_add(rv[i]),
                BinOp::Minus => lv[i].wrapping_sub(rv[i]),
                BinOp::Mul => lv[i].wrapping_mul(rv[i]),
                _ => unreachable!(),
            })
            .collect();
        Ok(Column::Int64(vals, merged_validity(l, r, |_| false)))
    }
}

fn date_arith(op: BinOp, l: &Column, r: &Column) -> Result<Column> {
    let n = l.len();
    let validity = merged_validity(l, r, |_| false);
    match (l, r, op) {
        (Column::Date(lv, _), Column::Date(rv, _), BinOp::Minus) => {
            let vals: Vec<i64> = (0..n).map(|i| (lv[i] - rv[i]) as i64).collect();
            Ok(Column::Int64(vals, validity))
        }
        (Column::Date(lv, _), Column::Int64(rv, _), BinOp::Plus) => {
            let vals: Vec<i32> = (0..n).map(|i| lv[i] + rv[i] as i32).collect();
            Ok(Column::Date(vals, validity))
        }
        (Column::Date(lv, _), Column::Int64(rv, _), BinOp::Minus) => {
            let vals: Vec<i32> = (0..n).map(|i| lv[i] - rv[i] as i32).collect();
            Ok(Column::Date(vals, validity))
        }
        (Column::Int64(lv, _), Column::Date(rv, _), BinOp::Plus) => {
            let vals: Vec<i32> = (0..n).map(|i| lv[i] as i32 + rv[i]).collect();
            Ok(Column::Date(vals, validity))
        }
        _ => Err(BfqError::Type(format!(
            "unsupported date arithmetic {} {op} {}",
            l.data_type(),
            r.data_type()
        ))),
    }
}

fn negate_column(c: &Column) -> Result<Column> {
    match c {
        Column::Int64(v, val) => Ok(Column::Int64(v.iter().map(|x| -x).collect(), val.clone())),
        Column::Float64(v, val) => Ok(Column::Float64(v.iter().map(|x| -x).collect(), val.clone())),
        _ => Err(BfqError::Type(format!("cannot negate {}", c.data_type()))),
    }
}

/// Scalar binary evaluation used by constant folding and the binder.
pub fn scalar_binary(op: BinOp, l: &Datum, r: &Datum) -> Result<Datum> {
    if l.is_null() || r.is_null() {
        return Ok(Datum::Null);
    }
    if op.is_comparison() {
        let ord = l
            .sql_cmp(r)
            .ok_or_else(|| BfqError::Type(format!("cannot compare {l} with {r}")))?;
        return Ok(Datum::Bool(cmp_matches(op, ord)));
    }
    match op {
        BinOp::And | BinOp::Or => {
            let (a, b) = (
                l.as_bool()
                    .ok_or_else(|| BfqError::Type("AND/OR on non-bool".into()))?,
                r.as_bool()
                    .ok_or_else(|| BfqError::Type("AND/OR on non-bool".into()))?,
            );
            Ok(Datum::Bool(if op == BinOp::And { a && b } else { a || b }))
        }
        _ => match (l, r) {
            (Datum::Int(a), Datum::Int(b)) => Ok(match op {
                BinOp::Plus => Datum::Int(a.wrapping_add(*b)),
                BinOp::Minus => Datum::Int(a.wrapping_sub(*b)),
                BinOp::Mul => Datum::Int(a.wrapping_mul(*b)),
                BinOp::Div => {
                    if *b == 0 {
                        Datum::Null
                    } else {
                        Datum::Float(*a as f64 / *b as f64)
                    }
                }
                _ => unreachable!(),
            }),
            (Datum::Date(a), Datum::Int(b)) => Ok(match op {
                BinOp::Plus => Datum::Date(a + *b as i32),
                BinOp::Minus => Datum::Date(a - *b as i32),
                _ => return Err(BfqError::Type("bad date arithmetic".into())),
            }),
            (Datum::Date(a), Datum::Date(b)) if op == BinOp::Minus => {
                Ok(Datum::Int((*a - *b) as i64))
            }
            _ => {
                let (a, b) = (
                    l.as_f64()
                        .ok_or_else(|| BfqError::Type(format!("arith on {l}")))?,
                    r.as_f64()
                        .ok_or_else(|| BfqError::Type(format!("arith on {r}")))?,
                );
                Ok(match op {
                    BinOp::Plus => Datum::Float(a + b),
                    BinOp::Minus => Datum::Float(a - b),
                    BinOp::Mul => Datum::Float(a * b),
                    BinOp::Div => {
                        if b == 0.0 {
                            Datum::Null
                        } else {
                            Datum::Float(a / b)
                        }
                    }
                    _ => unreachable!(),
                })
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfq_common::TableId;
    use std::sync::Arc as StdArc;

    fn cid(i: u32) -> ColumnId {
        ColumnId::new(TableId(0), i)
    }

    fn test_chunk() -> (Chunk, Layout) {
        let c0 = Column::Int64(vec![1, 2, 3, 4], None);
        let c1 = Column::Float64(vec![10.0, 20.0, 30.0, 40.0], None);
        let c2 = Column::Utf8(
            ["apple", "banana", "cherry", "apricot"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            None,
        );
        let c3 = Column::Date(vec![0, 100, 200, 300], None);
        let chunk = Chunk::new(vec![
            StdArc::new(c0),
            StdArc::new(c1),
            StdArc::new(c2),
            StdArc::new(c3),
        ])
        .unwrap();
        let layout = Layout::new(vec![cid(0), cid(1), cid(2), cid(3)]);
        (chunk, layout)
    }

    #[test]
    fn column_and_literal() {
        let (chunk, layout) = test_chunk();
        let c = eval(&Expr::col(cid(0)), &chunk, &layout).unwrap();
        assert_eq!(c.as_i64(), Some(&[1i64, 2, 3, 4][..]));
        let l = eval(&Expr::int(7), &chunk, &layout).unwrap();
        assert_eq!(l.as_i64(), Some(&[7i64, 7, 7, 7][..]));
        assert!(eval(&Expr::col(ColumnId::new(TableId(9), 0)), &chunk, &layout).is_err());
    }

    #[test]
    fn comparisons_and_predicates() {
        let (chunk, layout) = test_chunk();
        let pred = Expr::binary(BinOp::Gt, Expr::col(cid(0)), Expr::int(2));
        assert_eq!(eval_predicate(&pred, &chunk, &layout).unwrap(), vec![2, 3]);
        // Cross-type: int column > float literal.
        let pred = Expr::binary(BinOp::GtEq, Expr::col(cid(0)), Expr::lit(Datum::Float(2.5)));
        assert_eq!(eval_predicate(&pred, &chunk, &layout).unwrap(), vec![2, 3]);
        // String comparison.
        let pred = Expr::binary(
            BinOp::Lt,
            Expr::col(cid(2)),
            Expr::lit(Datum::str("banana")),
        );
        assert_eq!(eval_predicate(&pred, &chunk, &layout).unwrap(), vec![0, 3]);
        // String vs numeric errors.
        let bad = Expr::binary(BinOp::Lt, Expr::col(cid(2)), Expr::int(1));
        assert!(eval(&bad, &chunk, &layout).is_err());
    }

    #[test]
    fn predicate_fast_path_matches_general_path() {
        // Nullable Int64 column so the fast path's validity handling is
        // exercised; general path computed by evaluating the Bool column.
        let vals: Vec<i64> = (0..100).map(|i| (i * 7) % 23).collect();
        let validity = Bitmap::from_bools((0..100).map(|i| i % 9 != 0).collect::<Vec<_>>());
        let dates: Vec<i32> = (0..100).map(|i| (i * 3) % 41).collect();
        let chunk = Chunk::new(vec![
            StdArc::new(Column::Int64(vals, Some(validity.clone()))),
            StdArc::new(Column::Date(dates, Some(validity))),
        ])
        .unwrap();
        let layout = Layout::new(vec![cid(0), cid(1)]);
        let general = |pred: &Expr| -> Vec<u32> {
            let col = eval(pred, &chunk, &layout).unwrap();
            let vals = col.as_bool().unwrap();
            (0..vals.len() as u32)
                .filter(|&i| vals[i as usize] && !col.is_null(i as usize))
                .collect()
        };
        for op in [
            BinOp::Eq,
            BinOp::NotEq,
            BinOp::Lt,
            BinOp::LtEq,
            BinOp::Gt,
            BinOp::GtEq,
        ] {
            let pred = Expr::binary(op, Expr::col(cid(0)), Expr::int(11));
            assert_eq!(
                eval_predicate(&pred, &chunk, &layout).unwrap(),
                general(&pred),
                "int64 {op:?}"
            );
            // Flipped operand order takes the mirrored fast path.
            let flipped = Expr::binary(op, Expr::int(11), Expr::col(cid(0)));
            assert_eq!(
                eval_predicate(&flipped, &chunk, &layout).unwrap(),
                general(&flipped),
                "flipped {op:?}"
            );
            let dpred = Expr::binary(op, Expr::col(cid(1)), Expr::lit(Datum::Date(20)));
            assert_eq!(
                eval_predicate(&dpred, &chunk, &layout).unwrap(),
                general(&dpred),
                "date {op:?}"
            );
        }
        // A NULL literal stays on the general path and selects nothing.
        let pred = Expr::binary(BinOp::Eq, Expr::col(cid(0)), Expr::lit(Datum::Null));
        assert!(eval_predicate_fast(&pred, &chunk, &layout).is_none());
        assert!(eval_predicate(&pred, &chunk, &layout).unwrap().is_empty());
    }

    #[test]
    fn arithmetic_types() {
        let (chunk, layout) = test_chunk();
        let e = Expr::binary(BinOp::Plus, Expr::col(cid(0)), Expr::int(10));
        assert_eq!(
            eval(&e, &chunk, &layout).unwrap().as_i64(),
            Some(&[11i64, 12, 13, 14][..])
        );
        let e = Expr::binary(BinOp::Mul, Expr::col(cid(1)), Expr::lit(Datum::Float(0.5)));
        assert_eq!(
            eval(&e, &chunk, &layout).unwrap().as_f64(),
            Some(&[5.0, 10.0, 15.0, 20.0][..])
        );
        // Int / Int is float.
        let e = Expr::binary(BinOp::Div, Expr::col(cid(0)), Expr::int(2));
        let c = eval(&e, &chunk, &layout).unwrap();
        assert_eq!(c.data_type(), DataType::Float64);
        assert_eq!(c.as_f64().unwrap()[1], 1.0);
    }

    #[test]
    fn division_by_zero_is_null() {
        let (chunk, layout) = test_chunk();
        let e = Expr::binary(BinOp::Div, Expr::col(cid(0)), Expr::int(0));
        let c = eval(&e, &chunk, &layout).unwrap();
        assert!(c.is_null(0) && c.is_null(3));
    }

    #[test]
    fn date_arithmetic() {
        let (chunk, layout) = test_chunk();
        let e = Expr::binary(BinOp::Plus, Expr::col(cid(3)), Expr::int(5));
        let c = eval(&e, &chunk, &layout).unwrap();
        assert_eq!(c.data_type(), DataType::Date);
        assert_eq!(c.as_date().unwrap()[1], 105);
        let e = Expr::binary(BinOp::Minus, Expr::col(cid(3)), Expr::col(cid(3)));
        let c = eval(&e, &chunk, &layout).unwrap();
        assert_eq!(c.data_type(), DataType::Int64);
        assert_eq!(c.as_i64().unwrap(), &[0, 0, 0, 0]);
    }

    #[test]
    fn between_in_like() {
        let (chunk, layout) = test_chunk();
        let between = Expr::Between {
            expr: Box::new(Expr::col(cid(0))),
            low: Box::new(Expr::int(2)),
            high: Box::new(Expr::int(3)),
            negated: false,
        };
        assert_eq!(
            eval_predicate(&between, &chunk, &layout).unwrap(),
            vec![1, 2]
        );
        let not_between = Expr::Between {
            expr: Box::new(Expr::col(cid(0))),
            low: Box::new(Expr::int(2)),
            high: Box::new(Expr::int(3)),
            negated: true,
        };
        assert_eq!(
            eval_predicate(&not_between, &chunk, &layout).unwrap(),
            vec![0, 3]
        );
        let inlist = Expr::InList {
            expr: Box::new(Expr::col(cid(2))),
            list: vec![
                Expr::lit(Datum::str("apple")),
                Expr::lit(Datum::str("cherry")),
            ],
            negated: false,
        };
        assert_eq!(
            eval_predicate(&inlist, &chunk, &layout).unwrap(),
            vec![0, 2]
        );
        let like = Expr::Like {
            expr: Box::new(Expr::col(cid(2))),
            pattern: "ap%".into(),
            negated: false,
        };
        assert_eq!(eval_predicate(&like, &chunk, &layout).unwrap(), vec![0, 3]);
    }

    #[test]
    fn three_valued_logic() {
        let c0 = Column::Int64(vec![1, 2, 3], Some(Bitmap::from_bools([true, false, true])));
        let chunk = Chunk::new(vec![StdArc::new(c0)]).unwrap();
        let layout = Layout::new(vec![cid(0)]);
        // NULL = 2 is unknown, filtered out.
        let pred = Expr::col(cid(0)).eq(Expr::int(2));
        assert!(eval_predicate(&pred, &chunk, &layout).unwrap().is_empty());
        // x = 1 OR x IS NULL keeps rows 0 and 1.
        let pred = Expr::col(cid(0)).eq(Expr::int(1)).or(Expr::Unary {
            op: UnOp::IsNull,
            expr: Box::new(Expr::col(cid(0))),
        });
        assert_eq!(eval_predicate(&pred, &chunk, &layout).unwrap(), vec![0, 1]);
        // NOT (x = 2): row1 has NULL -> stays unknown -> excluded.
        let pred = Expr::Unary {
            op: UnOp::Not,
            expr: Box::new(Expr::col(cid(0)).eq(Expr::int(2))),
        };
        assert_eq!(eval_predicate(&pred, &chunk, &layout).unwrap(), vec![0, 2]);
    }

    #[test]
    fn case_expression() {
        let (chunk, layout) = test_chunk();
        let e = Expr::Case {
            branches: vec![(
                Expr::binary(BinOp::Lt, Expr::col(cid(0)), Expr::int(3)),
                Expr::int(100),
            )],
            else_expr: Some(Box::new(Expr::int(200))),
        };
        let c = eval(&e, &chunk, &layout).unwrap();
        assert_eq!(c.as_i64(), Some(&[100i64, 100, 200, 200][..]));
        // No ELSE -> NULL.
        let e = Expr::Case {
            branches: vec![(
                Expr::binary(BinOp::Lt, Expr::col(cid(0)), Expr::int(2)),
                Expr::int(1),
            )],
            else_expr: None,
        };
        let c = eval(&e, &chunk, &layout).unwrap();
        assert!(!c.is_null(0) && c.is_null(3));
    }

    #[test]
    fn extract_parts() {
        let (chunk, layout) = test_chunk();
        let y = eval(
            &Expr::ExtractYear(Box::new(Expr::col(cid(3)))),
            &chunk,
            &layout,
        )
        .unwrap();
        assert_eq!(y.as_i64(), Some(&[1970i64, 1970, 1970, 1970][..]));
        let m = eval(
            &Expr::ExtractMonth(Box::new(Expr::col(cid(3)))),
            &chunk,
            &layout,
        )
        .unwrap();
        assert_eq!(m.as_i64(), Some(&[1i64, 4, 7, 10][..]));
    }

    #[test]
    fn scalar_binary_cases() {
        assert_eq!(
            scalar_binary(BinOp::Plus, &Datum::Int(1), &Datum::Int(2)).unwrap(),
            Datum::Int(3)
        );
        assert_eq!(
            scalar_binary(BinOp::Lt, &Datum::Int(1), &Datum::Float(1.5)).unwrap(),
            Datum::Bool(true)
        );
        assert_eq!(
            scalar_binary(BinOp::Plus, &Datum::Date(10), &Datum::Int(5)).unwrap(),
            Datum::Date(15)
        );
        assert_eq!(
            scalar_binary(BinOp::Eq, &Datum::Null, &Datum::Int(1)).unwrap(),
            Datum::Null
        );
        assert!(scalar_binary(BinOp::Plus, &Datum::str("x"), &Datum::Int(1)).is_err());
    }

    #[test]
    fn layout_operations() {
        let l1 = Layout::new(vec![cid(0), cid(1)]);
        let l2 = Layout::new(vec![cid(2)]);
        let both = l1.concat(&l2);
        assert_eq!(both.len(), 3);
        assert_eq!(both.slot_of(cid(2)), Some(2));
        assert!(both.covers(&Expr::col(cid(1)).eq(Expr::col(cid(2)))));
        assert!(!l1.covers(&Expr::col(cid(2)).eq(Expr::int(1))));
    }
}
