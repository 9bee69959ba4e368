//! Hash aggregation with grouping, DISTINCT and HAVING.
//!
//! The kernel is columnar. Each input chunk is processed in two passes:
//!
//! 1. **Group assignment.** The key columns are hashed one column at a
//!    time (seeded, null-aware [`Column::hash_into`] folded with
//!    [`bfq_common::hash::combine`]), then every row is mapped to a dense
//!    group id through a flat open-addressing directory. New groups get
//!    the next id, so ids follow first-seen row order. Group keys live
//!    column by column in typed vectors; the key comparison is typed too
//!    (NULL equals NULL, Int64 and Date share one key space, -0.0 equals
//!    0.0).
//! 2. **Accumulation.** Each aggregate owns one typed accumulator vector
//!    indexed by group id and is updated over the whole chunk's group-id
//!    vector in row order, one aggregate at a time.
//!
//! Because each group's float sum still adds its values in row order, a
//! chunked feed is bit-identical to one feed of the concatenated input.

use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::HashSet;
use std::hash::{BuildHasher, Hasher};

use bfq_common::{BfqError, DataType, Result};
use bfq_expr::{eval_predicate, eval_ref, Expr, Layout};
use bfq_plan::{AggExpr, AggFunc, OutputColumn};
use bfq_storage::{Bitmap, Chunk, Column, StrData};

use crate::util::{hash_columns_into, NormKey};

/// Smallest directory: 8 KiB, so the few groups of a low-cardinality
/// aggregation rarely share a probe sequence.
const MIN_SLOTS: usize = 1024;

/// The high half of a key hash, kept in a directory slot as a tag.
const TAG_MASK: u64 = !0xFFFF_FFFF;

/// The output type of an aggregate given its argument type.
pub fn agg_output_type(func: AggFunc, arg: Option<DataType>) -> DataType {
    match func {
        AggFunc::Count | AggFunc::CountStar => DataType::Int64,
        AggFunc::Avg => DataType::Float64,
        AggFunc::Sum => match arg {
            Some(DataType::Int64) => DataType::Int64,
            _ => DataType::Float64,
        },
        AggFunc::Min | AggFunc::Max => arg.unwrap_or(DataType::Int64),
    }
}

/// Validity bitmap for `nulls`, or `None` when no entry is null (the
/// shape a row-by-row column builder produces).
fn validity_of(nulls: impl Iterator<Item = bool> + Clone) -> Option<Bitmap> {
    nulls
        .clone()
        .any(|n| n)
        .then(|| Bitmap::from_bools(nulls.map(|n| !n)))
}

/// Float key identity: -0.0 and 0.0 are one key, NaNs group by payload.
#[inline]
fn float_key(x: f64) -> u64 {
    if x == 0.0 {
        0
    } else {
        x.to_bits()
    }
}

/// Typed storage of one group-key column.
#[derive(Debug)]
enum KeyVals {
    /// Int64 and Date keys.
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(StrData),
    Bool(Vec<bool>),
}

/// One group-key column: a value per group plus its null flag. NULL
/// groups store the placeholder a column builder writes (0, 0.0, "",
/// false).
#[derive(Debug)]
struct KeyColumn {
    out: DataType,
    vals: KeyVals,
    nulls: Vec<bool>,
}

impl KeyColumn {
    fn new(out: DataType) -> KeyColumn {
        let vals = match out {
            DataType::Int64 | DataType::Date => KeyVals::Int(Vec::new()),
            DataType::Float64 => KeyVals::Float(Vec::new()),
            DataType::Utf8 => KeyVals::Str(StrData::new()),
            DataType::Bool => KeyVals::Bool(Vec::new()),
        };
        KeyColumn {
            out,
            vals,
            nulls: Vec::new(),
        }
    }

    /// Whether `col`'s values fit this key column's storage.
    fn accepts(&self, col: &Column) -> bool {
        matches!(
            (&self.vals, col),
            (KeyVals::Int(_), Column::Int64(..) | Column::Date(..))
                | (KeyVals::Float(_), Column::Float64(..))
                | (KeyVals::Str(_), Column::Utf8(..))
                | (KeyVals::Bool(_), Column::Bool(..))
        )
    }

    /// Append row `row` of `col` as a new group's key.
    fn push(&mut self, col: &Column, row: usize) {
        let null = col.is_null(row);
        self.nulls.push(null);
        match (&mut self.vals, col) {
            (KeyVals::Int(k), Column::Int64(v, _)) => k.push(if null { 0 } else { v[row] }),
            (KeyVals::Int(k), Column::Date(v, _)) => k.push(if null { 0 } else { v[row] as i64 }),
            (KeyVals::Float(k), Column::Float64(v, _)) => k.push(if null { 0.0 } else { v[row] }),
            (KeyVals::Str(k), Column::Utf8(v, _)) => k.push(if null { "" } else { v.get(row) }),
            (KeyVals::Bool(k), Column::Bool(v, _)) => k.push(!null && v[row]),
            _ => unreachable!("key column type checked by KeyColumn::accepts"),
        }
    }

    /// Whether group `g`'s key equals row `row` of `col`.
    #[inline]
    fn eq(&self, g: usize, col: &Column, row: usize) -> bool {
        let null = col.is_null(row);
        if null || self.nulls[g] {
            return null == self.nulls[g];
        }
        match (&self.vals, col) {
            (KeyVals::Int(k), Column::Int64(v, _)) => k[g] == v[row],
            (KeyVals::Int(k), Column::Date(v, _)) => k[g] == v[row] as i64,
            (KeyVals::Float(k), Column::Float64(v, _)) => float_key(k[g]) == float_key(v[row]),
            (KeyVals::Str(k), Column::Utf8(v, _)) => k.get(g) == v.get(row),
            (KeyVals::Bool(k), Column::Bool(v, _)) => k[g] == v[row],
            _ => false,
        }
    }

    fn into_column(self) -> Column {
        let validity = validity_of(self.nulls.iter().copied());
        match (self.vals, self.out) {
            (KeyVals::Int(v), DataType::Date) => {
                Column::Date(v.into_iter().map(|x| x as i32).collect(), validity)
            }
            (KeyVals::Int(v), _) => Column::Int64(v, validity),
            (KeyVals::Float(v), _) => Column::Float64(v, validity),
            (KeyVals::Str(v), _) => Column::Utf8(v, validity),
            (KeyVals::Bool(v), _) => Column::Bool(v, validity),
        }
    }
}

/// The group directory: a flat open-addressing table mapping key hashes
/// to dense group ids, plus the keys of every group stored column by
/// column.
#[derive(Debug)]
struct GroupTable {
    /// Power-of-two directory, linearly probed. A slot holds the key
    /// hash's high half (a tag) and `group + 1` in its low half; 0 is an
    /// empty slot. Allocated zeroed, so untouched slots cost no memory.
    dir: Vec<u64>,
    /// Full key hash of every group (directory regrowth).
    hashes: Vec<u64>,
    keys: Vec<KeyColumn>,
    /// Key-hash seed, random per table. Group ids and output order do
    /// not depend on it; it keeps crafted keys from piling into one probe
    /// sequence, and keeps an input hash-partitioned on the grouping keys
    /// from clustering in the directory.
    seed: u64,
    /// Per-chunk scratch: combined row hashes and one column's hashes.
    row_hashes: Vec<u64>,
    col_hashes: Vec<u64>,
}

impl GroupTable {
    fn new(key_types: &[DataType]) -> GroupTable {
        GroupTable {
            dir: vec![0; MIN_SLOTS],
            hashes: Vec::new(),
            keys: key_types.iter().map(|&t| KeyColumn::new(t)).collect(),
            seed: RandomState::new().build_hasher().finish(),
            row_hashes: Vec::new(),
            col_hashes: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Size the directory for `groups` groups at load ≤ 1/2.
    fn reserve(&mut self, groups: usize) {
        let slots = groups.saturating_mul(2).next_power_of_two().max(MIN_SLOTS);
        if slots > self.dir.len() {
            self.rehash(slots);
        }
    }

    /// Rebuild the directory with `slots` slots from the group hashes.
    fn rehash(&mut self, slots: usize) {
        self.dir = vec![0; slots];
        let mask = slots - 1;
        for (g, &h) in self.hashes.iter().enumerate() {
            let mut s = h as usize & mask;
            while self.dir[s] != 0 {
                s = (s + 1) & mask;
            }
            self.dir[s] = (h & TAG_MASK) | (g as u64 + 1);
        }
    }

    /// Map every row of the key columns `cols` to its group id in `gids`,
    /// opening new groups in first-seen row order.
    fn assign(&mut self, cols: &[&Column], gids: &mut Vec<u32>) {
        let rows = cols.first().map_or(0, |c| c.len());
        let mut hashes = std::mem::take(&mut self.row_hashes);
        hash_columns_into(
            cols.iter().copied(),
            rows,
            self.seed,
            &mut self.col_hashes,
            &mut hashes,
        );
        gids.clear();
        gids.reserve(rows);
        let mut mask = self.dir.len() - 1;
        for (row, &h) in hashes.iter().enumerate() {
            let tag = h & TAG_MASK;
            let mut s = h as usize & mask;
            let g = loop {
                let e = self.dir[s];
                if e == 0 {
                    let g = self.hashes.len();
                    self.hashes.push(h);
                    for (k, col) in self.keys.iter_mut().zip(cols) {
                        k.push(col, row);
                    }
                    self.dir[s] = tag | (g as u64 + 1);
                    if self.hashes.len() * 2 > self.dir.len() {
                        self.rehash(self.dir.len() * 2);
                        mask = self.dir.len() - 1;
                    }
                    break g as u32;
                }
                if e & TAG_MASK == tag {
                    let g = (e as u32 - 1) as usize;
                    if self.keys.iter().zip(cols).all(|(k, c)| k.eq(g, c, row)) {
                        break g as u32;
                    }
                }
                s = (s + 1) & mask;
            };
            gids.push(g);
        }
        self.row_hashes = hashes;
    }
}

/// Candidate values of a MIN/MAX accumulator.
#[derive(Debug)]
enum Extremes {
    /// Int64, Date and Bool arguments.
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<Box<str>>),
}

/// One aggregate's accumulators, a typed vector entry per group.
#[derive(Debug)]
enum Accs {
    /// `COUNT(expr)` and `COUNT(*)`.
    Count(Vec<i64>),
    /// `SUM` of Int64: sum, and whether any non-null value was seen.
    SumInt(Vec<i64>, Vec<bool>),
    /// `SUM` of anything else, as Float64.
    SumFloat(Vec<f64>, Vec<bool>),
    /// `AVG`: float sum and non-null count.
    Avg(Vec<f64>, Vec<i64>),
    /// `MIN`/`MAX`: the current extreme and whether one was seen.
    Extreme {
        max: bool,
        out: DataType,
        vals: Extremes,
        seen: Vec<bool>,
    },
}

/// Call `f(group, value)` for every non-null row, in row order.
#[inline]
fn for_valid<T: Copy>(
    vals: &[T],
    validity: Option<&Bitmap>,
    gids: &[u32],
    mut f: impl FnMut(usize, T),
) {
    match validity {
        None => {
            for (&g, &v) in gids.iter().zip(vals) {
                f(g as usize, v);
            }
        }
        Some(bm) => {
            for (i, (&g, &v)) in gids.iter().zip(vals).enumerate() {
                if bm.get(i) {
                    f(g as usize, v);
                }
            }
        }
    }
}

/// [`for_valid`] over the integer view of a column (Int64 and Date);
/// other column types contribute nothing.
#[inline]
fn for_i64(col: &Column, gids: &[u32], mut f: impl FnMut(usize, i64)) {
    match col {
        Column::Int64(v, val) => for_valid(v, val.as_ref(), gids, f),
        Column::Date(v, val) => for_valid(v, val.as_ref(), gids, |g, x| f(g, x as i64)),
        _ => {}
    }
}

/// [`for_valid`] over the numeric `f64` view of a column (Int64, Float64
/// and Date); other column types contribute nothing.
#[inline]
fn for_f64(col: &Column, gids: &[u32], mut f: impl FnMut(usize, f64)) {
    match col {
        Column::Float64(v, val) => for_valid(v, val.as_ref(), gids, f),
        Column::Int64(v, val) => for_valid(v, val.as_ref(), gids, |g, x| f(g, x as f64)),
        Column::Date(v, val) => for_valid(v, val.as_ref(), gids, |g, x| f(g, x as f64)),
        _ => {}
    }
}

/// Whether `x` replaces the current extreme `cur`. Incomparable values
/// (NaN) never replace, so the first value seen stands.
#[inline]
fn beats<T: PartialOrd + ?Sized>(max: bool, x: &T, cur: &T) -> bool {
    if max {
        x > cur
    } else {
        x < cur
    }
}

/// Offer `x` to group `g`'s extreme.
#[inline]
fn offer<T: PartialOrd>(max: bool, vals: &mut [T], seen: &mut [bool], g: usize, x: T) {
    if !seen[g] || beats(max, &x, &vals[g]) {
        vals[g] = x;
        seen[g] = true;
    }
}

/// Offer another partial's extremes to the groups `map` sends them to,
/// skipping the groups it never saw a value for.
fn merge_extremes<T: PartialOrd>(
    max: bool,
    vals: &mut [T],
    seen: &mut [bool],
    map: &[u32],
    other: Vec<T>,
    other_seen: Vec<bool>,
) {
    for ((&d, x), live) in map.iter().zip(other).zip(other_seen) {
        if live {
            offer(max, vals, seen, d as usize, x);
        }
    }
}

impl Accs {
    fn new(func: AggFunc, out: DataType) -> Accs {
        match func {
            AggFunc::Count | AggFunc::CountStar => Accs::Count(Vec::new()),
            AggFunc::Sum if out == DataType::Int64 => Accs::SumInt(Vec::new(), Vec::new()),
            AggFunc::Sum => Accs::SumFloat(Vec::new(), Vec::new()),
            AggFunc::Avg => Accs::Avg(Vec::new(), Vec::new()),
            AggFunc::Min | AggFunc::Max => Accs::Extreme {
                max: func == AggFunc::Max,
                out,
                vals: match out {
                    DataType::Float64 => Extremes::Float(Vec::new()),
                    DataType::Utf8 => Extremes::Str(Vec::new()),
                    DataType::Int64 | DataType::Date | DataType::Bool => Extremes::Int(Vec::new()),
                },
                seen: Vec::new(),
            },
        }
    }

    /// Grow to `groups` entries; new groups start empty.
    fn resize(&mut self, groups: usize) {
        match self {
            Accs::Count(n) => n.resize(groups, 0),
            Accs::SumInt(s, seen) => {
                s.resize(groups, 0);
                seen.resize(groups, false);
            }
            Accs::SumFloat(s, seen) => {
                s.resize(groups, 0.0);
                seen.resize(groups, false);
            }
            Accs::Avg(s, n) => {
                s.resize(groups, 0.0);
                n.resize(groups, 0);
            }
            Accs::Extreme { vals, seen, .. } => {
                seen.resize(groups, false);
                match vals {
                    Extremes::Int(v) => v.resize(groups, 0),
                    Extremes::Float(v) => v.resize(groups, 0.0),
                    Extremes::Str(v) => v.resize(groups, Box::from("")),
                }
            }
        }
    }

    /// Fold one chunk: row `i` of `arg` (absent for `COUNT(*)`) goes to
    /// group `gids[i]`, in row order.
    fn update(&mut self, arg: Option<&Column>, gids: &[u32]) -> Result<()> {
        match (self, arg) {
            (Accs::Count(n), arg) => match arg.and_then(Column::validity) {
                None => {
                    for &g in gids {
                        n[g as usize] += 1;
                    }
                }
                Some(bm) => {
                    for (i, &g) in gids.iter().enumerate() {
                        n[g as usize] += bm.get(i) as i64;
                    }
                }
            },
            // Only COUNT(*) has no argument.
            (_, None) => {}
            (Accs::SumInt(s, seen), Some(col)) => for_i64(col, gids, |g, x| {
                s[g] = s[g].wrapping_add(x);
                seen[g] = true;
            }),
            (Accs::SumFloat(s, seen), Some(col)) => for_f64(col, gids, |g, x| {
                s[g] += x;
                seen[g] = true;
            }),
            (Accs::Avg(s, n), Some(col)) => for_f64(col, gids, |g, x| {
                s[g] += x;
                n[g] += 1;
            }),
            (
                Accs::Extreme {
                    max,
                    out,
                    vals,
                    seen,
                },
                Some(col),
            ) => {
                let max = *max;
                match (vals, col) {
                    (Extremes::Int(v), Column::Int64(..) | Column::Date(..)) => {
                        for_i64(col, gids, |g, x| offer(max, v, seen, g, x))
                    }
                    (Extremes::Int(v), Column::Bool(b, val)) => {
                        for_valid(b, val.as_ref(), gids, |g, x| {
                            offer(max, v, seen, g, x as i64)
                        })
                    }
                    (Extremes::Float(v), Column::Float64(f, val)) => {
                        for_valid(f, val.as_ref(), gids, |g, x| offer(max, v, seen, g, x))
                    }
                    (Extremes::Str(v), Column::Utf8(strs, _)) => {
                        // Strings compare row by row and allocate only when
                        // a group's extreme changes.
                        for (i, &g) in gids.iter().enumerate() {
                            let g = g as usize;
                            if col.is_null(i) {
                                continue;
                            }
                            let x = strs.get(i);
                            if !seen[g] || beats(max, x, &*v[g]) {
                                v[g] = Box::from(x);
                                seen[g] = true;
                            }
                        }
                    }
                    _ => {
                        return Err(BfqError::Type(format!(
                            "cannot aggregate {} values into a {out} MIN/MAX",
                            col.data_type()
                        )))
                    }
                }
            }
        }
        Ok(())
    }

    /// Fold another partial's accumulators in: `other`'s group `g` lands
    /// on this state's group `map[g]`. Float sums reassociate (the sum of
    /// the partial sums).
    fn merge(&mut self, other: Accs, map: &[u32]) {
        match (self, other) {
            (Accs::Count(n), Accs::Count(m)) => {
                for (&d, m) in map.iter().zip(m) {
                    n[d as usize] += m;
                }
            }
            (Accs::SumInt(s, seen), Accs::SumInt(t, o)) => {
                for ((&d, t), o) in map.iter().zip(t).zip(o) {
                    s[d as usize] = s[d as usize].wrapping_add(t);
                    seen[d as usize] |= o;
                }
            }
            (Accs::SumFloat(s, seen), Accs::SumFloat(t, o)) => {
                for ((&d, t), o) in map.iter().zip(t).zip(o) {
                    s[d as usize] += t;
                    seen[d as usize] |= o;
                }
            }
            (Accs::Avg(s, n), Accs::Avg(t, m)) => {
                for ((&d, t), m) in map.iter().zip(t).zip(m) {
                    s[d as usize] += t;
                    n[d as usize] += m;
                }
            }
            (
                Accs::Extreme {
                    max, vals, seen, ..
                },
                Accs::Extreme {
                    vals: ovals,
                    seen: oseen,
                    ..
                },
            ) => {
                let max = *max;
                match (vals, ovals) {
                    (Extremes::Int(v), Extremes::Int(o)) => {
                        merge_extremes(max, v, seen, map, o, oseen)
                    }
                    (Extremes::Float(v), Extremes::Float(o)) => {
                        merge_extremes(max, v, seen, map, o, oseen)
                    }
                    (Extremes::Str(v), Extremes::Str(o)) => {
                        merge_extremes(max, v, seen, map, o, oseen)
                    }
                    _ => debug_assert!(false, "merging mismatched accumulators"),
                }
            }
            _ => debug_assert!(false, "merging mismatched accumulators"),
        }
    }

    /// The finished aggregate column, one row per group.
    fn into_column(self) -> Column {
        match self {
            Accs::Count(n) => Column::Int64(n, None),
            Accs::SumInt(s, seen) => Column::Int64(s, validity_of(seen.iter().map(|s| !s))),
            Accs::SumFloat(s, seen) => Column::Float64(s, validity_of(seen.iter().map(|s| !s))),
            Accs::Avg(s, n) => {
                let vals = s
                    .iter()
                    .zip(&n)
                    .map(|(&s, &n)| if n == 0 { 0.0 } else { s / n as f64 })
                    .collect();
                Column::Float64(vals, validity_of(n.iter().map(|&n| n == 0)))
            }
            Accs::Extreme {
                out, vals, seen, ..
            } => {
                let validity = validity_of(seen.iter().map(|s| !s));
                match (vals, out) {
                    (Extremes::Int(v), DataType::Date) => {
                        Column::Date(v.into_iter().map(|x| x as i32).collect(), validity)
                    }
                    (Extremes::Int(v), DataType::Bool) => {
                        Column::Bool(v.into_iter().map(|x| x != 0).collect(), validity)
                    }
                    (Extremes::Int(v), _) => Column::Int64(v, validity),
                    (Extremes::Float(v), _) => Column::Float64(v, validity),
                    (Extremes::Str(v), _) => {
                        let mut strs = StrData::new();
                        for s in &v {
                            strs.push(s);
                        }
                        Column::Utf8(strs, validity)
                    }
                }
            }
        }
    }
}

/// One aggregate of an [`AggState`].
struct AggSlot {
    arg: Option<Expr>,
    accs: Accs,
    /// DISTINCT aggregates: the `(group, value)` pairs already fed. Only
    /// a pair's first occurrence reaches the accumulator.
    seen: Option<HashSet<(u32, NormKey)>>,
}

/// Incremental hash-aggregation state: feed it chunks one at a time with
/// [`AggState::update`], then [`AggState::finish`].
///
/// Group output order is first-seen row order across the fed chunks, and
/// float accumulation happens in exact row order — so feeding the chunks
/// of a gathered input one by one (the morsel pipeline) produces the
/// bit-identical result of feeding their concatenation at once (the eager
/// executor).
pub struct AggState {
    input_layout: Layout,
    group_exprs: Vec<Expr>,
    aggs: Vec<AggSlot>,
    table: GroupTable,
    /// Per-chunk scratch: the rows' group ids.
    gids: Vec<u32>,
}

impl AggState {
    /// Fresh state for the given grouping/aggregate shape over inputs of
    /// `input_types` laid out as `input_layout`.
    pub fn new(
        input_layout: &Layout,
        input_types: &[DataType],
        group_by: &[OutputColumn],
        aggs: &[AggExpr],
    ) -> Result<AggState> {
        let resolve = |c: bfq_common::ColumnId| -> Option<DataType> {
            input_layout.slot_of(c).map(|s| input_types[s])
        };
        let key_types = group_by
            .iter()
            .map(|g| {
                g.expr
                    .data_type(&resolve)
                    .ok_or_else(|| BfqError::Type(format!("untyped group expression {}", g.expr)))
            })
            .collect::<Result<Vec<_>>>()?;
        let aggs = aggs
            .iter()
            .map(|a| {
                let arg_t = a.arg.as_ref().and_then(|e| e.data_type(&resolve));
                AggSlot {
                    arg: a.arg.clone(),
                    accs: Accs::new(a.func, agg_output_type(a.func, arg_t)),
                    seen: (a.distinct && a.arg.is_some()).then(HashSet::new),
                }
            })
            .collect();
        let mut state = AggState {
            input_layout: input_layout.clone(),
            group_exprs: group_by.iter().map(|g| g.expr.clone()).collect(),
            aggs,
            table: GroupTable::new(&key_types),
            gids: Vec::new(),
        };
        // Scalar aggregation always has exactly one group, even over zero
        // rows.
        state.resize_accs();
        Ok(state)
    }

    /// Number of groups so far.
    fn groups(&self) -> usize {
        if self.group_exprs.is_empty() {
            1
        } else {
            self.table.len()
        }
    }

    fn resize_accs(&mut self) {
        let groups = self.groups();
        for a in &mut self.aggs {
            a.accs.resize(groups);
        }
    }

    /// Accumulate one input chunk, in row order.
    pub fn update(&mut self, input: &Chunk) -> Result<()> {
        let rows = input.rows();
        if self.group_exprs.is_empty() {
            self.gids.clear();
            self.gids.resize(rows, 0);
        } else {
            let keys = self
                .group_exprs
                .iter()
                .map(|e| eval_ref(e, input, &self.input_layout))
                .collect::<Result<Vec<Cow<Column>>>>()?;
            let keys: Vec<&Column> = keys.iter().map(|c| c.as_ref()).collect();
            if let Some((k, c)) = self
                .table
                .keys
                .iter()
                .zip(&keys)
                .find(|(k, c)| !k.accepts(c))
            {
                return Err(BfqError::Type(format!(
                    "group key of type {} evaluated to a {} column",
                    k.out,
                    c.data_type()
                )));
            }
            self.table.assign(&keys, &mut self.gids);
            self.resize_accs();
        }

        let mut sel: Vec<u32> = Vec::new();
        for agg in &mut self.aggs {
            let arg = match &agg.arg {
                Some(e) => Some(eval_ref(e, input, &self.input_layout)?),
                None => None,
            };
            match (&mut agg.seen, arg.as_deref()) {
                (Some(seen), Some(col)) => {
                    // DISTINCT: feed only each (group, value)'s first row.
                    sel.clear();
                    for (row, &g) in self.gids.iter().enumerate() {
                        if !col.is_null(row) && seen.insert((g, NormKey::from_datum(&col.get(row))))
                        {
                            sel.push(row as u32);
                        }
                    }
                    let firsts: Vec<u32> = sel.iter().map(|&r| self.gids[r as usize]).collect();
                    agg.accs.update(Some(&col.take(&sel)), &firsts)?;
                }
                (_, col) => agg.accs.update(col, &self.gids)?,
            }
        }
        Ok(())
    }

    /// Pre-size the group directory for an expected group count (a
    /// planner estimate): dense aggregations then build their groups
    /// without mid-stream directory regrowth.
    pub fn reserve(&mut self, groups: usize) {
        if !self.group_exprs.is_empty() {
            self.table.reserve(groups);
        }
    }

    /// Whether this state can be [`AggState::merge`]d with another partial:
    /// DISTINCT sets hold normalized keys whose per-value accumulator
    /// updates cannot be replayed, so distinct aggregates must stay on the
    /// sequence-ordered single-state path.
    pub fn mergeable(&self) -> bool {
        self.aggs.iter().all(|a| a.seen.is_none())
    }

    /// Fold another partial state (same grouping/aggregate shape) into
    /// this one: groups present in both merge accumulator-wise, groups
    /// only in `other` are appended in `other`'s first-seen order — so
    /// merging worker partials in worker-index order yields a
    /// deterministic group order at fixed DOP.
    pub fn merge(&mut self, other: AggState) -> Result<()> {
        if !self.mergeable() {
            return Err(BfqError::internal(
                "cannot merge partial aggregates with DISTINCT",
            ));
        }
        // The other partial's groups, in order, are rows of its key
        // columns; they run through the same directory as input rows.
        let mut map = vec![0u32];
        if !self.group_exprs.is_empty() {
            let keys: Vec<Column> = other
                .table
                .keys
                .into_iter()
                .map(KeyColumn::into_column)
                .collect();
            let keys: Vec<&Column> = keys.iter().collect();
            self.table.assign(&keys, &mut map);
        }
        // New groups start empty, so merging into them copies the partial
        // (a float sum starts at +0.0 and so is never -0.0).
        self.resize_accs();
        for (dst, src) in self.aggs.iter_mut().zip(other.aggs) {
            dst.accs.merge(src.accs, &map);
        }
        Ok(())
    }

    /// Materialize the aggregated output (group columns then aggregate
    /// columns), applying the `having` filter over `out_layout`.
    pub fn finish(self, having: &Option<Expr>, out_layout: &Layout) -> Result<Chunk> {
        let columns = self
            .table
            .keys
            .into_iter()
            .map(KeyColumn::into_column)
            .chain(self.aggs.into_iter().map(|a| a.accs.into_column()))
            .map(std::sync::Arc::new)
            .collect();
        let mut out = Chunk::new(columns)?;
        if let Some(h) = having {
            let sel = eval_predicate(h, &out, out_layout)?;
            out = out.take(&sel);
        }
        Ok(out)
    }
}

/// Execute hash aggregation over a single gathered chunk.
pub fn execute_agg(
    input: &Chunk,
    input_layout: &Layout,
    input_types: &[DataType],
    group_by: &[OutputColumn],
    aggs: &[AggExpr],
    having: &Option<Expr>,
    out_layout: &Layout,
) -> Result<Chunk> {
    let mut state = AggState::new(input_layout, input_types, group_by, aggs)?;
    state.update(input)?;
    state.finish(having, out_layout)
}
