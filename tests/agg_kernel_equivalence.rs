//! Columnar hash aggregation ↔ row-at-a-time oracle equivalence.
//!
//! `AggState` assigns group ids through a flat directory and folds typed
//! accumulator vectors one aggregate at a time. Its contract, checked here
//! against the independent reference in `common/agg_oracle.rs`:
//!
//! 1. **Strict feeds are exact.** Any split of the input into chunks gives
//!    the oracle's groups, in first-seen order, with bit-identical values
//!    (float sums run in row order in both).
//! 2. **Fast-mode merges are deterministic.** Partials merged in order give
//!    the oracle's group order; integer results are exact, float sums
//!    agree within reassociation tolerance.
//! 3. **Keys normalize.** NULL equals NULL, Int64 and Date share a key
//!    space, -0.0 equals 0.0; the empty group-by yields one row even over
//!    zero rows.
//! 4. **Size hints are only hints.** `reserve(0)` and `reserve(1 << 21)`
//!    change nothing observable.

#[path = "common/agg_oracle.rs"]
mod agg_oracle;

use std::sync::Arc;

use agg_oracle::{group_by, OracleAgg};
use bfq::common::{ColumnId, DataType, Datum, TableId};
use bfq::exec::agg::{agg_output_type, AggState};
use bfq::expr::{BinOp, Expr, Layout};
use bfq::plan::{AggExpr, AggFunc, OutputColumn};
use bfq::storage::{Chunk, ColumnBuilder};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Input column types. Column 1 holds integers that each chunk stores as
/// either Int64 or Date (declared Int64): the two share a key space.
const TYPES: [DataType; 10] = [
    DataType::Int64,
    DataType::Int64,
    DataType::Date,
    DataType::Utf8,
    DataType::Float64,
    DataType::Bool,
    DataType::Int64,
    DataType::Float64,
    DataType::Utf8,
    DataType::Date,
];
/// Columns usable as group keys (small domains, so groups repeat).
const KEY_COLS: usize = 6;
const MIXED_INT_DATE: usize = 1;

fn cid(i: usize) -> ColumnId {
    ColumnId::new(TableId(1), i as u32)
}

fn out_id(i: usize) -> ColumnId {
    ColumnId::new(TableId(2), i as u32)
}

/// Map a generated cell to a datum of column `col`'s type; about one cell
/// in eight is NULL.
fn datum(col: usize, x: u32) -> Datum {
    if x.is_multiple_of(8) {
        return Datum::Null;
    }
    let x = x / 8;
    const SMALL_STRS: [&str; 4] = ["", "a", "b", "ab"];
    const SMALL_FLOATS: [f64; 5] = [0.0, -0.0, 1.5, -2.25, 3.0];
    match col {
        0 => Datum::Int(x as i64 % 7 - 3),
        1 => Datum::Int((x % 4) as i64),
        2 => Datum::Date((x % 4) as i32),
        3 => Datum::str(SMALL_STRS[x as usize % 4]),
        4 => Datum::Float(SMALL_FLOATS[x as usize % 5]),
        5 => Datum::Bool(x.is_multiple_of(2)),
        6 => Datum::Int(x as i64 % 2_000_001 - 1_000_000),
        7 => match x % 4 {
            0 => Datum::Float(-0.0),
            1 => Datum::Float((x % 1000) as f64 * 1e-3),
            2 => Datum::Float((x % 97) as f64 * 1e12),
            _ => Datum::Float(-((x % 13) as f64) / 3.0),
        },
        8 => Datum::str(format!("s{}", x % 23)),
        _ => Datum::Date((x % 3000) as i32 - 1000),
    }
}

/// Build one chunk over `rows`; `as_date` stores the mixed column as Date.
fn chunk_of(rows: &[Vec<Datum>], as_date: bool) -> Chunk {
    let columns = (0..TYPES.len())
        .map(|c| {
            let dt = if c == MIXED_INT_DATE && as_date {
                DataType::Date
            } else {
                TYPES[c]
            };
            let mut b = ColumnBuilder::with_capacity(dt, rows.len());
            for r in rows {
                b.push_datum(&r[c]).unwrap();
            }
            Arc::new(b.finish())
        })
        .collect();
    Chunk::new(columns).unwrap()
}

/// One generated aggregation case.
#[derive(Debug, Clone)]
struct Case {
    rows: Vec<Vec<Datum>>,
    keys: Vec<usize>,
    aggs: Vec<OracleAgg>,
    /// Evaluate integer keys and arguments as `col + 0` (a computed column)
    /// instead of reading the input column in place.
    computed: bool,
    /// `HAVING count(*) >= 2` (count(*) is then the first aggregate).
    having: bool,
}

impl Case {
    fn operand(&self, c: usize) -> Expr {
        if self.computed && TYPES[c] == DataType::Int64 && c != MIXED_INT_DATE {
            Expr::binary(BinOp::Plus, Expr::col(cid(c)), Expr::int(0))
        } else {
            Expr::col(cid(c))
        }
    }

    fn group_by(&self) -> Vec<OutputColumn> {
        self.keys
            .iter()
            .enumerate()
            .map(|(i, &c)| OutputColumn {
                expr: self.operand(c),
                name: format!("k{i}"),
                id: out_id(i),
            })
            .collect()
    }

    fn agg_exprs(&self) -> Vec<AggExpr> {
        self.aggs
            .iter()
            .enumerate()
            .map(|(i, a)| AggExpr {
                func: a.func,
                arg: a.arg.map(|c| self.operand(c)),
                distinct: a.distinct,
                output: out_id(self.keys.len() + i),
            })
            .collect()
    }

    fn having_expr(&self) -> Option<Expr> {
        self.having.then(|| {
            Expr::binary(
                BinOp::GtEq,
                Expr::col(out_id(self.keys.len())),
                Expr::int(2),
            )
        })
    }

    fn out_layout(&self) -> Layout {
        Layout::new((0..self.keys.len() + self.aggs.len()).map(out_id).collect())
    }

    fn state(&self, reserve: usize) -> AggState {
        let layout = Layout::new((0..TYPES.len()).map(cid).collect());
        let mut state =
            AggState::new(&layout, &TYPES, &self.group_by(), &self.agg_exprs()).unwrap();
        state.reserve(reserve);
        state
    }

    /// Feed `parts` (each a row range stored as one chunk) to one state.
    fn feed(&self, state: &mut AggState, parts: &[(usize, usize)]) {
        for (i, &(lo, hi)) in parts.iter().enumerate() {
            state
                .update(&chunk_of(&self.rows[lo..hi], i % 2 == 1))
                .unwrap();
        }
    }

    fn finish(&self, state: AggState) -> Vec<Vec<Datum>> {
        let out = state
            .finish(&self.having_expr(), &self.out_layout())
            .unwrap();
        (0..out.rows()).map(|i| out.row(i)).collect()
    }

    fn oracle(&self) -> Vec<Vec<Datum>> {
        let key_types: Vec<DataType> = self.keys.iter().map(|&c| TYPES[c]).collect();
        let mut want = group_by(&self.rows, &self.keys, &key_types, &TYPES, &self.aggs);
        if self.having {
            want.retain(|r| matches!(r[self.keys.len()], Datum::Int(n) if n >= 2));
        }
        want
    }

    /// Check the output types the kernel declares against the oracle rows.
    fn check_types(&self, rows: &[Vec<Datum>]) {
        for r in rows {
            for (i, a) in self.aggs.iter().enumerate() {
                let want = agg_output_type(a.func, a.arg.map(|c| TYPES[c]));
                let got = &r[self.keys.len() + i];
                assert!(
                    got.is_null() || got.data_type() == Some(want),
                    "aggregate {i} ({:?}) produced {got:?}, declared {want}",
                    a.func
                );
            }
        }
    }
}

/// Datum equality: floats by bit pattern (`exact`) or within a relative
/// reassociation tolerance.
fn same(a: &Datum, b: &Datum, exact: bool) -> bool {
    match (a, b) {
        (Datum::Float(x), Datum::Float(y)) if exact => x.to_bits() == y.to_bits(),
        (Datum::Float(x), Datum::Float(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
        _ => a == b,
    }
}

fn assert_rows(got: &[Vec<Datum>], want: &[Vec<Datum>], exact: bool, what: &str) {
    assert_eq!(
        got.len(),
        want.len(),
        "{what}: group count\n got {got:?}\nwant {want:?}"
    );
    for (g, w) in got.iter().zip(want) {
        assert!(
            g.len() == w.len() && g.iter().zip(w).all(|(a, b)| same(a, b, exact)),
            "{what}: row differs\n got {g:?}\nwant {w:?}"
        );
    }
}

/// Row ranges covering `0..n`, cut at `cuts` (any order, duplicates and
/// out-of-range cuts allowed: they give empty or clamped chunks).
fn ranges(n: usize, cuts: &[usize]) -> Vec<(usize, usize)> {
    let mut points: Vec<usize> = cuts.iter().map(|&c| c.min(n)).collect();
    points.sort_unstable();
    let mut out = Vec::new();
    let mut lo = 0;
    for p in points.into_iter().chain([n]) {
        out.push((lo, p));
        lo = p;
    }
    out
}

fn run_case(case: &Case, cuts: &[usize], partials: usize, reserve: usize) {
    let n = case.rows.len();
    let want = case.oracle();

    // One feed of the whole input.
    let mut single = case.state(reserve);
    case.feed(&mut single, &[(0, n)]);
    let got = case.finish(single);
    case.check_types(&got);
    assert_rows(&got, &want, true, "single feed vs oracle");

    // Arbitrary chunk splits are bit-identical to the single feed.
    let parts = ranges(n, cuts);
    let mut chunked = case.state(reserve);
    case.feed(&mut chunked, &parts);
    assert_rows(
        &case.finish(chunked),
        &got,
        true,
        "chunked feed vs single feed",
    );

    // Fast mode: the chunks spread over ordered partials, merged in order.
    let first = case.state(reserve);
    if !first.mergeable() {
        assert!(case.aggs.iter().any(|a| a.distinct && a.arg.is_some()));
        return;
    }
    let mut states: Vec<AggState> = std::iter::once(first)
        .chain((1..partials).map(|_| case.state(reserve)))
        .collect();
    let per = parts.len().div_ceil(partials).max(1);
    for (i, chunk_parts) in parts.chunks(per).enumerate() {
        case.feed(&mut states[i], chunk_parts);
    }
    let mut states = states.into_iter();
    let mut merged = states.next().unwrap();
    for s in states {
        merged.merge(s).unwrap();
    }
    assert_rows(
        &case.finish(merged),
        &want,
        false,
        "merged partials vs oracle",
    );
}

/// Turn generated `(function, column, distinct)` triples into valid
/// aggregates over the argument-capable columns.
fn make_aggs(raw: &[(u8, usize, bool)], having: bool) -> Vec<OracleAgg> {
    let mut aggs: Vec<OracleAgg> = Vec::new();
    if having {
        aggs.push(OracleAgg {
            func: AggFunc::CountStar,
            arg: None,
            distinct: false,
        });
    }
    for &(f, c, distinct) in raw {
        // Column 1 is excluded: its chunks disagree on Int64 vs Date.
        let c = if c == MIXED_INT_DATE { 0 } else { c };
        let agg = match f {
            0 => OracleAgg {
                func: AggFunc::CountStar,
                arg: None,
                distinct: false,
            },
            1 => OracleAgg {
                func: AggFunc::Count,
                arg: Some(c),
                distinct,
            },
            2 | 3 => OracleAgg {
                func: if f == 2 { AggFunc::Sum } else { AggFunc::Avg },
                // Numeric arguments only: Int64, Float64 and Date columns.
                arg: Some([0, 2, 4, 6, 7, 9][c % 6]),
                distinct,
            },
            _ => OracleAgg {
                func: if f == 4 { AggFunc::Min } else { AggFunc::Max },
                arg: Some(c),
                distinct,
            },
        };
        aggs.push(agg);
    }
    aggs
}

/// Generates [`Case`]s with up to `max_rows` rows, 0–3 key columns and
/// 0–5 aggregates (plus `count(*)` under HAVING).
struct CaseGen {
    max_rows: u64,
}

impl Strategy for CaseGen {
    type Value = Case;

    fn new_value(&self, rng: &mut TestRng) -> Case {
        let n = rng.below(self.max_rows) as usize;
        let rows = (0..n)
            .map(|_| {
                (0..TYPES.len())
                    .map(|c| datum(c, rng.next_u64() as u32))
                    .collect()
            })
            .collect();
        let mut keys: Vec<usize> = Vec::new();
        for _ in 0..rng.below(4) {
            // Index KEY_COLS stands for the wide column 6 (many groups).
            let k = rng.below(KEY_COLS as u64 + 1) as usize;
            let k = if k == KEY_COLS { 6 } else { k };
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        let raw_aggs: Vec<(u8, usize, bool)> = (0..rng.below(6))
            .map(|_| {
                (
                    rng.below(6) as u8,
                    rng.below(TYPES.len() as u64) as usize,
                    rng.below(4) == 0,
                )
            })
            .collect();
        let computed = rng.below(2) == 0;
        let having = rng.below(2) == 0;
        let mut aggs = make_aggs(&raw_aggs, having);
        if keys.is_empty() && aggs.is_empty() {
            // An aggregation outputs at least one column.
            aggs = make_aggs(&[], true);
        }
        Case {
            rows,
            keys,
            aggs,
            computed,
            having,
        }
    }
}

/// Chunk cut points within `0..bound`, and how many partials to merge.
fn cuts_of(rng_cuts: Vec<usize>, bound: usize) -> Vec<usize> {
    rng_cuts.into_iter().map(|c| c % bound).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn kernel_matches_row_at_a_time_oracle(
        case in CaseGen { max_rows: 80 },
        cuts in proptest::collection::vec(0usize..90, 0..6),
        partials in 1usize..4,
        reserve in 0usize..3,
    ) {
        let reserve = [0, 3, 1 << 21][reserve];
        run_case(&case, &cuts_of(cuts, 90), partials, reserve);
    }

    /// Larger inputs force directory regrowth mid-chunk.
    #[test]
    fn kernel_matches_oracle_through_directory_growth(
        case in CaseGen { max_rows: 600 },
        cuts in proptest::collection::vec(0usize..600, 0..4),
        partials in 1usize..4,
    ) {
        run_case(&case, &cuts, partials, 0);
    }
}

fn fixed_case(rows: Vec<Vec<Datum>>, keys: Vec<usize>, aggs: Vec<OracleAgg>) -> Case {
    let rows = rows
        .into_iter()
        .map(|mut r| {
            r.resize(TYPES.len(), Datum::Null);
            r
        })
        .collect();
    Case {
        rows,
        keys,
        aggs,
        computed: false,
        having: false,
    }
}

fn agg(func: AggFunc, arg: Option<usize>) -> OracleAgg {
    OracleAgg {
        func,
        arg,
        distinct: false,
    }
}

#[test]
fn empty_group_by_over_zero_rows_is_one_row() {
    let case = fixed_case(
        Vec::new(),
        Vec::new(),
        vec![
            agg(AggFunc::CountStar, None),
            agg(AggFunc::Count, Some(6)),
            agg(AggFunc::Sum, Some(6)),
            agg(AggFunc::Sum, Some(7)),
            agg(AggFunc::Avg, Some(7)),
            agg(AggFunc::Min, Some(8)),
            agg(AggFunc::Max, Some(9)),
        ],
    );
    let mut state = case.state(0);
    case.feed(&mut state, &[(0, 0)]);
    let got = case.finish(state);
    let null = Datum::Null;
    assert_eq!(
        got,
        vec![vec![
            Datum::Int(0),
            Datum::Int(0),
            null.clone(),
            null.clone(),
            null.clone(),
            null.clone(),
            null
        ]]
    );
    // Grouped aggregation over zero rows has no groups at all.
    let grouped = fixed_case(Vec::new(), vec![0], vec![agg(AggFunc::CountStar, None)]);
    let state = grouped.state(1 << 21);
    assert!(grouped.finish(state).is_empty());
}

#[test]
fn keys_normalize_zero_signs_int_dates_and_nulls() {
    // Floats -0.0 and 0.0, integers stored as Int64 or Date, and NULLs
    // each form one group keyed by their first-seen value.
    let rows = vec![
        vec![
            Datum::Null,
            Datum::Int(2),
            Datum::Null,
            Datum::Null,
            Datum::Float(-0.0),
        ],
        vec![
            Datum::Null,
            Datum::Int(2),
            Datum::Null,
            Datum::Null,
            Datum::Float(0.0),
        ],
        vec![
            Datum::Null,
            Datum::Null,
            Datum::Null,
            Datum::Null,
            Datum::Null,
        ],
        vec![
            Datum::Null,
            Datum::Int(2),
            Datum::Null,
            Datum::Null,
            Datum::Float(0.0),
        ],
        vec![
            Datum::Null,
            Datum::Null,
            Datum::Null,
            Datum::Null,
            Datum::Null,
        ],
    ];
    let case = fixed_case(rows, vec![1, 4], vec![agg(AggFunc::CountStar, None)]);
    let mut state = case.state(0);
    // The first two rows arrive as Date, the rest as Int64.
    case.feed(&mut state, &[(0, 0), (0, 2), (2, 5)]);
    let got = case.finish(state);
    assert_eq!(got.len(), 2, "{got:?}");
    assert_eq!(got[0][0], Datum::Int(2));
    assert_eq!(
        got[0][1].as_f64().map(f64::to_bits),
        Some((-0.0f64).to_bits())
    );
    assert_eq!(got[0][2], Datum::Int(3));
    assert_eq!(got[1], vec![Datum::Null, Datum::Null, Datum::Int(2)]);
}
