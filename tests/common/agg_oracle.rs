//! A row-at-a-time group-by reference for the aggregation kernel's
//! property tests. It shares no code with the engine: keys are normalized
//! into an ordered map, every aggregate is a plain scalar fold over
//! [`Datum`]s, and groups come out in first-seen row order.

use std::collections::{BTreeMap, BTreeSet};

use bfq::common::{DataType, Datum};
use bfq::plan::AggFunc;

/// One aggregate: function, argument column (None for `COUNT(*)`), and
/// whether it is DISTINCT.
#[derive(Debug, Clone, Copy)]
pub struct OracleAgg {
    pub func: AggFunc,
    pub arg: Option<usize>,
    pub distinct: bool,
}

/// A normalized grouping value: NULL equals NULL, Int64 and Date share a
/// key space, -0.0 equals 0.0.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    Null,
    Int(i64),
    Float(u64),
    Str(String),
    Bool(bool),
}

fn key_of(d: &Datum) -> Key {
    match d {
        Datum::Null => Key::Null,
        Datum::Int(v) => Key::Int(*v),
        Datum::Date(v) => Key::Int(*v as i64),
        Datum::Float(v) => Key::Float(if *v == 0.0 { 0 } else { v.to_bits() }),
        Datum::Str(s) => Key::Str(s.to_string()),
        Datum::Bool(b) => Key::Bool(*b),
    }
}

/// Running state of one aggregate in one group.
#[derive(Debug, Clone)]
enum Fold {
    Count(i64),
    SumInt(Option<i64>),
    SumFloat(Option<f64>),
    Avg(f64, i64),
    Extreme(bool, Option<Datum>),
}

impl Fold {
    fn new(func: AggFunc, arg_type: Option<DataType>) -> Fold {
        match func {
            AggFunc::Count | AggFunc::CountStar => Fold::Count(0),
            AggFunc::Sum if arg_type == Some(DataType::Int64) => Fold::SumInt(None),
            AggFunc::Sum => Fold::SumFloat(None),
            AggFunc::Avg => Fold::Avg(0.0, 0),
            AggFunc::Min => Fold::Extreme(false, None),
            AggFunc::Max => Fold::Extreme(true, None),
        }
    }

    fn add(&mut self, v: &Datum) {
        if v.is_null() {
            return;
        }
        match self {
            Fold::Count(n) => *n += 1,
            Fold::SumInt(s) => {
                let x = match v {
                    Datum::Int(x) => *x,
                    Datum::Date(x) => *x as i64,
                    _ => return,
                };
                *s = Some(s.unwrap_or(0).wrapping_add(x));
            }
            Fold::SumFloat(s) => {
                if let Some(x) = numeric(v) {
                    *s = Some(s.unwrap_or(0.0) + x);
                }
            }
            Fold::Avg(s, n) => {
                if let Some(x) = numeric(v) {
                    *s += x;
                    *n += 1;
                }
            }
            Fold::Extreme(max, cur) => {
                let replace = match cur {
                    None => true,
                    Some(c) => {
                        let ord = compare(v, c);
                        if *max {
                            ord == Some(std::cmp::Ordering::Greater)
                        } else {
                            ord == Some(std::cmp::Ordering::Less)
                        }
                    }
                };
                if replace {
                    *cur = Some(v.clone());
                }
            }
        }
    }

    fn result(&self) -> Datum {
        match self {
            Fold::Count(n) => Datum::Int(*n),
            Fold::SumInt(s) => s.map_or(Datum::Null, Datum::Int),
            Fold::SumFloat(s) => s.map_or(Datum::Null, Datum::Float),
            Fold::Avg(s, n) => {
                if *n == 0 {
                    Datum::Null
                } else {
                    Datum::Float(*s / *n as f64)
                }
            }
            Fold::Extreme(_, cur) => cur.clone().unwrap_or(Datum::Null),
        }
    }
}

fn numeric(v: &Datum) -> Option<f64> {
    match v {
        Datum::Int(x) => Some(*x as f64),
        Datum::Float(x) => Some(*x),
        Datum::Date(x) => Some(*x as f64),
        _ => None,
    }
}

/// Typed comparison of two non-null values of one argument column.
fn compare(a: &Datum, b: &Datum) -> Option<std::cmp::Ordering> {
    match (a, b) {
        (Datum::Int(x), Datum::Int(y)) => Some(x.cmp(y)),
        (Datum::Date(x), Datum::Date(y)) => Some(x.cmp(y)),
        (Datum::Float(x), Datum::Float(y)) => x.partial_cmp(y),
        (Datum::Str(x), Datum::Str(y)) => Some(x.cmp(y)),
        (Datum::Bool(x), Datum::Bool(y)) => Some(x.cmp(y)),
        _ => None,
    }
}

/// One group: first-seen key values, one fold per aggregate, and the
/// values each DISTINCT aggregate has already folded.
type Group = (Vec<Datum>, Vec<Fold>, Vec<BTreeSet<Key>>);

/// Group `rows` by the columns `keys` and fold `aggs` per group. Each
/// output row is the group's first-seen key values (Int64/Date keys as
/// `key_types` declares them) followed by the aggregate results; groups
/// are in first-seen order. With no keys there is exactly one group, even
/// over zero rows.
pub fn group_by(
    rows: &[Vec<Datum>],
    keys: &[usize],
    key_types: &[DataType],
    arg_types: &[DataType],
    aggs: &[OracleAgg],
) -> Vec<Vec<Datum>> {
    let new_folds = || -> Vec<Fold> {
        aggs.iter()
            .map(|a| Fold::new(a.func, a.arg.map(|c| arg_types[c])))
            .collect()
    };
    let mut index: BTreeMap<Vec<Key>, usize> = BTreeMap::new();
    let mut groups: Vec<Group> = Vec::new();
    if keys.is_empty() {
        index.insert(Vec::new(), 0);
        groups.push((Vec::new(), new_folds(), vec![BTreeSet::new(); aggs.len()]));
    }
    for row in rows {
        let norm: Vec<Key> = keys.iter().map(|&k| key_of(&row[k])).collect();
        let g = *index.entry(norm).or_insert_with(|| {
            let first = keys
                .iter()
                .zip(key_types)
                .map(|(&k, t)| match (&row[k], t) {
                    (Datum::Date(v), DataType::Int64) => Datum::Int(*v as i64),
                    (Datum::Int(v), DataType::Date) => Datum::Date(*v as i32),
                    (d, _) => d.clone(),
                })
                .collect();
            groups.push((first, new_folds(), vec![BTreeSet::new(); aggs.len()]));
            groups.len() - 1
        });
        let (_, folds, seen) = &mut groups[g];
        for (i, a) in aggs.iter().enumerate() {
            match a.arg {
                None => {
                    if let Fold::Count(n) = &mut folds[i] {
                        *n += 1;
                    }
                }
                Some(c) => {
                    let v = &row[c];
                    if a.distinct && (v.is_null() || !seen[i].insert(key_of(v))) {
                        continue;
                    }
                    folds[i].add(v);
                }
            }
        }
    }
    groups
        .into_iter()
        .map(|(key, folds, _)| {
            let mut out = key;
            out.extend(folds.iter().map(Fold::result));
            out
        })
        .collect()
}
