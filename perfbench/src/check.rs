//! Result checking: every timed result must equal its reference as a
//! multiset of rows, with floats equal up to a fixed relative tolerance.

use std::cmp::Ordering;

use bfq::common::Datum;
use bfq::storage::Chunk;

/// Relative tolerance for float cells (sums in a different order differ in
/// their last bits).
pub const FLOAT_REL_TOL: f64 = 1e-9;

/// A result as a sorted list of rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Rows(Vec<Vec<Datum>>);

impl Rows {
    pub fn new(mut rows: Vec<Vec<Datum>>) -> Rows {
        rows.sort_by(|a, b| cmp_rows(a, b));
        Rows(rows)
    }

    pub fn from_chunk(chunk: &Chunk) -> Rows {
        Rows::new((0..chunk.rows()).map(|i| chunk.row(i)).collect())
    }

    /// Same multiset of rows, floats within [`FLOAT_REL_TOL`].
    pub fn matches(&self, other: &Rows) -> bool {
        self.0.len() == other.0.len()
            && self
                .0
                .iter()
                .zip(&other.0)
                .all(|(a, b)| a.len() == b.len() && a.iter().zip(b).all(|(x, y)| cells_match(x, y)))
    }
}

fn cells_match(a: &Datum, b: &Datum) -> bool {
    match (a, b) {
        (Datum::Float(x), Datum::Float(y)) => {
            (x - y).abs() <= FLOAT_REL_TOL * x.abs().max(y.abs()).max(1.0)
        }
        _ => a == b,
    }
}

fn variant(d: &Datum) -> u8 {
    match d {
        Datum::Null => 0,
        Datum::Bool(_) => 1,
        Datum::Int(_) => 2,
        Datum::Float(_) => 3,
        Datum::Date(_) => 4,
        Datum::Str(_) => 5,
    }
}

fn cmp_cells(a: &Datum, b: &Datum) -> Ordering {
    match (a, b) {
        (Datum::Bool(x), Datum::Bool(y)) => x.cmp(y),
        (Datum::Int(x), Datum::Int(y)) => x.cmp(y),
        (Datum::Float(x), Datum::Float(y)) => x.total_cmp(y),
        (Datum::Date(x), Datum::Date(y)) => x.cmp(y),
        (Datum::Str(x), Datum::Str(y)) => x.cmp(y),
        _ => variant(a).cmp(&variant(b)),
    }
}

fn cmp_rows(a: &[Datum], b: &[Datum]) -> Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| cmp_cells(x, y))
        .find(|o| o.is_ne())
        .unwrap_or(a.len().cmp(&b.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiset_ignores_order_and_tiny_float_drift() {
        let a = Rows::new(vec![
            vec![Datum::Int(2), Datum::Float(1.0)],
            vec![Datum::Int(1), Datum::Float(1e12)],
        ]);
        let b = Rows::new(vec![
            vec![Datum::Int(1), Datum::Float(1e12 + 1e-4)],
            vec![Datum::Int(2), Datum::Float(1.0)],
        ]);
        assert!(a.matches(&b));
        let c = Rows::new(vec![
            vec![Datum::Int(1), Datum::Float(1e12 + 1e4)],
            vec![Datum::Int(2), Datum::Float(1.0)],
        ]);
        assert!(!a.matches(&c));
        assert!(!a.matches(&Rows::new(vec![vec![Datum::Int(2), Datum::Float(1.0)]])));
    }
}
