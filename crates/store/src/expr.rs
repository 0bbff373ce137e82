//! Scalar expressions over numeric columns, with derived range bounds
//! (Appendix B).
//!
//! Aggregates may target not just a raw column but an expression such as
//! `AVG((2*c1 + 3*c2 - 1)^2)`. Range-based error bounders then need derived
//! bounds `[a', b']` enclosing the expression's value over the per-column
//! catalog ranges. [`Expr::range_bounds`] computes them by interval
//! arithmetic and is the only method that does. It is sound: the interval
//! result always encloses the expression's image over the box of column
//! ranges. It is exact when each column occurs once in the expression
//! (Moore, *Interval Analysis*, 1966), and conservative otherwise:
//! `x - x` over `[0, 1]` gets `[-1, 1]`, not `[0, 0]`. A looser range only
//! widens the intervals; it never costs the guarantee.
//!
//! Floating point can overflow the derived range (`x * x` over a column
//! reaching 1e200 has the range `[0, ∞]`). The engine refuses such a target
//! when the query is built (`EngineError::NonFiniteRange`). A finite range
//! also keeps every row's value finite, because rounding is monotone: each
//! row evaluates the same operations on values inside the box.

use crate::catalog::Catalog;
use crate::table::{StoreResult, Table};

/// An unbound (name-based) scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a numeric column.
    Column(String),
    /// A literal constant.
    Literal(f64),
    /// Sum of two sub-expressions.
    Add(Box<Expr>, Box<Expr>),
    /// Difference of two sub-expressions.
    Sub(Box<Expr>, Box<Expr>),
    /// Product of two sub-expressions.
    Mul(Box<Expr>, Box<Expr>),
    /// Negation.
    Neg(Box<Expr>),
    /// Absolute value.
    Abs(Box<Expr>),
    /// Integer power (non-negative exponent).
    Pow(Box<Expr>, u32),
}

#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Shorthand for a column reference.
    pub fn col(name: impl Into<String>) -> Self {
        Expr::Column(name.into())
    }

    /// Shorthand for a literal.
    pub fn lit(value: f64) -> Self {
        Expr::Literal(value)
    }

    /// `self + other`.
    pub fn add(self, other: Expr) -> Self {
        Expr::Add(Box::new(self), Box::new(other))
    }

    /// `self - other`.
    pub fn sub(self, other: Expr) -> Self {
        Expr::Sub(Box::new(self), Box::new(other))
    }

    /// `self * other`.
    pub fn mul(self, other: Expr) -> Self {
        Expr::Mul(Box::new(self), Box::new(other))
    }

    /// `self ^ exponent`.
    pub fn pow(self, exponent: u32) -> Self {
        Expr::Pow(Box::new(self), exponent)
    }

    /// Column names referenced by the expression, in first-occurrence order.
    pub fn referenced_columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Column(name) => {
                if !out.iter().any(|n| n == name) {
                    out.push(name.clone());
                }
            }
            Expr::Literal(_) => {}
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::Neg(a) | Expr::Abs(a) | Expr::Pow(a, _) => a.collect_columns(out),
        }
    }

    /// Binds the expression against a table, resolving column names to
    /// indexes.
    pub fn bind(&self, table: &Table) -> StoreResult<BoundExpr> {
        Ok(match self {
            Expr::Column(name) => {
                table.numeric_column(name)?;
                BoundExpr::Column(table.column_index(name)?)
            }
            Expr::Literal(v) => BoundExpr::Literal(*v),
            Expr::Add(a, b) => BoundExpr::Add(Box::new(a.bind(table)?), Box::new(b.bind(table)?)),
            Expr::Sub(a, b) => BoundExpr::Sub(Box::new(a.bind(table)?), Box::new(b.bind(table)?)),
            Expr::Mul(a, b) => BoundExpr::Mul(Box::new(a.bind(table)?), Box::new(b.bind(table)?)),
            Expr::Neg(a) => BoundExpr::Neg(Box::new(a.bind(table)?)),
            Expr::Abs(a) => BoundExpr::Abs(Box::new(a.bind(table)?)),
            Expr::Pow(a, e) => BoundExpr::Pow(Box::new(a.bind(table)?), *e),
        })
    }

    /// Conservative derived range bounds over the catalog's per-column
    /// ranges, via interval arithmetic.
    pub fn range_bounds(&self, catalog: &Catalog) -> StoreResult<(f64, f64)> {
        Ok(match self {
            Expr::Column(name) => catalog.range_bounds(name)?,
            Expr::Literal(v) => (*v, *v),
            Expr::Add(a, b) => {
                let (al, ah) = a.range_bounds(catalog)?;
                let (bl, bh) = b.range_bounds(catalog)?;
                (al + bl, ah + bh)
            }
            Expr::Sub(a, b) => {
                let (al, ah) = a.range_bounds(catalog)?;
                let (bl, bh) = b.range_bounds(catalog)?;
                (al - bh, ah - bl)
            }
            Expr::Mul(a, b) => {
                let (al, ah) = a.range_bounds(catalog)?;
                let (bl, bh) = b.range_bounds(catalog)?;
                let candidates = [al * bl, al * bh, ah * bl, ah * bh];
                if candidates.iter().any(|c| c.is_nan()) {
                    // 0 · ∞: `f64::min` would drop the NaN and report a
                    // finite range for rows that evaluate to NaN.
                    (f64::NAN, f64::NAN)
                } else {
                    (
                        candidates.iter().copied().fold(f64::INFINITY, f64::min),
                        candidates.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    )
                }
            }
            Expr::Neg(a) => {
                let (al, ah) = a.range_bounds(catalog)?;
                (-ah, -al)
            }
            Expr::Abs(a) => {
                let (al, ah) = a.range_bounds(catalog)?;
                if al >= 0.0 {
                    (al, ah)
                } else if ah <= 0.0 {
                    (-ah, -al)
                } else {
                    (0.0, ah.max(-al))
                }
            }
            Expr::Pow(a, e) => {
                let (al, ah) = a.range_bounds(catalog)?;
                if *e == 0 {
                    (1.0, 1.0)
                } else if e % 2 == 1 {
                    (al.powi(*e as i32), ah.powi(*e as i32))
                } else {
                    // Even power: minimum is 0 if the interval straddles 0.
                    let lo = if al <= 0.0 && ah >= 0.0 {
                        0.0
                    } else {
                        al.abs().min(ah.abs()).powi(*e as i32)
                    };
                    let hi = al.abs().max(ah.abs()).powi(*e as i32);
                    (lo, hi)
                }
            }
        })
    }
}

/// Renders the expression infix, fully parenthesised: `((DepDelay - 10)^2)`.
impl std::fmt::Display for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Column(name) => write!(f, "{name}"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Neg(a) => write!(f, "(-{a})"),
            Expr::Abs(a) => write!(f, "ABS({a})"),
            Expr::Pow(a, e) => write!(f, "({a}^{e})"),
        }
    }
}

/// An expression bound to a concrete table (columns resolved to indexes).
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Column by index.
    Column(usize),
    /// Literal constant.
    Literal(f64),
    /// Sum.
    Add(Box<BoundExpr>, Box<BoundExpr>),
    /// Difference.
    Sub(Box<BoundExpr>, Box<BoundExpr>),
    /// Product.
    Mul(Box<BoundExpr>, Box<BoundExpr>),
    /// Negation.
    Neg(Box<BoundExpr>),
    /// Absolute value.
    Abs(Box<BoundExpr>),
    /// Integer power.
    Pow(Box<BoundExpr>, u32),
}

impl BoundExpr {
    /// The column indexes the expression reads, in first-occurrence order —
    /// the engine's projection pushdown decodes exactly these (plus the
    /// predicate and group-by columns).
    pub fn referenced_columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            BoundExpr::Column(i) => {
                if !out.contains(i) {
                    out.push(*i);
                }
            }
            BoundExpr::Literal(_) => {}
            BoundExpr::Add(a, b) | BoundExpr::Sub(a, b) | BoundExpr::Mul(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            BoundExpr::Neg(a) | BoundExpr::Abs(a) | BoundExpr::Pow(a, _) => a.collect_columns(out),
        }
    }

    /// Evaluates the expression for one row. Returns `None` if any referenced
    /// cell is missing (out-of-range row).
    pub fn evaluate(&self, table: &Table, row: usize) -> Option<f64> {
        Some(match self {
            BoundExpr::Column(i) => table.column_at(*i).numeric_value(row)?,
            BoundExpr::Literal(v) => *v,
            BoundExpr::Add(a, b) => a.evaluate(table, row)? + b.evaluate(table, row)?,
            BoundExpr::Sub(a, b) => a.evaluate(table, row)? - b.evaluate(table, row)?,
            BoundExpr::Mul(a, b) => a.evaluate(table, row)? * b.evaluate(table, row)?,
            BoundExpr::Neg(a) => -a.evaluate(table, row)?,
            BoundExpr::Abs(a) => a.evaluate(table, row)?.abs(),
            BoundExpr::Pow(a, e) => a.evaluate(table, row)?.powi(*e as i32),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn table() -> Table {
        Table::new(vec![
            Column::float("c1", vec![-3.0, 0.0, 1.0]),
            Column::float("c2", vec![-1.0, 1.0, 3.0]),
            Column::categorical("g", &["a", "b", "a"]),
        ])
        .unwrap()
    }

    #[test]
    fn evaluation_of_composite_expression() {
        // (2*c1 + 3*c2 - 1)^2 — the Appendix B example.
        let t = table();
        let expr = Expr::lit(2.0)
            .mul(Expr::col("c1"))
            .add(Expr::lit(3.0).mul(Expr::col("c2")))
            .sub(Expr::lit(1.0))
            .pow(2);
        let bound = expr.bind(&t).unwrap();
        assert_eq!(bound.evaluate(&t, 0), Some(100.0)); // (2*(-3) + 3*(-1) - 1)^2
        assert_eq!(bound.evaluate(&t, 2), Some((2.0 + 9.0 - 1.0f64).powi(2)));
        assert_eq!(bound.evaluate(&t, 99), None);
    }

    #[test]
    fn referenced_columns_deduplicated_in_order() {
        let expr = Expr::col("c2").add(Expr::col("c1").mul(Expr::col("c2")));
        assert_eq!(
            expr.referenced_columns(),
            vec!["c2".to_string(), "c1".to_string()]
        );
    }

    #[test]
    fn binding_rejects_categorical_and_unknown_columns() {
        let t = table();
        assert!(Expr::col("g").bind(&t).is_err());
        assert!(Expr::col("missing").bind(&t).is_err());
    }

    #[test]
    fn interval_arithmetic_bounds_contain_example() {
        // Paper example: c1 ∈ [-3, 1], c2 ∈ [-1, 3] →
        // exact bounds of (2c1 + 3c2 - 1)^2 are [0, 100]; interval arithmetic
        // must contain them (it is conservative, not exact).
        let t = table();
        let catalog = Catalog::build(&t);
        let expr = Expr::lit(2.0)
            .mul(Expr::col("c1"))
            .add(Expr::lit(3.0).mul(Expr::col("c2")))
            .sub(Expr::lit(1.0))
            .pow(2);
        let (lo, hi) = expr.range_bounds(&catalog).unwrap();
        assert!(lo <= 0.0);
        assert!(hi >= 100.0);
        // And all actual row values fall inside.
        let bound = expr.bind(&t).unwrap();
        for row in 0..3 {
            let v = bound.evaluate(&t, row).unwrap();
            assert!(v >= lo && v <= hi);
        }
    }

    #[test]
    fn interval_arithmetic_primitive_ops() {
        let t = table();
        let catalog = Catalog::build(&t);
        // c1 ∈ [-3, 1], c2 ∈ [-1, 3]
        assert_eq!(Expr::col("c1").range_bounds(&catalog).unwrap(), (-3.0, 1.0));
        assert_eq!(Expr::lit(5.0).range_bounds(&catalog).unwrap(), (5.0, 5.0));
        assert_eq!(
            Expr::col("c1")
                .add(Expr::col("c2"))
                .range_bounds(&catalog)
                .unwrap(),
            (-4.0, 4.0)
        );
        assert_eq!(
            Expr::col("c1")
                .sub(Expr::col("c2"))
                .range_bounds(&catalog)
                .unwrap(),
            (-6.0, 2.0)
        );
        assert_eq!(
            Expr::col("c1")
                .mul(Expr::col("c2"))
                .range_bounds(&catalog)
                .unwrap(),
            (-9.0, 3.0)
        );
        assert_eq!(
            Expr::Neg(Box::new(Expr::col("c1")))
                .range_bounds(&catalog)
                .unwrap(),
            (-1.0, 3.0)
        );
        assert_eq!(
            Expr::Abs(Box::new(Expr::col("c1")))
                .range_bounds(&catalog)
                .unwrap(),
            (0.0, 3.0)
        );
        assert_eq!(
            Expr::col("c1").pow(2).range_bounds(&catalog).unwrap(),
            (0.0, 9.0)
        );
        assert_eq!(
            Expr::col("c1").pow(3).range_bounds(&catalog).unwrap(),
            (-27.0, 1.0)
        );
        assert_eq!(
            Expr::col("c1").pow(0).range_bounds(&catalog).unwrap(),
            (1.0, 1.0)
        );
        // Even power of a strictly positive interval.
        assert_eq!(
            Expr::col("c2").pow(2).range_bounds(&catalog).unwrap(),
            (0.0, 9.0)
        );
    }

    /// Over a column reaching 1e200, `x * x` overflows to [0, ∞], and `0`
    /// times that range is NaN, as a row's `∞ · 0` is, not a finite [0, 0].
    #[test]
    fn an_overflowed_range_times_zero_is_nan() {
        let t = Table::new(vec![Column::float("x", vec![0.0, 1e200])]).unwrap();
        let catalog = Catalog::build(&t);
        let square = Expr::col("x").mul(Expr::col("x"));
        assert_eq!(square.range_bounds(&catalog).unwrap(), (0.0, f64::INFINITY));
        let (lo, hi) = square.mul(Expr::lit(0.0)).range_bounds(&catalog).unwrap();
        assert!(lo.is_nan() && hi.is_nan());
    }

    #[test]
    fn abs_of_strictly_negative_interval() {
        let t = Table::new(vec![Column::float("n", vec![-5.0, -2.0])]).unwrap();
        let catalog = Catalog::build(&t);
        assert_eq!(
            Expr::Abs(Box::new(Expr::col("n")))
                .range_bounds(&catalog)
                .unwrap(),
            (2.0, 5.0)
        );
    }
}
