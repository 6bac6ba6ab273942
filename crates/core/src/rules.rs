//! Rule types produced by the miners.

use dmc_matrix::ColumnId;
use std::fmt;

/// An implication rule `lhs ⇒ rhs` with its exact counts.
///
/// `confidence() = hits / lhs_ones`; miners only emit rules whose
/// confidence meets the configured threshold, but the counts are kept so
/// downstream consumers can re-rank or re-filter without another scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ImplicationRule {
    pub lhs: ColumnId,
    pub rhs: ColumnId,
    /// Rows where both columns are 1.
    pub hits: u32,
    /// `|S_lhs|`.
    pub lhs_ones: u32,
    /// `|S_rhs|`.
    pub rhs_ones: u32,
}

impl ImplicationRule {
    /// `hits / lhs_ones` (0 for an empty LHS column).
    #[must_use]
    pub fn confidence(&self) -> f64 {
        if self.lhs_ones == 0 {
            0.0
        } else {
            f64::from(self.hits) / f64::from(self.lhs_ones)
        }
    }

    /// Misses of the LHS against the RHS: `lhs_ones − hits`.
    #[must_use]
    pub fn misses(&self) -> u32 {
        self.lhs_ones - self.hits
    }

    /// The reverse rule `rhs ⇒ lhs` (same hits, swapped roles).
    #[must_use]
    pub fn reversed(&self) -> Self {
        Self {
            lhs: self.rhs,
            rhs: self.lhs,
            hits: self.hits,
            lhs_ones: self.rhs_ones,
            rhs_ones: self.lhs_ones,
        }
    }
}

impl fmt::Display for ImplicationRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "c{} => c{} (conf {}/{} = {:.3})",
            self.lhs,
            self.rhs,
            self.hits,
            self.lhs_ones,
            self.confidence()
        )
    }
}

/// A similarity rule `a ≃ b` with its exact counts. Stored with
/// `a < b` canonically (fewer ones first, ties by id).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimilarityRule {
    pub a: ColumnId,
    pub b: ColumnId,
    /// Rows where both columns are 1.
    pub hits: u32,
    /// `|S_a|`.
    pub a_ones: u32,
    /// `|S_b|`.
    pub b_ones: u32,
}

impl SimilarityRule {
    /// Jaccard similarity `hits / |S_a ∪ S_b|` (0 for an empty union).
    #[must_use]
    pub fn similarity(&self) -> f64 {
        let union = self.union();
        if union == 0 {
            0.0
        } else {
            f64::from(self.hits) / f64::from(union)
        }
    }

    /// `|S_a ∪ S_b|`.
    #[must_use]
    pub fn union(&self) -> u32 {
        self.a_ones + self.b_ones - self.hits
    }
}

impl fmt::Display for SimilarityRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "c{} ~ c{} (sim {}/{} = {:.3})",
            self.a,
            self.b,
            self.hits,
            self.union(),
            self.similarity()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confidence_and_misses() {
        let r = ImplicationRule {
            lhs: 3,
            rhs: 7,
            hits: 17,
            lhs_ones: 20,
            rhs_ones: 30,
        };
        assert!((r.confidence() - 0.85).abs() < 1e-12);
        assert_eq!(r.misses(), 3);
    }

    #[test]
    fn zero_lhs_confidence_is_zero() {
        let r = ImplicationRule {
            lhs: 0,
            rhs: 1,
            hits: 0,
            lhs_ones: 0,
            rhs_ones: 5,
        };
        assert_eq!(r.confidence(), 0.0);
    }

    #[test]
    fn reversed_swaps_roles() {
        let r = ImplicationRule {
            lhs: 1,
            rhs: 2,
            hits: 4,
            lhs_ones: 5,
            rhs_ones: 8,
        };
        let rev = r.reversed();
        assert_eq!(rev.lhs, 2);
        assert_eq!(rev.rhs, 1);
        assert_eq!(rev.lhs_ones, 8);
        assert!((rev.confidence() - 0.5).abs() < 1e-12);
        assert_eq!(rev.reversed(), r);
    }

    #[test]
    fn similarity_math() {
        let s = SimilarityRule {
            a: 1,
            b: 2,
            hits: 3,
            a_ones: 4,
            b_ones: 5,
        };
        assert_eq!(s.union(), 6);
        assert!((s.similarity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        let r = ImplicationRule {
            lhs: 1,
            rhs: 2,
            hits: 4,
            lhs_ones: 5,
            rhs_ones: 8,
        };
        assert_eq!(r.to_string(), "c1 => c2 (conf 4/5 = 0.800)");
        let s = SimilarityRule {
            a: 0,
            b: 9,
            hits: 2,
            a_ones: 2,
            b_ones: 2,
        };
        assert_eq!(s.to_string(), "c0 ~ c9 (sim 2/2 = 1.000)");
    }
}
