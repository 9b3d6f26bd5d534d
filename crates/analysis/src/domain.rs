//! The abstract domain of the audit pass.
//!
//! Every plan node is summarized by a small product lattice:
//! cardinalities ([`Card`]: a flat lattice over `u64` with an explicit
//! top) and a partition-skew class ([`SkewClass`]). Transfer functions
//! only ever move *up* the lattice (toward `Unbounded`) when information
//! is lost, so every certified bound is sound: the concrete peak state
//! can never exceed it.

use std::fmt;

/// An upper bound on a count (rows, distinct values, bytes).
///
/// `Finite(n)` certifies "at most `n`"; [`Card::Unbounded`] is the
/// lattice top — nothing is known. Arithmetic saturates into
/// `Unbounded` rather than wrapping, keeping every operation monotone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Card {
    /// At most this many.
    Finite(u64),
    /// No static bound.
    Unbounded,
}

impl Card {
    /// Lattice join: the weaker (larger) of two bounds.
    pub fn join(self, other: Card) -> Card {
        match (self, other) {
            (Card::Finite(a), Card::Finite(b)) => Card::Finite(a.max(b)),
            _ => Card::Unbounded,
        }
    }

    /// Pointwise minimum: both bounds hold, so the tighter one does.
    pub fn min(self, other: Card) -> Card {
        match (self, other) {
            (Card::Finite(a), Card::Finite(b)) => Card::Finite(a.min(b)),
            (Card::Finite(a), Card::Unbounded) | (Card::Unbounded, Card::Finite(a)) => {
                Card::Finite(a)
            }
            (Card::Unbounded, Card::Unbounded) => Card::Unbounded,
        }
    }

    /// Scale by a constant factor.
    pub fn times(self, k: u64) -> Card {
        self * Card::Finite(k)
    }

    /// The bound as a number, if finite.
    pub fn finite(self) -> Option<u64> {
        match self {
            Card::Finite(n) => Some(n),
            Card::Unbounded => None,
        }
    }

    /// Is this bound finite?
    pub fn is_finite(self) -> bool {
        matches!(self, Card::Finite(_))
    }

    /// Does this bound exceed `limit` (an unbounded value always does)?
    pub fn exceeds(self, limit: u64) -> bool {
        match self {
            Card::Finite(n) => n > limit,
            Card::Unbounded => true,
        }
    }
}

/// Saturating product (e.g. key-cardinality products, bytes =
/// entries × entry size). `Finite(0)` annihilates even `Unbounded`.
impl std::ops::Mul for Card {
    type Output = Card;
    fn mul(self, other: Card) -> Card {
        match (self, other) {
            (Card::Finite(0), _) | (_, Card::Finite(0)) => Card::Finite(0),
            (Card::Finite(a), Card::Finite(b)) => Card::Finite(a.saturating_mul(b)),
            _ => Card::Unbounded,
        }
    }
}

/// Saturating sum.
impl std::ops::Add for Card {
    type Output = Card;
    fn add(self, other: Card) -> Card {
        match (self, other) {
            (Card::Finite(a), Card::Finite(b)) => Card::Finite(a.saturating_add(b)),
            _ => Card::Unbounded,
        }
    }
}

impl fmt::Display for Card {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Card::Finite(n) => write!(f, "{n}"),
            Card::Unbounded => write!(f, "unbounded"),
        }
    }
}

/// How the router's partition key spreads load across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkewClass {
    /// Empty partition key: the router deals batches round-robin, which
    /// is balanced by construction.
    RoundRobin,
    /// Partition-key cardinality comfortably exceeds the shard count.
    Spread,
    /// Finite cardinality below the shard count: at least one shard is
    /// statically guaranteed to idle while others carry multiple keys.
    Narrow {
        /// The partition key's distinct-value bound.
        cardinality: u64,
    },
    /// A constant partition key: every tuple lands on one shard.
    Constant,
}

impl SkewClass {
    /// Classify a partition-key cardinality against a shard count.
    pub fn classify(partition_card: Card, shards: usize) -> SkewClass {
        match partition_card {
            Card::Finite(1) => SkewClass::Constant,
            Card::Finite(c) if c < shards as u64 => SkewClass::Narrow { cardinality: c },
            _ => SkewClass::Spread,
        }
    }

    /// The most shards a W202 hazard's key reaches, or `None` when the
    /// class is no hazard.
    pub fn hazard(self) -> Option<u64> {
        match self {
            SkewClass::Constant => Some(1),
            SkewClass::Narrow { cardinality } => Some(cardinality),
            _ => None,
        }
    }

    /// Stable label used in reports and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            SkewClass::RoundRobin => "round-robin",
            SkewClass::Spread => "spread",
            SkewClass::Narrow { .. } => "narrow",
            SkewClass::Constant => "constant",
        }
    }
}

impl fmt::Display for SkewClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkewClass::Narrow { cardinality } => write!(f, "narrow (cardinality {cardinality})"),
            other => write!(f, "{}", other.as_str()),
        }
    }
}

/// The abstract state flowing along a plan edge: what the next operator
/// sees as its input.
#[derive(Debug, Clone)]
pub struct AbstractState {
    /// Peak input rate in rows/second.
    pub rows_per_sec: Card,
    /// Per-column distinct-value bounds, keyed by schema column name.
    /// A column absent from the map is unbounded.
    pub columns: Vec<(String, Card)>,
}

impl AbstractState {
    /// The cardinality bound of a named column (absent = unbounded).
    pub fn column_card(&self, name: &str) -> Card {
        self.columns.iter().find(|(n, _)| n == name).map(|&(_, c)| c).unwrap_or(Card::Unbounded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn card_lattice_ops() {
        let f = Card::Finite;
        assert_eq!(f(3).join(f(5)), f(5));
        assert_eq!(f(3).join(Card::Unbounded), Card::Unbounded);
        assert_eq!(f(3).min(Card::Unbounded), f(3));
        assert_eq!(Card::Unbounded.min(Card::Unbounded), Card::Unbounded);
        assert_eq!(f(u64::MAX) * f(2), f(u64::MAX), "mul saturates");
        assert_eq!(f(0) * Card::Unbounded, f(0), "zero annihilates even top");
        assert_eq!(Card::Unbounded * f(2), Card::Unbounded);
        assert_eq!(f(7) + f(1), f(8));
        assert!(Card::Unbounded.exceeds(u64::MAX));
        assert!(!f(10).exceeds(10));
        assert!(f(11).exceeds(10));
    }

    #[test]
    fn skew_classification() {
        assert_eq!(SkewClass::classify(Card::Finite(1), 4), SkewClass::Constant);
        assert_eq!(SkewClass::classify(Card::Finite(3), 4), SkewClass::Narrow { cardinality: 3 });
        assert_eq!(SkewClass::classify(Card::Finite(4), 4), SkewClass::Spread);
        assert_eq!(SkewClass::classify(Card::Unbounded, 4), SkewClass::Spread);
        assert_eq!(SkewClass::Constant.hazard(), Some(1));
        assert_eq!(SkewClass::RoundRobin.hazard(), None);
    }
}
