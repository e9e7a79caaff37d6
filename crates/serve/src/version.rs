//! The shared snapshot-version type.
//!
//! Snapshots ([`crate::snapshot`]) stamp each installed database with a
//! version, and the answer cache ([`crate::cache`]) is stamped with the
//! version its entries are exact at. Both used to carry bare `u64`s; this
//! newtype is the single place the "version 0 is the initial database, each
//! installed update increments by one" convention lives, so the two sides
//! cannot drift (for instance by one bumping per *attempted* update).

use std::fmt;

/// A snapshot version: 0 for the initial database, incremented by one for
/// every installed update. Totally ordered; never reused within a store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Version(u64);

impl Version {
    /// The initial database's version.
    pub const ZERO: Version = Version(0);

    /// The version the next installed update gets.
    #[must_use]
    pub fn next(self) -> Version {
        Version(self.0 + 1)
    }

    /// The raw counter, for wire formats and metrics.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl PartialEq<u64> for Version {
    fn eq(&self, other: &u64) -> bool {
        self.0 == *other
    }
}

impl From<u64> for Version {
    fn from(n: u64) -> Version {
        Version(n)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl serde::Serialize for Version {
    fn to_value(&self) -> serde::Value {
        self.0.to_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_start_at_zero_and_count_up() {
        assert_eq!(Version::ZERO, 0);
        assert_eq!(Version::ZERO.next(), 1);
        assert_eq!(Version::from(41).next().get(), 42);
        assert!(Version::ZERO < Version::ZERO.next());
        assert_eq!(serde::json::to_string(&Version::from(3)), "3");
    }
}
