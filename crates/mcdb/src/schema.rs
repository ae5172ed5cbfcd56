//! Relation schemas: deterministic and stochastic column definitions.

use serde::{Deserialize, Serialize};

/// Whether a column is deterministic (a fixed value per tuple) or stochastic
/// (a random variable realized per scenario by a VG function).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColumnKind {
    /// The column stores a fixed [`crate::Value`] per tuple.
    Deterministic,
    /// The column is a random attribute realized by a VG function.
    Stochastic,
}

/// Definition of one column of a relation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnDef {
    /// Column name (case-preserving; lookups are case-insensitive).
    pub name: String,
    /// Deterministic or stochastic.
    pub kind: ColumnKind,
}

impl ColumnDef {
    /// Create a deterministic column definition.
    pub fn deterministic(name: impl Into<String>) -> Self {
        ColumnDef {
            name: name.into(),
            kind: ColumnKind::Deterministic,
        }
    }

    /// Create a stochastic column definition.
    pub fn stochastic(name: impl Into<String>) -> Self {
        ColumnDef {
            name: name.into(),
            kind: ColumnKind::Stochastic,
        }
    }

    /// True when the column is stochastic.
    pub fn is_stochastic(&self) -> bool {
        self.kind == ColumnKind::Stochastic
    }
}

/// An ordered collection of column definitions.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    /// Create an empty schema.
    pub fn new() -> Self {
        Schema::default()
    }

    /// Append a column definition.
    pub fn push(&mut self, def: ColumnDef) {
        self.columns.push(def);
    }

    /// All column definitions, in declaration order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Look up a column by name (case-insensitive).
    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.columns
            .iter()
            .find(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// True when a column with the given name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.column(name).is_some()
    }

    /// Names of all stochastic columns.
    pub fn stochastic_columns(&self) -> Vec<&str> {
        self.columns
            .iter()
            .filter(|c| c.is_stochastic())
            .map(|c| c.name.as_str())
            .collect()
    }

    /// Names of all deterministic columns.
    pub fn deterministic_columns(&self) -> Vec<&str> {
        self.columns
            .iter()
            .filter(|c| !c.is_stochastic())
            .map(|c| c.name.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        let mut s = Schema::new();
        s.push(ColumnDef::deterministic("id"));
        s.push(ColumnDef::deterministic("price"));
        s.push(ColumnDef::stochastic("Gain"));
        s
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let s = sample();
        assert!(s.contains("gain"));
        assert!(s.contains("GAIN"));
        assert!(s.contains("Price"));
        assert!(!s.contains("missing"));
    }

    #[test]
    fn stochastic_and_deterministic_partitions() {
        let s = sample();
        assert_eq!(s.stochastic_columns(), vec!["Gain"]);
        assert_eq!(s.deterministic_columns(), vec!["id", "price"]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn column_kind_accessors() {
        let s = sample();
        assert!(s.column("gain").unwrap().is_stochastic());
        assert!(!s.column("price").unwrap().is_stochastic());
        assert_eq!(s.column("id").unwrap().kind, ColumnKind::Deterministic);
    }

    #[test]
    fn push_appends_in_order() {
        let mut s = Schema::new();
        assert!(s.is_empty());
        s.push(ColumnDef::deterministic("a"));
        s.push(ColumnDef::stochastic("b"));
        assert_eq!(s.columns()[0].name, "a");
        assert_eq!(s.columns()[1].name, "b");
    }
}
