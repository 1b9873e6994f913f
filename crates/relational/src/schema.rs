//! Relation schemas: attribute names and key metadata.

use std::fmt;
use std::sync::Arc;

use crate::error::RelationalError;

/// The schema of a relation: an ordered list of attribute names, plus
/// optional key information.
///
/// Key metadata drives the ECA-Key algorithm (paper §5.4), which requires
/// that the view contain a key attribute of every base relation.
#[derive(Clone, PartialEq, Eq)]
pub struct Schema {
    inner: Arc<SchemaInner>,
}

#[derive(PartialEq, Eq)]
struct SchemaInner {
    relation: String,
    attrs: Vec<String>,
    key: Vec<usize>,
}

impl Schema {
    /// Build a schema with no key declared.
    pub fn new(relation: impl Into<String>, attrs: &[&str]) -> Self {
        Schema {
            inner: Arc::new(SchemaInner {
                relation: relation.into(),
                attrs: attrs.iter().map(|s| (*s).to_owned()).collect(),
                key: Vec::new(),
            }),
        }
    }

    /// Build a schema with the named attributes as key.
    ///
    /// # Errors
    /// Returns [`RelationalError::UnknownAttribute`] if a key attribute is
    /// not in `attrs`.
    pub fn with_key(
        relation: impl Into<String>,
        attrs: &[&str],
        key: &[&str],
    ) -> Result<Self, RelationalError> {
        let relation = relation.into();
        let attrs: Vec<String> = attrs.iter().map(|s| (*s).to_owned()).collect();
        let mut key_positions = Vec::with_capacity(key.len());
        for k in key {
            let pos = attrs.iter().position(|a| a == k).ok_or_else(|| {
                RelationalError::UnknownAttribute {
                    attribute: (*k).to_owned(),
                    schema: attrs.join(","),
                }
            })?;
            key_positions.push(pos);
        }
        Ok(Schema {
            inner: Arc::new(SchemaInner {
                relation,
                attrs,
                key: key_positions,
            }),
        })
    }

    /// The relation name.
    pub fn relation(&self) -> &str {
        &self.inner.relation
    }

    /// The attribute names in order.
    pub fn attrs(&self) -> &[String] {
        &self.inner.attrs
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.inner.attrs.len()
    }

    /// Positions of the key attributes (empty if no key declared).
    pub fn key_positions(&self) -> &[usize] {
        &self.inner.key
    }

    /// Whether a key is declared.
    pub fn has_key(&self) -> bool {
        !self.inner.key.is_empty()
    }

    /// Resolve an attribute name to its position.
    ///
    /// # Errors
    /// Returns [`RelationalError::UnknownAttribute`] if absent.
    pub fn position_of(&self, attr: &str) -> Result<usize, RelationalError> {
        self.inner
            .attrs
            .iter()
            .position(|a| a == attr)
            .ok_or_else(|| RelationalError::UnknownAttribute {
                attribute: attr.to_owned(),
                schema: self.inner.attrs.join(","),
            })
    }

    /// Resolve several attribute names to positions.
    ///
    /// # Errors
    /// Returns the first [`RelationalError::UnknownAttribute`] encountered.
    #[cfg(test)]
    fn positions_of(&self, attrs: &[&str]) -> Result<Vec<usize>, RelationalError> {
        attrs.iter().map(|a| self.position_of(a)).collect()
    }

    /// Concatenated schema of a cross product `self × other`.
    ///
    /// Attribute names are qualified with the relation name when both sides
    /// share an attribute name, mirroring how a real engine disambiguates.
    /// The combined schema carries no key (keys of products are composite;
    /// ECAK only needs keys of the *base* relations, tracked separately).
    pub fn cross(&self, other: &Schema) -> Schema {
        let mut attrs: Vec<String> = Vec::with_capacity(self.arity() + other.arity());
        for a in self.attrs() {
            if other.attrs().contains(a) {
                attrs.push(format!("{}.{}", self.relation(), a));
            } else {
                attrs.push(a.clone());
            }
        }
        for a in other.attrs() {
            if self.attrs().contains(a) {
                attrs.push(format!("{}.{}", other.relation(), a));
            } else {
                attrs.push(a.clone());
            }
        }
        Schema {
            inner: Arc::new(SchemaInner {
                relation: format!("{}x{}", self.relation(), other.relation()),
                attrs,
                key: Vec::new(),
            }),
        }
    }

    /// Schema of a projection onto `positions`, validated against arity.
    ///
    /// # Errors
    /// Returns [`RelationalError::PositionOutOfRange`] on a bad position.
    pub fn project(&self, positions: &[usize]) -> Result<Schema, RelationalError> {
        for &p in positions {
            if p >= self.arity() {
                return Err(RelationalError::PositionOutOfRange {
                    position: p,
                    arity: self.arity(),
                });
            }
        }
        Ok(Schema {
            inner: Arc::new(SchemaInner {
                relation: format!("pi({})", self.relation()),
                attrs: positions
                    .iter()
                    .map(|&p| self.inner.attrs[p].clone())
                    .collect(),
                key: Vec::new(),
            }),
        })
    }
}

impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.inner.relation)?;
        for (i, a) in self.inner.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            if self.inner.key.contains(&i) {
                write!(f, "{a}*")?;
            } else {
                write!(f, "{a}")?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positions_resolve() {
        let s = Schema::new("r1", &["W", "X"]);
        assert_eq!(s.position_of("X").unwrap(), 1);
        assert!(s.position_of("Z").is_err());
        assert_eq!(s.positions_of(&["X", "W"]).unwrap(), vec![1, 0]);
    }

    #[test]
    fn keys_are_validated() {
        let s = Schema::with_key("r1", &["W", "X"], &["W"]).unwrap();
        assert!(s.has_key());
        assert_eq!(s.key_positions(), &[0]);
        assert!(Schema::with_key("r1", &["W", "X"], &["Q"]).is_err());
    }

    #[test]
    fn cross_qualifies_duplicate_names() {
        let a = Schema::new("r1", &["W", "X"]);
        let b = Schema::new("r2", &["X", "Y"]);
        let c = a.cross(&b);
        assert_eq!(
            c.attrs(),
            &[
                "W".to_owned(),
                "r1.X".to_owned(),
                "r2.X".to_owned(),
                "Y".to_owned()
            ]
        );
        assert_eq!(c.arity(), 4);
    }

    #[test]
    fn project_validates_positions() {
        let s = Schema::new("r", &["A", "B"]);
        let p = s.project(&[1]).unwrap();
        assert_eq!(p.attrs(), &["B".to_owned()]);
        assert!(s.project(&[2]).is_err());
    }

    #[test]
    fn debug_marks_key_attrs() {
        let s = Schema::with_key("r1", &["W", "X"], &["W"]).unwrap();
        assert_eq!(format!("{s:?}"), "r1(W*,X)");
    }
}
