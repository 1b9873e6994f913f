//! Modifications (paper §4.1): *"Modifications must be treated as
//! deletions followed by insertions, although extensions to our approach
//! could permit modifications to be treated directly."*
//!
//! [`Modification`] packages the pair and expands it in the order the
//! paper prescribes; every maintenance algorithm then handles the two
//! halves as ordinary updates, with compensation taking care of any
//! interleaving between them.

use crate::tuple::Tuple;
use crate::update::Update;

/// An in-place change of one tuple, expanded to delete-then-insert.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Modification {
    /// The affected base relation.
    pub relation: String,
    /// The tuple being replaced.
    pub old: Tuple,
    /// Its replacement.
    pub new: Tuple,
}

impl Modification {
    /// Describe a modification.
    pub fn new(relation: impl Into<String>, old: Tuple, new: Tuple) -> Self {
        Modification {
            relation: relation.into(),
            old,
            new,
        }
    }

    /// Expand into the paper's delete-then-insert pair. A no-op
    /// modification (`old == new`) expands to nothing.
    pub fn expand(&self) -> Vec<Update> {
        if self.old == self.new {
            return Vec::new();
        }
        vec![
            Update::delete(self.relation.clone(), self.old.clone()),
            Update::insert(self.relation.clone(), self.new.clone()),
        ]
    }
}

/// Expand a mixed stream of modifications into plain updates.
#[cfg(test)]
fn expand_all<'a>(mods: impl IntoIterator<Item = &'a Modification>) -> Vec<Update> {
    mods.into_iter().flat_map(Modification::expand).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::UpdateKind;

    #[test]
    fn expands_delete_then_insert() {
        let m = Modification::new("r1", Tuple::ints([1, 2]), Tuple::ints([1, 5]));
        let us = m.expand();
        assert_eq!(us.len(), 2);
        assert_eq!(us[0].kind, UpdateKind::Delete);
        assert_eq!(us[0].tuple, Tuple::ints([1, 2]));
        assert_eq!(us[1].kind, UpdateKind::Insert);
        assert_eq!(us[1].tuple, Tuple::ints([1, 5]));
    }

    #[test]
    fn noop_modification_expands_to_nothing() {
        let m = Modification::new("r1", Tuple::ints([1, 2]), Tuple::ints([1, 2]));
        assert!(m.expand().is_empty());
    }

    #[test]
    fn expand_all_flattens() {
        let mods = vec![
            Modification::new("r1", Tuple::ints([1]), Tuple::ints([2])),
            Modification::new("r2", Tuple::ints([3]), Tuple::ints([3])),
            Modification::new("r1", Tuple::ints([2]), Tuple::ints([4])),
        ];
        let us = expand_all(&mods);
        assert_eq!(us.len(), 4);
    }
}
