//! The paper's worked Examples 1–9 as canned scenarios.
//!
//! Each scenario packages the view, initial base data, the update script,
//! and the correct final view, so integration tests and the anomaly-tour
//! example can replay them through the full simulator stack. A
//! constructor's `Err` would mean a static view failed validation; none
//! does.

use eca_core::{CoreError, ViewDef};
use eca_relational::{Predicate, Schema, SignedBag, Tuple, Update};

/// A canned, fully specified maintenance scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Identifier, e.g. `"example2"`.
    pub name: &'static str,
    /// What the paper demonstrates with it.
    pub description: &'static str,
    /// The view.
    pub view: ViewDef,
    /// Initial contents per relation name.
    pub initial: Vec<(&'static str, Vec<Tuple>)>,
    /// The update script (executed under the adversarial interleaving to
    /// reproduce the paper's event orderings).
    pub updates: Vec<Update>,
    /// The correct final view `V[ss_p]`.
    pub expected_final: SignedBag,
    /// Whether the view is fully keyed (ECA-Key applies).
    pub keyed: bool,
}

fn view_2rel(proj: Vec<usize>, keyed: bool) -> Result<ViewDef, CoreError> {
    let (s1, s2) = if keyed {
        (
            Schema::with_key("r1", &["W", "X"], &["W"])?,
            Schema::with_key("r2", &["X", "Y"], &["Y"])?,
        )
    } else {
        (
            Schema::new("r1", &["W", "X"]),
            Schema::new("r2", &["X", "Y"]),
        )
    };
    ViewDef::new("V", vec![s1, s2], Predicate::col_eq(1, 2), proj)
}

fn view_3rel() -> Result<ViewDef, CoreError> {
    ViewDef::new(
        "V",
        vec![
            Schema::new("r1", &["W", "X"]),
            Schema::new("r2", &["X", "Y"]),
            Schema::new("r3", &["X", "Y"]),
        ],
        Predicate::col_eq(1, 2).and(Predicate::col_eq(3, 4)),
        vec![0],
    )
}

fn bag(tuples: &[&[i64]]) -> SignedBag {
    SignedBag::from_tuples(tuples.iter().map(|t| Tuple::ints(t.iter().copied())))
}

/// Example 1 (§1.1): a single insert with spaced processing — correct even
/// for the basic algorithm.
pub fn example1() -> Result<Scenario, CoreError> {
    Ok(Scenario {
        name: "example1",
        description: "single insert; correct under any algorithm",
        view: view_2rel(vec![0], false)?,
        initial: vec![
            ("r1", vec![Tuple::ints([1, 2])]),
            ("r2", vec![Tuple::ints([2, 4])]),
        ],
        updates: vec![Update::insert("r2", Tuple::ints([2, 3]))],
        expected_final: {
            let mut b = SignedBag::new();
            b.add(Tuple::ints([1]), 2);
            b
        },
        keyed: false,
    })
}

/// Example 2 (§1.1): the insert anomaly — under the adversarial
/// interleaving the basic algorithm duplicates `[4]`.
pub fn example2() -> Result<Scenario, CoreError> {
    Ok(Scenario {
        name: "example2",
        description: "insert anomaly: basic algorithm yields ([1],[4],[4])",
        view: view_2rel(vec![0], false)?,
        initial: vec![("r1", vec![Tuple::ints([1, 2])]), ("r2", vec![])],
        updates: vec![
            Update::insert("r2", Tuple::ints([2, 3])),
            Update::insert("r1", Tuple::ints([4, 2])),
        ],
        expected_final: bag(&[&[1], &[4]]),
        keyed: false,
    })
}

/// Example 3 (§1.1): the deletion anomaly — the basic algorithm leaves a
/// phantom tuple.
pub fn example3() -> Result<Scenario, CoreError> {
    Ok(Scenario {
        name: "example3",
        description: "deletion anomaly: basic algorithm leaves [1,3] behind",
        view: view_2rel(vec![0, 3], false)?,
        initial: vec![
            ("r1", vec![Tuple::ints([1, 2])]),
            ("r2", vec![Tuple::ints([2, 3])]),
        ],
        updates: vec![
            Update::delete("r1", Tuple::ints([1, 2])),
            Update::delete("r2", Tuple::ints([2, 3])),
        ],
        expected_final: SignedBag::new(),
        keyed: false,
    })
}

/// Example 4 (§5.3): ECA handling three insertions into three relations.
pub fn example4() -> Result<Scenario, CoreError> {
    Ok(Scenario {
        name: "example4",
        description: "ECA with three inserts before any answer",
        view: view_3rel()?,
        initial: vec![
            ("r1", vec![Tuple::ints([1, 2])]),
            ("r2", vec![]),
            ("r3", vec![]),
        ],
        updates: vec![
            Update::insert("r1", Tuple::ints([4, 2])),
            Update::insert("r3", Tuple::ints([5, 3])),
            Update::insert("r2", Tuple::ints([2, 5])),
        ],
        expected_final: bag(&[&[1], &[4]]),
        keyed: false,
    })
}

/// Example 5 (§5.4): ECA-Key with two inserts and a delete.
pub fn example5() -> Result<Scenario, CoreError> {
    Ok(Scenario {
        name: "example5",
        description: "ECA-Key: local key-delete plus duplicate suppression",
        view: view_2rel(vec![0, 3], true)?,
        initial: vec![
            ("r1", vec![Tuple::ints([1, 2])]),
            ("r2", vec![Tuple::ints([2, 3])]),
        ],
        updates: vec![
            Update::insert("r2", Tuple::ints([2, 4])),
            Update::insert("r1", Tuple::ints([3, 2])),
            Update::delete("r1", Tuple::ints([1, 2])),
        ],
        expected_final: bag(&[&[3, 3], &[3, 4]]),
        keyed: true,
    })
}

/// Example 7 (App. A): three inserts with an interleaved answer.
pub fn example7() -> Result<Scenario, CoreError> {
    Ok(Scenario {
        name: "example7",
        description: "ECA with answers interleaved between updates",
        view: view_3rel()?,
        initial: vec![
            ("r1", vec![Tuple::ints([1, 2])]),
            ("r2", vec![]),
            ("r3", vec![]),
        ],
        updates: vec![
            Update::insert("r1", Tuple::ints([4, 2])),
            Update::insert("r3", Tuple::ints([5, 3])),
            Update::insert("r2", Tuple::ints([2, 5])),
        ],
        expected_final: bag(&[&[1], &[4]]),
        keyed: false,
    })
}

/// Example 8 (App. A): two deletions under ECA.
pub fn example8() -> Result<Scenario, CoreError> {
    Ok(Scenario {
        name: "example8",
        description: "ECA with two deletions emptying the view",
        view: view_2rel(vec![0], false)?,
        initial: vec![
            ("r1", vec![Tuple::ints([1, 2]), Tuple::ints([4, 2])]),
            ("r2", vec![Tuple::ints([2, 3])]),
        ],
        updates: vec![
            Update::delete("r1", Tuple::ints([4, 2])),
            Update::delete("r2", Tuple::ints([2, 3])),
        ],
        expected_final: SignedBag::new(),
        keyed: false,
    })
}

/// Example 9 (App. A): a deletion racing an insertion.
pub fn example9() -> Result<Scenario, CoreError> {
    Ok(Scenario {
        name: "example9",
        description: "ECA with a delete racing an insert",
        view: view_2rel(vec![0], false)?,
        initial: vec![
            ("r1", vec![Tuple::ints([1, 2]), Tuple::ints([4, 2])]),
            ("r2", vec![]),
        ],
        updates: vec![
            Update::delete("r1", Tuple::ints([4, 2])),
            Update::insert("r2", Tuple::ints([2, 3])),
        ],
        expected_final: bag(&[&[1]]),
        keyed: false,
    })
}

/// All canned scenarios in paper order.
///
/// # Errors
/// Never in practice; propagates view validation.
pub fn all() -> Result<Vec<Scenario>, CoreError> {
    [
        example1, example2, example3, example4, example5, example7, example8, example9,
    ]
    .iter()
    .map(|scenario| scenario())
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eca_core::BaseDb;

    /// Every scenario's `expected_final` must equal the view evaluated on
    /// the base data after all updates.
    #[test]
    fn expected_finals_are_self_consistent() {
        for sc in all().unwrap() {
            let mut db = BaseDb::for_view(&sc.view);
            for (rel, tuples) in &sc.initial {
                for t in tuples {
                    db.insert(rel, t.clone());
                }
            }
            for u in &sc.updates {
                assert!(db.apply(u), "{}: ineffective update {u:?}", sc.name);
            }
            let v = sc.view.eval(&db).unwrap();
            assert_eq!(v, sc.expected_final, "{}", sc.name);
        }
    }

    #[test]
    fn keyed_flags_match_views() {
        for sc in all().unwrap() {
            assert_eq!(sc.view.is_fully_keyed(), sc.keyed, "{}", sc.name);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = all().unwrap().iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all().unwrap().len());
    }
}
