//! Parser for `warehouse_demo` scenario files.
//!
//! Line-oriented; `#` starts a comment. Directives:
//!
//! ```text
//! relation r1(W, X) key(W) cluster(X)
//! load r1 (1,2) (3,4)
//! view V = SELECT r1.W FROM r1, r2 WHERE r1.X = r2.X
//! algorithm ECA            # Basic|ECA|ECA*|ECA-Key|ECA-Local|LCA|SC|RV:s|Batch:n
//! policy adversarial       # serial|adversarial|random:SEED
//! insert r2 (2,3)
//! delete r1 (1,2)
//! ```

use eca_core::algorithms::AlgorithmKind;
use eca_relational::{Schema, Tuple, Update, Value};
use eca_sim::Policy;

/// A parsed scenario: declarations, script and run configuration.
#[derive(Debug)]
pub struct ScenarioFile {
    /// Declared base relations.
    pub relations: Vec<RelationDecl>,
    /// Initial tuples per relation.
    pub loads: Vec<(String, Vec<Tuple>)>,
    /// View name and SQL text.
    pub view_sql: Option<(String, String)>,
    /// The maintenance algorithm to instantiate.
    pub algorithm: AlgorithmKind,
    /// The interleaving policy.
    pub policy: Policy,
    /// The scripted updates, in order.
    pub updates: Vec<Update>,
}

/// One declared relation with its physical layout.
#[derive(Debug)]
pub struct RelationDecl {
    /// The schema (with keys, if declared).
    pub schema: Schema,
    /// Clustering attribute, if declared.
    pub cluster: Option<String>,
}

pub(crate) fn fail_at(line_no: usize, message: impl std::fmt::Display) -> String {
    format!("line {line_no}: {message}")
}

/// Parse `(v1,v2,…)` into a tuple.
fn parse_tuple(text: &str) -> Result<Tuple, String> {
    let trimmed = text.trim();
    let inner = trimmed
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| format!("expected (v1,v2,...), got {trimmed:?}"))?;
    let values: Result<Vec<Value>, String> = inner
        .split(',')
        .map(|v| {
            let v = v.trim();
            if let Ok(i) = v.parse::<i64>() {
                Ok(Value::Int(i))
            } else if v.starts_with('\'') && v.ends_with('\'') && v.len() >= 2 {
                Ok(Value::str(&v[1..v.len() - 1]))
            } else {
                Err(format!("bad value {v:?} (integer or 'string')"))
            }
        })
        .collect();
    Ok(Tuple::new(values?))
}

fn parse_relation_decl(rest: &str) -> Result<RelationDecl, String> {
    // r1(W, X) [key(W[,B])] [cluster(X)]
    let open = rest.find('(').ok_or("expected relation(attrs...)")?;
    let name = rest[..open].trim().to_owned();
    let close = rest[open..].find(')').ok_or("unclosed attribute list")? + open;
    let attrs: Vec<&str> = rest[open + 1..close].split(',').map(str::trim).collect();
    let tail = &rest[close + 1..];

    let extract = |keyword: &str| -> Option<Vec<String>> {
        let at = tail.find(keyword)?;
        let seg = &tail[at + keyword.len()..];
        let open = seg.find('(')?;
        let close = seg.find(')')?;
        Some(
            seg[open + 1..close]
                .split(',')
                .map(|s| s.trim().to_owned())
                .collect(),
        )
    };
    let keys = extract("key");
    let cluster = extract("cluster").and_then(|v| v.into_iter().next());

    let schema = match keys {
        Some(keys) => {
            let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
            Schema::with_key(&name, &attrs, &key_refs).map_err(|e| e.to_string())?
        }
        None => Schema::new(&name, &attrs),
    };
    Ok(RelationDecl { schema, cluster })
}

fn parse_algorithm(text: &str) -> Result<AlgorithmKind, String> {
    let text = text.trim();
    if let Some(s) = text.strip_prefix("RV:") {
        let period = s.parse().map_err(|_| format!("bad RV period {s:?}"))?;
        return Ok(AlgorithmKind::RecomputeView { period });
    }
    if let Some(s) = text.strip_prefix("Batch:") {
        let n = s.parse().map_err(|_| format!("bad batch size {s:?}"))?;
        return Ok(AlgorithmKind::BatchEca { batch_size: n });
    }
    Ok(match text {
        "Basic" => AlgorithmKind::Basic,
        "ECA" => AlgorithmKind::Eca,
        "ECA*" => AlgorithmKind::EcaOptimized,
        "ECA-Key" => AlgorithmKind::EcaKey,
        "ECA-Local" => AlgorithmKind::EcaLocal,
        "LCA" => AlgorithmKind::Lca,
        "SC" => AlgorithmKind::StoreCopies,
        other => return Err(format!("unknown algorithm {other:?}")),
    })
}

fn parse_policy(text: &str) -> Result<Policy, String> {
    let text = text.trim();
    if let Some(s) = text.strip_prefix("random:") {
        let seed = s.parse().map_err(|_| format!("bad seed {s:?}"))?;
        return Ok(Policy::Random { seed });
    }
    Ok(match text {
        "serial" => Policy::Serial,
        "adversarial" => Policy::AllUpdatesFirst,
        other => return Err(format!("unknown policy {other:?}")),
    })
}

/// Parse a full scenario file.
///
/// # Errors
/// A human-readable message naming the offending line.
pub fn parse_scenario(text: &str) -> Result<ScenarioFile, String> {
    let mut sf = ScenarioFile {
        relations: Vec::new(),
        loads: Vec::new(),
        view_sql: None,
        algorithm: AlgorithmKind::Eca,
        policy: Policy::AllUpdatesFirst,
        updates: Vec::new(),
    };
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (keyword, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        match keyword {
            "relation" => sf
                .relations
                .push(parse_relation_decl(rest).map_err(|e| fail_at(line_no, e))?),
            "load" => {
                let (rel, tuples_text) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| fail_at(line_no, "load <rel> (t) (t) ..."))?;
                let mut tuples = Vec::new();
                for part in tuples_text.split(')').filter(|p| !p.trim().is_empty()) {
                    tuples.push(
                        parse_tuple(&format!("{})", part.trim()))
                            .map_err(|e| fail_at(line_no, e))?,
                    );
                }
                sf.loads.push((rel.to_owned(), tuples));
            }
            "view" => {
                let (name, sql) = rest
                    .split_once('=')
                    .ok_or_else(|| fail_at(line_no, "view <name> = SELECT ..."))?;
                sf.view_sql = Some((name.trim().to_owned(), sql.trim().to_owned()));
            }
            "algorithm" => sf.algorithm = parse_algorithm(rest).map_err(|e| fail_at(line_no, e))?,
            "policy" => sf.policy = parse_policy(rest).map_err(|e| fail_at(line_no, e))?,
            "insert" | "delete" => {
                let (rel, tuple_text) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| fail_at(line_no, format!("{keyword} <rel> (t)")))?;
                let tuple = parse_tuple(tuple_text).map_err(|e| fail_at(line_no, e))?;
                sf.updates.push(if keyword == "insert" {
                    Update::insert(rel, tuple)
                } else {
                    Update::delete(rel, tuple)
                });
            }
            other => return Err(fail_at(line_no, format!("unknown directive {other:?}"))),
        }
    }
    if sf.view_sql.is_none() {
        return Err("scenario declares no view".to_owned());
    }
    Ok(sf)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r"
# comment
relation r1(W, X) key(W) cluster(X)
relation r2(X, Y)
load r1 (1,2) (3,4)
view V = SELECT r1.W FROM r1, r2 WHERE r1.X = r2.X
algorithm Batch:3
policy random:9
insert r2 (2,3)
delete r1 (1,2)
";

    #[test]
    fn parses_a_full_scenario() {
        let sf = parse_scenario(SAMPLE).unwrap();
        assert_eq!(sf.relations.len(), 2);
        assert_eq!(sf.relations[0].schema.relation(), "r1");
        assert!(sf.relations[0].schema.has_key());
        assert_eq!(sf.relations[0].cluster.as_deref(), Some("X"));
        assert_eq!(sf.loads[0].1.len(), 2);
        assert_eq!(sf.view_sql.as_ref().unwrap().0, "V");
        assert_eq!(sf.algorithm, AlgorithmKind::BatchEca { batch_size: 3 });
        assert_eq!(sf.policy, Policy::Random { seed: 9 });
        assert_eq!(sf.updates.len(), 2);
    }

    #[test]
    fn tuples_parse_ints_and_strings() {
        assert_eq!(parse_tuple("(1, 2)").unwrap(), Tuple::ints([1, 2]));
        assert_eq!(
            parse_tuple("('a', 3)").unwrap(),
            Tuple::new([Value::str("a"), Value::Int(3)])
        );
        assert!(parse_tuple("1,2").is_err());
        assert!(parse_tuple("(x)").is_err());
    }

    #[test]
    fn errors_name_the_line() {
        let err = parse_scenario("view V = SELECT\nbogus directive").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(parse_scenario("insert r1 (1)")
            .unwrap_err()
            .contains("no view"));
    }

    #[test]
    fn algorithm_and_policy_variants() {
        for (text, want) in [
            ("Basic", AlgorithmKind::Basic),
            ("ECA", AlgorithmKind::Eca),
            ("ECA*", AlgorithmKind::EcaOptimized),
            ("ECA-Key", AlgorithmKind::EcaKey),
            ("LCA", AlgorithmKind::Lca),
            ("SC", AlgorithmKind::StoreCopies),
            ("RV:5", AlgorithmKind::RecomputeView { period: 5 }),
        ] {
            assert_eq!(parse_algorithm(text).unwrap(), want, "{text}");
        }
        assert!(parse_algorithm("nope").is_err());
        assert_eq!(parse_policy("serial").unwrap(), Policy::Serial);
        assert_eq!(
            parse_policy("adversarial").unwrap(),
            Policy::AllUpdatesFirst
        );
        assert!(parse_policy("chaotic").is_err());
    }
}
