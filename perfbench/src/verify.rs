//! Expected responses, computed in-process. An evaluation's expected
//! body is `axml::json::result_json` of the same request, evaluated on
//! a fresh engine that holds only the document as it stood at that
//! point of the sequence — no edit history, no caches. Edits are
//! applied to the generated trees ([`crate::doc`]), not through the
//! engine, and the fresh engine loads their re-rendered text.

use crate::client::body_hash;
use crate::doc::Node;
use crate::plan::{Op, Plan};
use axml::json::result_json;
use axml::{query_handle, Engine, EvalOptions, Route, SemiringKind};
use std::collections::HashMap;

/// What a correct response to one operation looks like.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// The body hashes to this.
    Hash(u64),
    /// The body starts with this (edit responses also report counters
    /// that depend on what the arenas already held).
    Prefix(String),
}

impl Expect {
    pub fn accepts(&self, hash: u64, body: &[u8]) -> bool {
        match self {
            Expect::Hash(h) => *h == hash,
            Expect::Prefix(p) => body.starts_with(p.as_bytes()),
        }
    }

    /// Whether checking this expectation needs the body itself.
    pub fn needs_body(op: &Op) -> bool {
        matches!(op, Op::Patch { .. } | Op::Prepare { .. })
    }
}

fn eval_body(
    engine: &Engine,
    src: &str,
    kind: SemiringKind,
    route: Route,
) -> Result<String, String> {
    let prepared = engine.prepare(src).map_err(|e| e.to_string())?;
    let opts = EvalOptions::new().semiring(kind).route(route);
    let out = prepared.eval(engine, opts).map_err(|e| e.to_string())?;
    Ok(result_json(src, &opts, &out) + "\n")
}

/// Apply a write to the live documents `docs`, returning what its
/// response must look like; `None` for operations that do not write.
fn apply_write(
    docs: &mut HashMap<String, Node>,
    op: &Op,
) -> Result<Option<(String, Expect)>, String> {
    Ok(Some(match op {
        Op::Put { doc, tree } => {
            docs.insert(doc.clone(), tree.clone());
            let body = format!("{{\"document\":\"{doc}\",\"loaded\":true}}\n");
            (doc.clone(), Expect::Hash(body_hash(body.as_bytes())))
        }
        Op::Patch { doc, edit, version } => {
            docs.get_mut(doc)
                .ok_or_else(|| format!("no document {doc:?} to edit"))?
                .apply(edit)
                .map_err(|e| format!("{doc}: {e}"))?;
            // Every generated script is one op.
            let prefix =
                format!("{{\"document\":\"{doc}\",\"version\":{version},\"ops_applied\":1,");
            (doc.clone(), Expect::Prefix(prefix))
        }
        Op::Delete { doc } => {
            if docs.remove(doc).is_none() {
                return Err(format!("no document {doc:?} to remove"));
            }
            let body = format!("{{\"document\":\"{doc}\",\"removed\":true}}\n");
            (doc.clone(), Expect::Hash(body_hash(body.as_bytes())))
        }
        Op::Prepare { .. } | Op::Eval { .. } => return Ok(None),
    }))
}

/// The expected response of every operation in `ops`, run after the
/// plan's set-up. Every document is tracked through the writes as a
/// generated tree; each evaluation is checked against a fresh engine
/// that loads the text of only the documents its query reads, as they
/// stand at that point.
pub fn expectations(plan: &Plan, ops: &[Op]) -> Result<Vec<Expect>, String> {
    let mut live = HashMap::new();
    for op in &plan.setup {
        apply_write(&mut live, op)?;
    }
    let reads: Vec<Vec<String>> = plan
        .queries
        .iter()
        .map(|q| Engine::new().prepare(q).map(|p| p.free_vars().to_vec()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    // Fresh engines by the documents they hold, and expected body
    // hashes by request; both forget a document when it is written.
    let mut engines: HashMap<Vec<String>, Engine> = HashMap::new();
    let mut memo: HashMap<(usize, SemiringKind, Route), u64> = HashMap::new();
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        if let Some((doc, expect)) = apply_write(&mut live, op)? {
            engines.retain(|docs, _| !docs.contains(&doc));
            memo.retain(|(q, _, _), _| !reads[*q].contains(&doc));
            out.push(expect);
            continue;
        }
        out.push(match op {
            Op::Prepare { query } => Expect::Prefix(format!(
                "{{\"handle\":\"{}\",",
                query_handle(&plan.queries[*query])
            )),
            Op::Eval {
                query, kind, route, ..
            } => {
                let key = (*query, *kind, *route);
                let hash = match memo.get(&key) {
                    Some(h) => *h,
                    None => {
                        let docs = &reads[*query];
                        if !engines.contains_key(docs) {
                            let e = Engine::new();
                            for doc in docs {
                                if let Some(tree) = live.get(doc) {
                                    e.load_document(doc, &tree.render())
                                        .map_err(|e| format!("{doc}: {e}"))?;
                                }
                            }
                            engines.insert(docs.clone(), e);
                        }
                        let engine = &engines[docs];
                        let body = eval_body(engine, &plan.queries[*query], *kind, *route)?;
                        *memo.entry(key).or_insert(body_hash(body.as_bytes()))
                    }
                };
                Expect::Hash(hash)
            }
            _ => unreachable!("writes are handled above"),
        });
    }
    Ok(out)
}
