//! The traced run: the workload's exact operation sequence replayed
//! in-process — no HTTP — through the same public calls the server's
//! handlers make, with a span recorded around each call into a layer.
//! Spans stay in memory and are written out once, at the end.

use crate::plan::{Op, Plan};
use crate::stats::{ms, percentile};
use axml::json::{result_header, result_value_json, Json};
use axml::{query_handle, Engine, EvalOptions, Lane, Pool, QueryRegistry, Route, StreamItem};
use std::collections::HashMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// What a span covers. Names follow the crate that does the work.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Name {
    /// One whole operation (the root of its spans).
    Op,
    /// `QueryRegistry::get`.
    RegistryGet,
    /// `PreparedQuery::eval_stream_with`: bind and specialize, or the
    /// whole evaluation on the materializing routes.
    Open(Route),
    /// The first `EvalCursor::next`.
    FirstPiece,
    /// The remaining `EvalCursor::next` calls.
    Drain,
    /// `json::result_header` plus every piece's `json`.
    Json,
    /// `Engine::load_document`.
    Load,
    /// `QueryRegistry::prepare` of a new text.
    Prepare,
    /// `Engine::edit_document_text`.
    Edit,
    /// `Engine::remove_document`.
    Remove,
}

impl Name {
    pub fn label(self) -> &'static str {
        match self {
            Name::Op => "op",
            Name::RegistryGet => "axml.registry_get",
            Name::Open(Route::Direct) => "axml.open.direct",
            Name::Open(Route::ViaNrc) => "axml.open.via-nrc",
            Name::Open(Route::Shredded) => "axml.open.shredded",
            Name::Open(Route::Differential) => "axml.open.differential",
            Name::FirstPiece => "axml.first_piece",
            Name::Drain => "axml.drain",
            Name::Json => "json.serialize",
            Name::Load => "uxml.load",
            Name::Prepare => "core.prepare",
            Name::Edit => "axml.edit",
            Name::Remove => "axml.remove",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: Name,
    pub op: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. Spans nest by call structure: the open
/// span at the top of the stack is the parent of the next one.
pub struct Tracer {
    base: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    /// The operation id stamped on the spans recorded next.
    pub op: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            base: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    pub fn span<T>(&mut self, name: Name, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
        out
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children never overlap: they run sequentially
    /// inside the parent).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child[s.parent as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Write every span as one tab-separated line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tspan\tparent\tstart_ns\tend_ns\tself_ns")?;
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                self.spans[s.parent as usize].name.label().to_string()
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.op,
                s.name.label(),
                parent,
                s.start_ns,
                s.end_ns,
                self_ns
            )?;
        }
        out.flush()
    }
}

/// The server's lane rule for `POST /eval`: a query whose cost history
/// reaches 1 ms is scheduled expensive; without history, the fixpoint
/// routes start expensive and the plan routes cheap.
fn lane(registry: &QueryRegistry, handle: &str, route: Route) -> Lane {
    match registry.cost_hint(handle) {
        Some(ns) if ns >= 1_000_000 => Lane::Expensive,
        Some(_) => Lane::Cheap,
        None => match route {
            Route::Shredded | Route::Differential => Lane::Expensive,
            Route::Direct | Route::ViaNrc => Lane::Cheap,
        },
    }
}

/// A fresh engine, registry and two-worker pool: the server's state,
/// without the server.
pub struct Replay<'p> {
    plan: &'p Plan,
    handles: Vec<String>,
    engine: Engine,
    registry: QueryRegistry,
    pool: Pool,
}

impl<'p> Replay<'p> {
    pub fn new(plan: &'p Plan, pool_workers: usize) -> Replay<'p> {
        Replay {
            plan,
            handles: plan.queries.iter().map(|q| query_handle(q)).collect(),
            engine: Engine::new(),
            registry: QueryRegistry::new(),
            pool: Pool::new(pool_workers),
        }
    }

    /// Run `op` as its HTTP handler would, returning the response body
    /// length for evaluations (0 otherwise).
    pub fn exec(&self, op: &Op, t: &mut Tracer) -> Result<usize, String> {
        let fail = |e: axml::AxmlError| e.to_string();
        match op {
            Op::Put { doc, tree } => {
                let text = tree.render();
                t.span(Name::Load, |_| self.engine.load_document(doc, &text))
                    .map_err(fail)?
            }
            Op::Patch { doc, edit, .. } => {
                let script = edit.script();
                t.span(Name::Edit, |_| self.engine.edit_document_text(doc, &script))
                    .map_err(fail)?;
            }
            Op::Delete { doc } => {
                if !t.span(Name::Remove, |_| self.engine.remove_document(doc)) {
                    return Err(format!("no document {doc:?} to remove"));
                }
            }
            Op::Prepare { query } => {
                let src = &self.plan.queries[*query];
                t.span(Name::Prepare, |_| self.registry.prepare(src))
                    .map_err(fail)?;
            }
            Op::Eval {
                query,
                kind,
                route,
                parallelism,
            } => return self.eval(&self.handles[*query], *kind, *route, *parallelism, t),
        }
        Ok(0)
    }

    fn eval(
        &self,
        handle: &str,
        kind: axml::SemiringKind,
        route: Route,
        parallelism: usize,
        t: &mut Tracer,
    ) -> Result<usize, String> {
        let prepared = t
            .span(Name::RegistryGet, |_| self.registry.get(handle))
            .ok_or_else(|| format!("unknown handle {handle}"))?;
        let mut opts = EvalOptions::new().semiring(kind).route(route);
        if parallelism > 1 {
            opts = opts.parallel(parallelism);
        }
        opts = opts.lane(lane(&self.registry, handle, route));
        let started = Instant::now();
        let mut cursor = t
            .span(Name::Open(route), |_| {
                prepared.eval_stream_with(&self.engine, opts, &[], Some(&self.pool))
            })
            .map_err(|e| e.to_string())?;
        let first = t.span(Name::FirstPiece, |_| cursor.next());
        let rest: Vec<_> = t.span(Name::Drain, |_| cursor.by_ref().collect());
        drop(cursor);
        let body = t.span(Name::Json, |_| -> Result<String, String> {
            let mut body = result_header(prepared.source(), &opts);
            match first {
                None => body.push_str("[]"),
                Some(Err(e)) => return Err(e.to_string()),
                Some(Ok(StreamItem::Scalar(out))) => {
                    let mut j = Json::new();
                    result_value_json(&mut j, &out);
                    body.push_str(&j.finish());
                }
                Some(Ok(StreamItem::Piece(p))) => {
                    body.push('[');
                    body.push_str(&p.json());
                    for item in rest {
                        match item.map_err(|e| e.to_string())? {
                            StreamItem::Piece(p) => {
                                body.push(',');
                                body.push_str(&p.json());
                            }
                            StreamItem::Scalar(_) => return Err("scalar after a piece".into()),
                        }
                    }
                    body.push(']');
                }
            }
            body.push_str("}\n");
            Ok(body)
        })?;
        self.registry
            .record_cost(handle, started.elapsed().as_nanos() as u64);
        Ok(body.len())
    }
}

/// Per-layer timings from a finished trace: for each span name, the
/// self time it took per operation, as p50/p90 over the operations
/// that called it, and the number of calls.
pub struct LayerTimes {
    pub per_op_ms: HashMap<Name, Vec<f64>>,
    pub calls: HashMap<Name, u64>,
}

impl LayerTimes {
    pub fn from(t: &Tracer) -> LayerTimes {
        let mut per_op: HashMap<(Name, u32), u64> = HashMap::new();
        let mut calls = HashMap::new();
        for (s, self_ns) in t.spans.iter().zip(t.self_ns()) {
            *per_op.entry((s.name, s.op)).or_default() += self_ns;
            *calls.entry(s.name).or_default() += 1;
        }
        let mut per_op_ms: HashMap<Name, Vec<f64>> = HashMap::new();
        for ((name, _), ns) in per_op {
            per_op_ms
                .entry(name)
                .or_default()
                .push(ms(Duration::from_nanos(ns)));
        }
        LayerTimes { per_op_ms, calls }
    }

    /// The `q`-quantile of per-operation self time over all the names
    /// `pick` selects, or an error naming the layer when too few
    /// operations called it.
    pub fn quantile(
        &self,
        label: &str,
        pick: impl Fn(Name) -> bool,
        q: f64,
    ) -> Result<f64, String> {
        let samples: Vec<f64> = self
            .per_op_ms
            .iter()
            .filter(|(n, _)| pick(**n))
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        percentile(&samples, q).ok_or_else(|| {
            format!(
                "{label}: {} traced operations are too few for p{}",
                samples.len(),
                (q * 100.0).round()
            )
        })
    }

    pub fn calls(&self, pick: impl Fn(Name) -> bool) -> u64 {
        self.calls
            .iter()
            .filter(|(n, _)| pick(**n))
            .map(|(_, c)| c)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span(Name::Op, |t| {
            std::thread::sleep(Duration::from_millis(2));
            t.span(Name::Load, |_| std::thread::sleep(Duration::from_millis(5)));
        });
        let self_ns = t.self_ns();
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(self_ns[0] + self_ns[1], t.spans[0].dur_ns());
        assert!(self_ns[1] >= 5_000_000 && self_ns[0] >= 2_000_000);
    }
}
