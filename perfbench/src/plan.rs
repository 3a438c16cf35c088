//! Seeded workload generation: documents, query texts and the exact
//! operation sequence of each workload. The same seed gives a
//! byte-identical sequence; the server only ever sees what is
//! generated here.

use crate::client::request;
use crate::doc::{Change, Edit, Node};
use axml::{query_handle, Route, SemiringKind};

/// SplitMix64: small, fast, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// Each of `items` `times` times, in shuffled order.
    pub fn repeats<T: Clone>(&mut self, items: &[T], times: usize) -> Vec<T> {
        self.balanced(items, items.len() * times)
    }

    /// `n` items drawn from `labels` in equal shares (as far as `n`
    /// divides), in shuffled order: every seed gives documents of the
    /// same make-up.
    pub fn balanced<T: Clone>(&mut self, labels: &[T], n: usize) -> Vec<T> {
        let mut out: Vec<T> = (0..n).map(|i| labels[i % labels.len()].clone()).collect();
        self.shuffle(&mut out);
        out
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeHeavy,
    DocChurn,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ServeHeavy, Workload::DocChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHeavy => "serve_heavy",
            Workload::DocChurn => "doc_churn",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One request of a workload.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// `PUT /documents/{doc}` of the rendered `tree`.
    Put { doc: String, tree: Node },
    /// `PATCH /documents/{doc}` with the script of `edit`, publishing
    /// document version `version`.
    Patch {
        doc: String,
        edit: Edit,
        version: u64,
    },
    /// `DELETE /documents/{doc}`.
    Delete { doc: String },
    /// `POST /prepare` of `Plan::queries[query]`.
    Prepare { query: usize },
    /// `POST /eval?handle=…` of `Plan::queries[query]`.
    Eval {
        query: usize,
        kind: SemiringKind,
        route: Route,
        parallelism: usize,
    },
}

/// The operation classes that latencies and failures are reported by.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Eval,
    Edit,
    Load,
    Remove,
    Prepare,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::Eval,
        Class::Edit,
        Class::Load,
        Class::Remove,
        Class::Prepare,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Eval => "eval",
            Class::Edit => "edit",
            Class::Load => "load",
            Class::Remove => "remove",
            Class::Prepare => "prepare",
        }
    }
}

impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::Put { .. } => Class::Load,
            Op::Patch { .. } => Class::Edit,
            Op::Delete { .. } => Class::Remove,
            Op::Prepare { .. } => Class::Prepare,
            Op::Eval { .. } => Class::Eval,
        }
    }
}

/// Everything one workload sends, in order.
pub struct Plan {
    pub workload: Workload,
    pub queries: Vec<String>,
    /// Corpus loads, prepares and warm-up requests, run once before
    /// timing starts.
    pub setup: Vec<Op>,
    /// The timed sequence; the timed phase repeats it from the start
    /// when it runs out. It leaves the server's documents as it found
    /// them, so every repetition is served the same way.
    pub timed: Vec<Op>,
}

impl Plan {
    pub fn build(workload: Workload, seed: u64) -> Plan {
        let mut g = Gen {
            rng: Rng::new(seed),
            label: 0,
            var: 0,
        };
        match workload {
            Workload::ServeHeavy => serve_heavy(&mut g),
            Workload::DocChurn => doc_churn(&mut g),
        }
    }

    /// The HTTP bytes of `op`.
    pub fn request(&self, op: &Op) -> Vec<u8> {
        match op {
            Op::Put { doc, tree } => request(
                "PUT",
                &format!("/documents/{doc}"),
                tree.render().as_bytes(),
            ),
            Op::Patch { doc, edit, .. } => request(
                "PATCH",
                &format!("/documents/{doc}"),
                edit.script().as_bytes(),
            ),
            Op::Delete { doc } => request("DELETE", &format!("/documents/{doc}"), b""),
            Op::Prepare { query } => request("POST", "/prepare", self.queries[*query].as_bytes()),
            Op::Eval {
                query,
                kind,
                route,
                parallelism,
            } => {
                let mut target = format!(
                    "/eval?handle={}&semiring={}&route={}",
                    query_handle(&self.queries[*query]),
                    kind.name(),
                    route.name()
                );
                if *parallelism > 1 {
                    target.push_str(&format!("&parallelism={parallelism}"));
                }
                request("POST", &target, b"")
            }
        }
    }

    /// Every request of the plan, concatenated in order.
    #[cfg(test)]
    pub fn bytes(&self) -> Vec<u8> {
        let ops = self.setup.iter().chain(&self.timed);
        ops.flat_map(|op| self.request(op)).collect()
    }
}

/// Document and edit generator. Every text label and variable it
/// writes is fresh, so no two generated subtrees are value-equal:
/// siblings never merge, and child-index paths stay valid.
struct Gen {
    rng: Rng,
    label: u64,
    var: u64,
}

impl Gen {
    fn label(&mut self) -> String {
        self.label += 1;
        format!("t{}", self.label)
    }

    /// A fresh annotation: mostly a new variable, sometimes a constant.
    fn ann(&mut self) -> String {
        if self.rng.below(8) == 0 {
            format!("{}", 2 + self.rng.below(3))
        } else {
            self.var += 1;
            format!("x{}", self.var)
        }
    }

    /// `<l {x}> t </l>`: a leaf element over one fresh text label.
    fn leaf(&mut self, l: &str) -> Node {
        let ann = self.ann();
        Node::new(l.into(), Some(ann), vec![Node::text(self.label())])
    }

    /// A root over `sections` sections of `leaves` leaf elements:
    /// `1 + sections·(1 + 2·leaves)` nodes.
    fn sectioned(&mut self, root: &str, sections: usize, leaves: usize) -> Node {
        let ann = self.ann();
        let mut kids = Vec::with_capacity(sections);
        for l in self.rng.balanced(&["a", "b"], sections) {
            let ann = self.ann();
            let labels = self.rng.balanced(&["c", "d", "e"], leaves);
            let leaves = labels.into_iter().map(|leaf| self.leaf(leaf)).collect();
            kids.push(Node::new(l.into(), Some(ann), leaves));
        }
        Node::new(root.into(), Some(ann), kids)
    }

    /// `levels` nested elements, each holding `leaves` leaf elements
    /// besides the next level: `levels·(1 + 2·leaves)` nodes.
    fn deep(&mut self, levels: usize, leaves: usize) -> Node {
        let mut outer_first = Vec::with_capacity(levels);
        for _ in 0..levels {
            let ann = self.ann();
            let labels = self.rng.balanced(&["c", "d", "e", "f"], leaves);
            let kids: Vec<Node> = labels.into_iter().map(|leaf| self.leaf(leaf)).collect();
            outer_first.push((ann, kids));
        }
        let mut inner: Option<Node> = None;
        for (level, (ann, mut kids)) in outer_first.into_iter().enumerate().rev() {
            kids.extend(inner);
            inner = Some(Node::new(format!("n{}", level % 4), Some(ann), kids));
        }
        inner.expect("at least one level")
    }

    /// One small edit of a `sectioned` document: re-annotate a leaf
    /// element, or splice a fresh one in its place.
    fn sectioned_edit(&mut self, sections: usize, leaves: usize) -> Edit {
        let path = vec![0, self.rng.below(sections), self.rng.below(leaves)];
        let change = if self.rng.below(2) == 0 {
            Change::Reannotate(self.ann())
        } else {
            Change::Splice(Node::new("c".into(), None, vec![Node::text(self.label())]))
        };
        Edit { path, change }
    }
}

/// Writes of `serve_heavy`: `WRITE_CYCLES` cycles over `WRITE_NAMES`
/// documents the reads never touch, each cycle loading one of them,
/// editing it `WRITE_EDITS` times with one-op scripts, and removing it.
/// The documents come round again from cycle `WRITE_NAMES` on, so these
/// time writes rather than the growth of the append-only arenas, which
/// `doc_churn` measures. The workload interleaves them with reads:
/// back-to-back writes alone ran at one of two speeds per run, depending
/// on how the threads were placed. The first edit after a load sets up
/// the document's incremental state and is the slow one; at 25 edits a
/// cycle those are 4% of all edits, so `edit_p90_ms` falls inside the
/// steady class, not on its edge.
const WRITE_CYCLES: usize = 40;
const WRITE_NAMES: usize = 4;
const WRITE_EDITS: usize = 25;

fn write_cycles(g: &mut Gen) -> Vec<Op> {
    let mut writes = Vec::new();
    let trees: Vec<Node> = (0..WRITE_NAMES)
        .map(|_| g.sectioned("doc", CHURN_SECTIONS, CHURN_LEAVES))
        .collect();
    for cycle in 0..WRITE_CYCLES {
        let name = format!("w{}", cycle % WRITE_NAMES);
        writes.push(Op::Put {
            doc: name.clone(),
            tree: trees[cycle % WRITE_NAMES].clone(),
        });
        for e in 0..WRITE_EDITS {
            writes.push(Op::Patch {
                doc: name.clone(),
                edit: g.sectioned_edit(CHURN_SECTIONS, CHURN_LEAVES),
                version: e as u64 + 1,
            });
        }
        writes.push(Op::Delete { doc: name });
    }
    writes
}

// serve_heavy: a few deep documents, fixpoint-route evaluations.
const HEAVY_DOCS: usize = 4;
const HEAVY_LEVELS: usize = 24;
const HEAVY_LEAVES: usize = 24;
/// 16 distinct reads × 135 = 2160 reads, carrying the writes (1080)
/// round six times.
const HEAVY_REPEATS: usize = 135;
/// Passes over the distinct reads in set-up. One pass took about 0.6 s
/// and its median of five moved by up to 25% between runs; more passes
/// make set-up long enough for scheduling noise to average out.
const HEAVY_WARM_PASSES: usize = 4;

fn serve_heavy(g: &mut Gen) -> Plan {
    let mut setup = Vec::new();
    let mut queries = Vec::new();
    let mut distinct = Vec::new();
    for i in 0..HEAVY_DOCS {
        let h = format!("h{i}");
        setup.push(Op::Put {
            doc: h.clone(),
            tree: g.deep(HEAVY_LEVELS, HEAVY_LEAVES),
        });
        // Three large-result selections on the shredded route to one
        // descendant-of-descendant query on the differential route; a
        // fifth text is prepared but never evaluated, as in a registry
        // that holds more than the hot set.
        for (shape, route) in [
            ("//n1/*", Some(Route::Shredded)),
            ("//n2/*", Some(Route::Shredded)),
            ("//n3/*", Some(Route::Shredded)),
            ("//n3//d", Some(Route::Differential)),
            ("/c", None),
        ] {
            if let Some(route) = route {
                distinct.push(Op::Eval {
                    query: queries.len(),
                    kind: SemiringKind::NatPoly,
                    route,
                    parallelism: 2,
                });
            }
            queries.push(format!("${h}{shape}"));
        }
    }
    // Prepare every query, then evaluate each distinct read
    // `HEAVY_WARM_PASSES` times.
    setup.extend((0..queries.len()).map(|query| Op::Prepare { query }));
    for _ in 0..HEAVY_WARM_PASSES {
        setup.extend(distinct.iter().cloned());
    }
    // Three writes after each read, on churn-shaped documents: edits of the
    // deep documents cost what each seed's documents happen to make them
    // cost. Reads and writes run out together, so the sequence repeats
    // from a clean state.
    let writes = write_cycles(g);
    let reads = g.rng.repeats(&distinct, HEAVY_REPEATS);
    assert_eq!(3 * reads.len() % writes.len(), 0);
    let timed = reads
        .into_iter()
        .zip(writes.chunks(3).cycle())
        .flat_map(|(r, w)| std::iter::once(r).chain(w.iter().cloned()))
        .collect();
    Plan {
        workload: Workload::ServeHeavy,
        queries,
        setup,
        timed,
    }
}

// doc_churn: load, read, edit and remove cycles over a few names.
const CHURN_NAMES: usize = 4;
const CHURN_SECTIONS: usize = 16;
const CHURN_LEAVES: usize = 30;
/// Cycles in one pass of the timed sequence (each loads a distinct
/// document version) and in the warm-up.
const CHURN_CYCLES: usize = 32;
const CHURN_WARM_CYCLES: usize = 8;
/// Edit + read pairs per cycle; one read in four is on the shredded
/// route.
const CHURN_PAIRS: usize = 8;
/// Queries per name: four read a fresh version in four semirings, on
/// the direct and via-NRC routes, two follow its edits (direct and
/// shredded route).
const CHURN_FULL_READS: [(SemiringKind, Route); 4] = [
    (SemiringKind::NatPoly, Route::Direct),
    (SemiringKind::Nat, Route::ViaNrc),
    (SemiringKind::Tropical, Route::Direct),
    (SemiringKind::Why, Route::ViaNrc),
];

fn doc_churn(g: &mut Gen) -> Plan {
    let mut queries = Vec::new();
    for i in 0..CHURN_NAMES {
        let c = format!("c{i}");
        queries.extend([
            format!("${c}//c"),
            format!("${c}//d"),
            format!("${c}//e"),
            format!("${c}/a/*"),
            format!("${c}/*/c"),
            format!("${c}/*/d"),
        ]);
    }
    let per_name = queries.len() / CHURN_NAMES;
    let cycle = |g: &mut Gen, n: usize| {
        let doc = format!("c{}", n % CHURN_NAMES);
        let q0 = (n % CHURN_NAMES) * per_name;
        let mut ops = vec![Op::Put {
            doc: doc.clone(),
            tree: g.sectioned("doc", CHURN_SECTIONS, CHURN_LEAVES),
        }];
        for (k, (kind, route)) in CHURN_FULL_READS.into_iter().enumerate() {
            ops.push(Op::Eval {
                query: q0 + k,
                kind,
                route,
                parallelism: 1,
            });
        }
        let routes = g.rng.balanced(&[false, false, false, true], CHURN_PAIRS);
        for (p, shredded) in routes.into_iter().enumerate() {
            ops.push(Op::Patch {
                doc: doc.clone(),
                edit: g.sectioned_edit(CHURN_SECTIONS, CHURN_LEAVES),
                version: p as u64 + 1,
            });
            ops.push(Op::Eval {
                query: q0 + 4 + usize::from(shredded),
                kind: SemiringKind::NatPoly,
                route: if shredded {
                    Route::Shredded
                } else {
                    Route::Direct
                },
                parallelism: 1,
            });
        }
        ops.push(Op::Delete { doc });
        ops
    };
    let mut setup: Vec<Op> = (0..queries.len())
        .map(|query| Op::Prepare { query })
        .collect();
    for n in 0..CHURN_WARM_CYCLES {
        setup.extend(cycle(g, n));
    }
    let timed = (0..CHURN_CYCLES).flat_map(|n| cycle(g, n)).collect();
    Plan {
        workload: Workload::DocChurn,
        queries,
        setup,
        timed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes() {
        for w in Workload::ALL {
            let a = Plan::build(w, 42).bytes();
            assert_eq!(a, Plan::build(w, 42).bytes(), "{}", w.name());
            assert_ne!(a, Plan::build(w, 43).bytes(), "{}", w.name());
        }
    }

    #[test]
    fn timed_churn_leaves_no_document_behind() {
        let plan = Plan::build(Workload::DocChurn, 1);
        let mut live = std::collections::BTreeSet::new();
        for op in &plan.timed {
            match op {
                Op::Put { doc, .. } => assert!(live.insert(doc.clone())),
                Op::Delete { doc } => assert!(live.remove(doc)),
                _ => {}
            }
        }
        assert!(live.is_empty());
    }

    /// The engine's edit path and the plain-tree model that verification
    /// uses agree, edit after edit, on both workloads' writes.
    #[test]
    fn edits_match_the_model() {
        for w in Workload::ALL {
            let plan = Plan::build(w, 5);
            let e = axml::Engine::new();
            let mut docs = std::collections::HashMap::new();
            for op in plan.timed.iter().take(400) {
                match op {
                    Op::Put { doc, tree } => {
                        e.load_document(doc, &tree.render()).expect("loads");
                        docs.insert(doc.clone(), tree.clone());
                    }
                    Op::Patch { doc, edit, version } => {
                        let stats = e.edit_document_text(doc, &edit.script()).expect("applies");
                        assert_eq!(stats.version, *version, "{}", edit.script());
                        let model = docs.get_mut(doc).expect("edited documents are loaded");
                        model.apply(edit).expect("the model applies it too");
                        let fresh = axml::Engine::new();
                        fresh.load_document(doc, &model.render()).expect("loads");
                        assert!(
                            e.document(doc) == fresh.document(doc),
                            "{}: {}",
                            w.name(),
                            edit.script()
                        );
                    }
                    Op::Delete { doc } => {
                        assert!(e.remove_document(doc));
                        docs.remove(doc);
                    }
                    Op::Eval { .. } | Op::Prepare { .. } => {}
                }
            }
        }
    }

    #[test]
    fn documents_have_the_intended_size() {
        let mut g = Gen {
            rng: Rng::new(3),
            label: 0,
            var: 0,
        };
        let nodes = |doc: &str| {
            let e = axml::Engine::new();
            e.load_document("x", doc)
                .expect("generated documents parse");
            e.storage_stats().logical_nodes
        };
        assert_eq!(nodes(&g.deep(32, 32).render()), 32 * 65);
        assert_eq!(nodes(&g.sectioned("doc", 16, 30).render()), 1 + 16 * 61);
    }
}
