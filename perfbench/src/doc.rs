//! Generated documents as plain trees, and the leaf edits the workloads
//! send, applied to those trees without the engine.
//!
//! Verification keeps every live document as a [`Node`], applies each
//! `PATCH` to it here and loads the re-rendered text into a fresh engine
//! with `Engine::load_document`. The server's edit path (script parsing,
//! spine rebuild, re-interning, delta maintenance) is thereby checked
//! against code that shares none of it.

use std::cmp::Ordering;

/// One node of a document: an element, or a text node when it has no
/// children and no annotation.
#[derive(Clone, Debug, PartialEq)]
pub struct Node {
    pub label: String,
    /// The annotation written in braces; `None` stands for 1.
    pub ann: Option<String>,
    pub kids: Vec<Node>,
    /// Nodes in this subtree.
    size: usize,
}

impl Node {
    pub fn new(label: String, ann: Option<String>, kids: Vec<Node>) -> Node {
        let size = 1 + kids.iter().map(|k| k.size).sum::<usize>();
        Node {
            label,
            ann,
            kids,
            size,
        }
    }

    pub fn text(label: String) -> Node {
        Node::new(label, None, Vec::new())
    }

    /// The document text, in the order the children were generated.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        if self.kids.is_empty() {
            out.push_str(&self.label);
            if let Some(ann) = &self.ann {
                out.push_str(&format!(" {{{ann}}}"));
            }
            return;
        }
        out.push('<');
        out.push_str(&self.label);
        if let Some(ann) = &self.ann {
            out.push_str(&format!(" {{{ann}}}"));
        }
        out.push('>');
        for k in &self.kids {
            out.push(' ');
            k.write(out);
        }
        out.push_str(&format!(" </{}>", self.label));
    }

    /// Document order, as edit paths count it: by label, then by size,
    /// then by the children pairwise in document order. Annotations only
    /// break ties between equal trees, which generated siblings never
    /// are (every text label is fresh), so they are left out here.
    fn cmp_document(&self, other: &Node) -> Ordering {
        self.label
            .cmp(&other.label)
            .then(self.size.cmp(&other.size))
            .then_with(|| {
                let (a, b) = (self.document_kids(), other.document_kids());
                for (x, y) in a.iter().zip(&b) {
                    match self.kids[*x].cmp_document(&other.kids[*y]) {
                        Ordering::Equal => {}
                        o => return o,
                    }
                }
                a.len().cmp(&b.len())
            })
    }

    /// Indices of the children, in document order.
    fn document_kids(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.kids.len()).collect();
        order.sort_by(|a, b| self.kids[*a].cmp_document(&self.kids[*b]));
        order
    }

    /// The node `path` addresses below this one.
    fn at(&mut self, path: &[usize]) -> Result<&mut Node, String> {
        let Some((&i, rest)) = path.split_first() else {
            return Ok(self);
        };
        let order = self.document_kids();
        let Some(&k) = order.get(i) else {
            return Err(format!("index {i} out of range ({} children)", order.len()));
        };
        if order
            .iter()
            .any(|&o| o != k && self.kids[o].cmp_document(&self.kids[k]) == Ordering::Equal)
        {
            return Err(format!("child {i} has a value-equal sibling"));
        }
        self.kids[k].at(rest)
    }

    /// Apply `edit` to this document's root, which is its one top-level
    /// entry (index 0).
    pub fn apply(&mut self, edit: &Edit) -> Result<(), String> {
        let target = match edit.path.split_first() {
            Some((0, rest)) => self.at(rest)?,
            _ => return Err(format!("path {:?} misses the root", edit.path)),
        };
        match &edit.change {
            Change::Reannotate(ann) => target.ann = Some(ann.clone()),
            // A splice replaces the subtree and keeps its annotation.
            Change::Splice(tree) => {
                let ann = target.ann.take();
                *target = Node {
                    ann,
                    ..tree.clone()
                };
            }
        }
        self.resize();
        Ok(())
    }

    fn resize(&mut self) {
        for k in &mut self.kids {
            k.resize();
        }
        self.size = 1 + self.kids.iter().map(|k| k.size).sum::<usize>();
    }
}

/// What an edit does to the node it addresses.
#[derive(Clone, Debug, PartialEq)]
pub enum Change {
    /// Replace its annotation.
    Reannotate(String),
    /// Replace the subtree, keeping its annotation.
    Splice(Node),
}

/// One edit at a document-order child-index path.
#[derive(Clone, Debug, PartialEq)]
pub struct Edit {
    pub path: Vec<usize>,
    pub change: Change,
}

impl Edit {
    /// The one-line script `PATCH /documents/{name}` takes.
    pub fn script(&self) -> String {
        let path: String = self.path.iter().map(|i| format!("/{i}")).collect();
        match &self.change {
            Change::Reannotate(ann) => format!("reannotate {path} {ann}"),
            Change::Splice(tree) => format!("splice {path} {}", tree.render()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(l: &str, ann: &str, text: &str) -> Node {
        Node::new(l.into(), Some(ann.into()), vec![Node::text(text.into())])
    }

    #[test]
    fn renders_the_text_format() {
        let doc = Node::new("r".into(), Some("x1".into()), vec![leaf("c", "2", "t1")]);
        assert_eq!(doc.render(), "<r {x1}> <c {2}> t1 </c> </r>");
    }

    #[test]
    fn paths_count_children_in_document_order() {
        // Generated order e, c, c; document order c/t1, c/t2, e/t3.
        let mut doc = Node::new(
            "r".into(),
            None,
            vec![
                leaf("e", "x1", "t3"),
                leaf("c", "x2", "t2"),
                leaf("c", "x3", "t1"),
            ],
        );
        let reannotate = |path: Vec<usize>| Edit {
            path,
            change: Change::Reannotate("x9".into()),
        };
        doc.apply(&reannotate(vec![0, 0])).unwrap();
        assert_eq!(doc.kids[2].ann.as_deref(), Some("x9"));
        doc.apply(&reannotate(vec![0, 2])).unwrap();
        assert_eq!(doc.kids[0].ann.as_deref(), Some("x9"));
        let splice = Edit {
            path: vec![0, 1],
            change: Change::Splice(Node::new("c".into(), None, vec![Node::text("t4".into())])),
        };
        doc.apply(&splice).unwrap();
        assert_eq!(doc.kids[1], leaf("c", "x2", "t4"));
        assert!(doc.apply(&reannotate(vec![0, 3])).is_err());
        assert!(doc.apply(&reannotate(vec![1])).is_err());
    }
}
