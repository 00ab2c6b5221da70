//! Plain-text serialization of streams and queries.
//!
//! The formats are line-oriented and diff-friendly so experiment inputs can
//! be checked into a repository or produced by external tools:
//!
//! * **Stream line**: `id src src_label dst dst_label edge_label ts`
//! * **Query file**: a `v` line per vertex (`v <index> <label>`), an `e` line
//!   per edge (`e <src> <dst> <label>`), and a `t` line per timing pair
//!   (`t <before> <after>`), with `#` comments.
//! * **Edge-stream line** (s-graffito style, the format public streaming
//!   graph datasets ship in): `src dst label ts`, where `src`, `dst` and
//!   `label` may be integers or arbitrary strings (interned to dense
//!   ids) — see [`edge_stream_from_str`].

use crate::edge::StreamEdge;
use crate::query::{QueryEdge, QueryError, QueryGraph};
use crate::{ELabel, VLabel};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::num::ParseIntError;

/// Errors from the text parsers.
#[derive(Debug)]
pub enum ParseError {
    /// A line had the wrong number of fields.
    Arity { line: usize, expected: usize, got: usize },
    /// A field failed integer parsing.
    Int { line: usize, source: ParseIntError },
    /// Unknown record tag in a query file.
    UnknownTag { line: usize, tag: String },
    /// The parsed query failed validation.
    Query(QueryError),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Arity { line, expected, got } => {
                write!(f, "line {line}: expected {expected} fields, got {got}")
            }
            ParseError::Int { line, source } => write!(f, "line {line}: {source}"),
            ParseError::UnknownTag { line, tag } => write!(f, "line {line}: unknown tag {tag:?}"),
            ParseError::Query(e) => write!(f, "invalid query: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses one integer field into the width of the id or label it becomes,
/// so a value too large for that type is a [`ParseError::Int`] rather
/// than a silently truncated (different) vertex or label.
fn field<T: std::str::FromStr<Err = ParseIntError>>(s: &str, line: usize) -> Result<T, ParseError> {
    s.parse().map_err(|source| ParseError::Int { line, source })
}

/// Serializes a stream to the line format.
pub fn stream_to_string(edges: &[StreamEdge]) -> String {
    let mut s = String::with_capacity(edges.len() * 32);
    for e in edges {
        writeln!(
            s,
            "{} {} {} {} {} {} {}",
            e.id.0, e.src.0, e.src_label.0, e.dst.0, e.dst_label.0, e.label.0, e.ts.0
        )
        .unwrap_or_else(|_| unreachable!());
    }
    s
}

/// Parses a stream from the line format; blank lines and `#` comments are
/// skipped. Fields land in a fixed array, not a per-line `Vec`: a stream
/// file is hundreds of thousands of lines.
pub fn stream_from_str(text: &str) -> Result<Vec<StreamEdge>, ParseError> {
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = [""; 7];
        let mut got = 0;
        for f in line.split_whitespace() {
            if let Some(slot) = fields.get_mut(got) {
                *slot = f;
            }
            got += 1;
        }
        if got != 7 {
            return Err(ParseError::Arity { line: ln + 1, expected: 7, got });
        }
        out.push(StreamEdge::new(
            field(fields[0], ln + 1)?,
            field(fields[1], ln + 1)?,
            field(fields[2], ln + 1)?,
            field(fields[3], ln + 1)?,
            field(fields[4], ln + 1)?,
            field(fields[5], ln + 1)?,
            field(fields[6], ln + 1)?,
        ));
    }
    Ok(out)
}

/// An edge stream parsed from the s-graffito-style text format, with the
/// interning tables that map the file's names back from the dense ids.
#[derive(Debug, Default)]
pub struct TextStream {
    /// The parsed edges, in file order (real datasets are not always
    /// timestamp-sorted — sort before feeding a strict-order gate).
    pub edges: Vec<StreamEdge>,
    /// Interned vertex names: index = the `VertexId` assigned to it.
    pub vertices: Vec<String>,
    /// Interned edge-label names: index = the `ELabel` assigned to it.
    pub edge_labels: Vec<String>,
}

/// Parses an s-graffito-style edge stream: one `src dst label ts` line
/// per edge, `#` comments and blank lines skipped. `src`, `dst` and
/// `label` may be integers or arbitrary strings — either way they are
/// interned, in order of first appearance, to dense `VertexId`s /
/// `ELabel`s (so `7` and `"alice"` can mix freely); `ts` must parse as
/// `u64`. Edge ids are assigned sequentially from 1. Public datasets
/// carry no vertex labels, so each vertex gets
/// `VLabel(vertex_id % n_vertex_labels)` — a deterministic partition
/// queries can target (pass 1 for unlabeled matching).
pub fn edge_stream_from_str(text: &str, n_vertex_labels: u16) -> Result<TextStream, ParseError> {
    assert!(n_vertex_labels >= 1, "need at least one vertex label class");
    fn intern<'a>(
        name: &'a str,
        ids: &mut HashMap<&'a str, usize>,
        names: &mut Vec<String>,
    ) -> usize {
        if let Some(&id) = ids.get(name) {
            return id;
        }
        let id = names.len();
        names.push(name.to_string());
        ids.insert(name, id);
        id
    }
    let mut out = TextStream::default();
    let mut vertex_ids: HashMap<&str, usize> = HashMap::new();
    let mut label_ids: HashMap<&str, usize> = HashMap::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 4 {
            return Err(ParseError::Arity { line: ln + 1, expected: 4, got: fields.len() });
        }
        let src = intern(fields[0], &mut vertex_ids, &mut out.vertices) as u32;
        let dst = intern(fields[1], &mut vertex_ids, &mut out.vertices) as u32;
        let label = intern(fields[2], &mut label_ids, &mut out.edge_labels) as u16;
        let ts: u64 = field(fields[3], ln + 1)?;
        out.edges.push(StreamEdge::new(
            out.edges.len() as u64 + 1,
            src,
            (src % u32::from(n_vertex_labels)) as u16,
            dst,
            (dst % u32::from(n_vertex_labels)) as u16,
            label,
            ts,
        ));
    }
    Ok(out)
}

/// Serializes a query to the `v`/`e`/`t` format.
pub fn query_to_string(q: &QueryGraph) -> String {
    let mut s = String::new();
    for (i, l) in q.vertex_labels.iter().enumerate() {
        writeln!(s, "v {i} {}", l.0).unwrap_or_else(|_| unreachable!());
    }
    for e in &q.edges {
        writeln!(s, "e {} {} {}", e.src, e.dst, e.label.0).unwrap_or_else(|_| unreachable!());
    }
    for &(a, b) in q.order.pairs() {
        writeln!(s, "t {a} {b}").unwrap_or_else(|_| unreachable!());
    }
    s
}

/// Parses a query from the `v`/`e`/`t` format.
pub fn query_from_str(text: &str) -> Result<QueryGraph, ParseError> {
    let mut labels: Vec<(usize, VLabel)> = Vec::new();
    let mut edges = Vec::new();
    let mut pairs = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields[0] {
            "v" => {
                if fields.len() != 3 {
                    return Err(ParseError::Arity { line: ln + 1, expected: 3, got: fields.len() });
                }
                labels.push((field(fields[1], ln + 1)?, VLabel(field(fields[2], ln + 1)?)));
            }
            "e" => {
                if fields.len() != 4 {
                    return Err(ParseError::Arity { line: ln + 1, expected: 4, got: fields.len() });
                }
                edges.push(QueryEdge {
                    src: field(fields[1], ln + 1)?,
                    dst: field(fields[2], ln + 1)?,
                    label: ELabel(field(fields[3], ln + 1)?),
                });
            }
            "t" => {
                if fields.len() != 3 {
                    return Err(ParseError::Arity { line: ln + 1, expected: 3, got: fields.len() });
                }
                pairs.push((field(fields[1], ln + 1)?, field(fields[2], ln + 1)?));
            }
            tag => {
                return Err(ParseError::UnknownTag { line: ln + 1, tag: tag.to_string() });
            }
        }
    }
    labels.sort_by_key(|&(i, _)| i);
    let vlabels: Vec<VLabel> = labels.into_iter().map(|(_, l)| l).collect();
    QueryGraph::new(vlabels, edges, &pairs).map_err(ParseError::Query)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic by design
mod tests {
    use super::*;
    use crate::gen::Dataset;

    #[test]
    fn stream_round_trip() {
        let es = Dataset::NetworkFlow.generate(200, 4);
        let text = stream_to_string(&es);
        let back = stream_from_str(&text).unwrap();
        assert_eq!(es, back);
    }

    #[test]
    fn query_round_trip() {
        let q = QueryGraph::running_example();
        let text = query_to_string(&q);
        let back = query_from_str(&text).unwrap();
        assert_eq!(q.vertex_labels, back.vertex_labels);
        assert_eq!(q.edges, back.edges);
        assert_eq!(q.order, back.order);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# a stream\n\n1 0 0 1 0 0 1\n";
        let es = stream_from_str(text).unwrap();
        assert_eq!(es.len(), 1);
    }

    #[test]
    fn arity_error_reported_with_line() {
        let err = stream_from_str("1 2 3").unwrap_err();
        assert!(matches!(err, ParseError::Arity { line: 1, .. }));
        // One field short and one too many both report the count they saw.
        let err = stream_from_str("1 0 0 1 0 0 1\n1 2 3 4 5 6\n").unwrap_err();
        assert!(matches!(err, ParseError::Arity { line: 2, expected: 7, got: 6 }));
        let err = stream_from_str("1 2 3 4 5 6 7 8").unwrap_err();
        assert!(matches!(err, ParseError::Arity { line: 1, expected: 7, got: 8 }));
    }

    #[test]
    fn unknown_tag_rejected() {
        let err = query_from_str("x 1 2").unwrap_err();
        assert!(matches!(err, ParseError::UnknownTag { .. }));
    }

    #[test]
    fn edge_stream_interns_mixed_ids() {
        let text = "# s-graffito style\nalice bob follows 10\n7 alice follows 11\nbob 7 pays 12\n";
        let s = edge_stream_from_str(text, 2).unwrap();
        assert_eq!(s.vertices, vec!["alice", "bob", "7"]);
        assert_eq!(s.edge_labels, vec!["follows", "pays"]);
        assert_eq!(s.edges.len(), 3);
        // alice=0, bob=1, 7=2; labels derived as id % 2.
        let e = s.edges[1];
        assert_eq!((e.id.0, e.src.0, e.dst.0), (2, 2, 0));
        assert_eq!((e.src_label.0, e.dst_label.0), (0, 0));
        assert_eq!((e.label.0, e.ts.0), (0, 11));
        let e = s.edges[2];
        assert_eq!((e.src.0, e.src_label.0, e.dst.0, e.dst_label.0), (1, 1, 2, 0));
        assert_eq!(e.label.0, 1);
    }

    #[test]
    fn edge_stream_arity_and_int_errors() {
        let err = edge_stream_from_str("a b c\n", 1).unwrap_err();
        assert!(matches!(err, ParseError::Arity { line: 1, expected: 4, got: 3 }));
        let err = edge_stream_from_str("a b c soon\n", 1).unwrap_err();
        assert!(matches!(err, ParseError::Int { line: 1, .. }));
    }

    #[test]
    fn bad_int_rejected() {
        // Not a number; a vertex id past u32; a vertex label past u16 —
        // the last two must not wrap into vertex 0 / label 0.
        for text in ["a 0 0 1 0 0 1", "1 4294967296 0 1 0 0 1"] {
            let err = stream_from_str(text).unwrap_err();
            assert!(matches!(err, ParseError::Int { line: 1, .. }), "{text:?}");
        }
        let err = query_from_str("v 0 65536").unwrap_err();
        assert!(matches!(err, ParseError::Int { line: 1, .. }));
    }
}
