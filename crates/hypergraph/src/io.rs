//! Parsers and writers for the two benchmark formats used by the thesis:
//! DIMACS graph-coloring files (`.col`) and the CSP hypergraph library's
//! edge-list format (`name(v1,v2,...),`).

use crate::graph::Graph;
use crate::hypergraph::Hypergraph;
use ghd_prng::hash::FxHashMap;
use std::fmt::Write as _;

/// An error produced while parsing a benchmark file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number where the problem was found (0 = whole file).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Rejects implausibly large header counts **before** allocating anything
/// proportional to them. A legitimate file with `n` vertices must spell out
/// its edges, so its size is at least a few bytes per vertex mentioned; a
/// header claiming orders of magnitude more vertices than the input could
/// possibly describe is an attack (or corruption), and honouring it would
/// let a 20-byte file allocate gigabytes. The slack term keeps tiny
/// hand-written files (header + isolated vertices) working.
pub fn check_header_count(
    n: usize,
    input_len: usize,
    lineno: usize,
    what: &str,
) -> Result<(), ParseError> {
    let cap = 4096 + input_len.saturating_mul(32);
    if n > cap {
        return Err(err(
            lineno,
            format!("{what} count {n} implausible for a {input_len}-byte input (cap {cap})"),
        ));
    }
    Ok(())
}

/// Parses a DIMACS `.col` graph. Recognises `c` comments, one `p edge N M`
/// problem line and `e u v` edge lines with 1-based vertex indices.
/// Duplicate and mirrored edges are tolerated (they appear in some DIMACS
/// files).
pub fn parse_dimacs(input: &str) -> Result<Graph, ParseError> {
    let mut graph: Option<Graph> = None;
    for (i, raw) in input.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let mut it = line.split_whitespace();
        match it.next() {
            Some("p") => {
                if graph.is_some() {
                    return Err(err(lineno, "duplicate problem line"));
                }
                let fmt = it.next().ok_or_else(|| err(lineno, "missing format"))?;
                if fmt != "edge" && fmt != "col" {
                    return Err(err(lineno, format!("unsupported format `{fmt}`")));
                }
                let n: usize = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(lineno, "bad vertex count"))?;
                check_header_count(n, input.len(), lineno, "vertex")?;
                let _m = it.next(); // edge count: informative only
                graph = Some(Graph::new(n));
            }
            Some("e") => {
                let g = graph
                    .as_mut()
                    .ok_or_else(|| err(lineno, "edge before problem line"))?;
                let u: usize = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(lineno, "bad edge endpoint"))?;
                let v: usize = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(lineno, "bad edge endpoint"))?;
                if u == 0 || v == 0 || u > g.num_vertices() || v > g.num_vertices() {
                    return Err(err(lineno, "edge endpoint out of range"));
                }
                g.add_edge(u - 1, v - 1);
            }
            Some(other) => return Err(err(lineno, format!("unknown line type `{other}`"))),
            None => unreachable!(),
        }
    }
    graph.ok_or_else(|| err(0, "no problem line found"))
}

/// Serialises a graph in DIMACS `.col` format (1-based vertices).
pub fn write_dimacs(g: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "p edge {} {}", g.num_vertices(), g.num_edges());
    for (u, v) in g.edges() {
        let _ = writeln!(out, "e {} {}", u + 1, v + 1);
    }
    out
}

/// Parses a PACE-2017-style `.gr` graph: `c` comments, one
/// `p tw <N> <M>` problem line, and one `u v` pair per edge line (1-based).
pub fn parse_pace_gr(input: &str) -> Result<Graph, ParseError> {
    let mut graph: Option<Graph> = None;
    for (i, raw) in input.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("p ") {
            if graph.is_some() {
                return Err(err(lineno, "duplicate problem line"));
            }
            let mut it = rest.split_whitespace();
            let fmt = it.next().ok_or_else(|| err(lineno, "missing descriptor"))?;
            if fmt != "tw" {
                return Err(err(lineno, format!("unsupported descriptor `{fmt}`")));
            }
            let n: usize = it
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err(lineno, "bad vertex count"))?;
            check_header_count(n, input.len(), lineno, "vertex")?;
            graph = Some(Graph::new(n));
            continue;
        }
        let g = graph
            .as_mut()
            .ok_or_else(|| err(lineno, "edge before problem line"))?;
        let mut it = line.split_whitespace();
        let u: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| err(lineno, "bad edge endpoint"))?;
        let v: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| err(lineno, "bad edge endpoint"))?;
        if u == 0 || v == 0 || u > g.num_vertices() || v > g.num_vertices() {
            return Err(err(lineno, "edge endpoint out of range"));
        }
        g.add_edge(u - 1, v - 1);
    }
    graph.ok_or_else(|| err(0, "no problem line found"))
}

/// Serialises a graph in PACE `.gr` format.
pub fn write_pace_gr(g: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "p tw {} {}", g.num_vertices(), g.num_edges());
    for (u, v) in g.edges() {
        let _ = writeln!(out, "{} {}", u + 1, v + 1);
    }
    out
}

/// Parses the CSP hypergraph library format: a comma-separated sequence of
/// `edgename(v1,v2,...)` atoms, optionally terminated by `.`; `%` or `#`
/// start comments. Vertex names are arbitrary identifiers and are assigned
/// indices in order of first appearance.
///
/// One left-to-right scan tokenises the text; names are borrowed slices
/// of it, interned by content. Only an input holding a comment or a
/// carriage return is first rewritten line by line (comments cut, CRLF
/// folded to LF), since names may span lines and must not keep either.
pub fn parse_hypergraph(input: &str) -> Result<Hypergraph, ParseError> {
    let stripped;
    let text = if input.bytes().any(|b| matches!(b, b'%' | b'#' | b'\r')) {
        stripped = strip_comments(input);
        stripped.as_str()
    } else {
        input
    };
    let bytes = text.as_bytes();

    let mut vertex_ids: FxHashMap<&str, usize> = FxHashMap::default();
    let mut vertex_names: Vec<&str> = Vec::new();
    // (edge name, end of its vertex ids in `members`), in input order
    let mut edges: Vec<(&str, usize)> = Vec::new();
    let mut members: Vec<usize> = Vec::new();

    let mut pos = 0;
    while pos < bytes.len() {
        // separators between atoms: whitespace, `,` and `.`
        let c = match bytes[pos] {
            b if b.is_ascii() => b as char,
            _ => text[pos..].chars().next().expect("pos is a char boundary"),
        };
        if c.is_whitespace() || c == ',' || c == '.' {
            pos += c.len_utf8();
            continue;
        }
        // edge name up to `(`; a `)` or `,` before it is an error
        let start = pos;
        let open = match bytes[start..].iter().position(|&b| matches!(b, b'(' | b')' | b',')) {
            Some(off) if bytes[start + off] == b'(' => start + off,
            Some(_) => return Err(err(0, "expected `(` after edge name")),
            None => bytes.len(),
        };
        let name = text[start..open].trim();
        if name.is_empty() {
            return Err(err(0, "empty edge name"));
        }
        if open == bytes.len() {
            return Err(err(0, format!("unterminated edge `{name}`")));
        }
        // vertices up to `)`; a trailing empty vertex (`e(a,)`) is dropped
        let first = members.len();
        let mut vstart = open + 1;
        loop {
            let Some(off) = bytes[vstart..].iter().position(|&b| b == b',' || b == b')') else {
                return Err(err(0, format!("unterminated edge `{name}`")));
            };
            let end = vstart + off;
            let v = text[vstart..end].trim();
            let closing = bytes[end] == b')';
            if v.is_empty() && !closing {
                return Err(err(0, format!("empty vertex in edge `{name}`")));
            }
            if !v.is_empty() {
                let next = vertex_ids.len();
                let id = *vertex_ids.entry(v).or_insert(next);
                if id == next {
                    vertex_names.push(v);
                }
                members.push(id);
            }
            vstart = end + 1;
            if closing {
                break;
            }
        }
        if members.len() == first {
            return Err(err(0, format!("edge `{name}` has no vertices")));
        }
        edges.push((name, members.len()));
        pos = vstart;
    }

    let vertex_names = vertex_names.into_iter().map(str::to_string).collect();
    let mut from = 0;
    let edges = edges.into_iter().map(|(name, to)| {
        let ids = members[from..to].iter().copied();
        from = to;
        (name.to_string(), ids)
    });
    // ids are dense by construction, but this is the untrusted path: the
    // checked builder turns an internal inconsistency into Err, never a
    // panic
    Hypergraph::try_from_named_edges(vertex_names, edges).map_err(|e| err(0, e.to_string()))
}

/// The input with every `%`/`#` comment cut and every line ended by a
/// single `\n` (so CRLF input reads like LF input).
fn strip_comments(input: &str) -> String {
    let mut text = String::with_capacity(input.len() + 1);
    for line in input.lines() {
        let line = match line.find(['%', '#']) {
            Some(p) => &line[..p],
            None => line,
        };
        text.push_str(line);
        text.push('\n');
    }
    text
}

/// Serialises a hypergraph in the CSP hypergraph library format.
pub fn write_hypergraph(h: &Hypergraph) -> String {
    let mut out = String::new();
    for e in 0..h.num_edges() {
        if e > 0 {
            out.push_str(",\n");
        }
        out.push_str(h.edge_name(e));
        out.push('(');
        for (i, v) in h.edge(e).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(h.vertex_name(v));
        }
        out.push(')');
    }
    out.push_str(".\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimacs_roundtrip() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]);
        let text = write_dimacs(&g);
        let g2 = parse_dimacs(&text).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn dimacs_tolerates_comments_and_duplicates() {
        let text = "c a comment\np edge 3 2\ne 1 2\ne 2 1\ne 2 3\n";
        let g = parse_dimacs(text).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn dimacs_rejects_garbage() {
        assert!(parse_dimacs("e 1 2\n").is_err()); // edge before p
        assert!(parse_dimacs("p edge 2 1\ne 1 5\n").is_err()); // out of range
        assert!(parse_dimacs("p edge x 1\n").is_err());
        assert!(parse_dimacs("").is_err());
    }

    #[test]
    fn pace_gr_roundtrip() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]);
        let text = write_pace_gr(&g);
        assert!(text.starts_with("p tw 5 3"));
        let g2 = parse_pace_gr(&text).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn pace_gr_rejects_malformed() {
        assert!(parse_pace_gr("p cep 3 1\n1 2\n").is_err());
        assert!(parse_pace_gr("1 2\n").is_err());
        assert!(parse_pace_gr("p tw 2 1\n1 9\n").is_err());
    }

    #[test]
    fn hypergraph_roundtrip() {
        let text = "C1(x1,x2,x3),\nC2(x1,x5,x6),\nC3(x3,x4,x5).\n";
        let h = parse_hypergraph(text).unwrap();
        assert_eq!(h.num_vertices(), 6);
        assert_eq!(h.num_edges(), 3);
        assert_eq!(h.vertex_name(0), "x1");
        assert_eq!(h.edge_name(2), "C3");
        let text2 = write_hypergraph(&h);
        let h2 = parse_hypergraph(&text2).unwrap();
        assert_eq!(h2.num_vertices(), h.num_vertices());
        assert_eq!(h2.num_edges(), h.num_edges());
        for e in 0..h.num_edges() {
            assert_eq!(h2.edge(e), h.edge(e));
        }
    }

    #[test]
    fn hypergraph_comments_and_whitespace() {
        let text = "% header\nA( x , y ),\n# trailing\nB(y,z).";
        let h = parse_hypergraph(text).unwrap();
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.num_edges(), 2);
        assert_eq!(h.vertex_by_name("y"), Some(1));
    }

    #[test]
    fn hypergraph_rejects_malformed() {
        assert!(parse_hypergraph("A(x").is_err());
        assert!(parse_hypergraph("A()").is_err());
        assert!(parse_hypergraph("(x,y)").is_err());
    }

    #[test]
    fn implausible_headers_are_rejected_before_allocation() {
        // a 30-byte file claiming 10^15 vertices must be Err, not an OOM
        assert!(parse_dimacs("p edge 999999999999999 1\n").is_err());
        assert!(parse_pace_gr("p tw 999999999999999 1\n").is_err());
        // a large-but-plausible header still parses (cap scales with input)
        let mut big = String::from("p tw 2000 1999\n");
        for v in 1..2000 {
            big.push_str(&format!("{} {}\n", v, v + 1));
        }
        assert_eq!(parse_pace_gr(&big).unwrap().num_vertices(), 2000);
    }
}
