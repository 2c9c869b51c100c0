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

/// The two graph formats: DIMACS `.col` and PACE-2017 `.gr`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum GraphFormat {
    Dimacs,
    Pace,
}

impl GraphFormat {
    /// PACE when the first line that is neither blank nor a `c` comment
    /// starts with `p tw`, DIMACS otherwise.
    fn sniff(input: &str) -> GraphFormat {
        let pace = input
            .lines()
            .map(str::trim)
            .find(|l| !l.is_empty() && !l.starts_with('c'))
            .is_some_and(|l| l.starts_with("p tw"));
        if pace {
            GraphFormat::Pace
        } else {
            GraphFormat::Dimacs
        }
    }
}

/// A scanned graph file: the header's vertex count and one 0-based
/// `(min, max)` pair per edge line in input order, self-loops left out
/// (duplicates and mirrored lines give repeated pairs).
struct EdgeList {
    n: usize,
    pairs: Vec<(usize, usize)>,
}

impl EdgeList {
    fn into_graph(self) -> Graph {
        Graph::from_edges(self.n, self.pairs)
    }
}

/// The line scanner behind [`parse_dimacs`], [`parse_pace_gr`] and
/// [`canonical_graph_text`]. Blank lines and lines starting with `c` are
/// skipped; one problem line must come before any edge line; endpoints are
/// 1-based and checked against the header. The header's count is checked
/// by [`check_header_count`] before anything is allocated.
fn scan_graph(input: &str, format: GraphFormat) -> Result<EdgeList, ParseError> {
    let mut n: Option<usize> = None;
    let mut pairs = Vec::new();
    let bytes = input.as_bytes();
    let (mut pos, mut lineno) = (0, 0);
    while pos < bytes.len() {
        lineno += 1;
        if let Some((n, (uv, len))) = n.zip(plain_edge(&bytes[pos..], format)) {
            push_edge(&mut pairs, n, uv, lineno)?;
            pos += len;
            continue;
        }
        let end = bytes[pos..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(bytes.len(), |off| pos + off);
        let line = input[pos..end].trim();
        pos = end + 1;
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let header = match format {
            GraphFormat::Dimacs => match tokens.next() {
                Some("p") => true,
                Some("e") => false,
                Some(other) => return Err(err(lineno, format!("unknown line type `{other}`"))),
                None => unreachable!(),
            },
            GraphFormat::Pace => {
                // `p` then a space, not any whitespace
                let header = line.starts_with("p ");
                if header {
                    tokens.next(); // the `p`
                }
                header
            }
        };
        if header {
            if n.is_some() {
                return Err(err(lineno, "duplicate problem line"));
            }
            let (field, supported): (&str, &[&str]) = match format {
                GraphFormat::Dimacs => ("format", &["edge", "col"]),
                GraphFormat::Pace => ("descriptor", &["tw"]),
            };
            let kind = tokens
                .next()
                .ok_or_else(|| err(lineno, format!("missing {field}")))?;
            if !supported.contains(&kind) {
                return Err(err(lineno, format!("unsupported {field} `{kind}`")));
            }
            let count: usize = tokens
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err(lineno, "bad vertex count"))?;
            check_header_count(count, input.len(), lineno, "vertex")?;
            n = Some(count); // the edge count after it is informative only
            continue;
        }
        let n = n.ok_or_else(|| err(lineno, "edge before problem line"))?;
        let mut endpoint = || {
            tokens
                .next()
                .and_then(|s| s.parse::<usize>().ok())
                .ok_or_else(|| err(lineno, "bad edge endpoint"))
        };
        let u = endpoint()?;
        push_edge(&mut pairs, n, (u, endpoint()?), lineno)?;
    }
    let n = n.ok_or_else(|| err(0, "no problem line found"))?;
    Ok(EdgeList { n, pairs })
}

/// The 1-based endpoints of the edge line at the start of `text` if it is
/// in its plain form — `e u v` (DIMACS) or `u v` (PACE), single spaces,
/// plain decimal digits, ended by `\n`, `\r\n` or the end of the input —
/// which every writer in the workspace emits, and the bytes it takes up.
/// `None` for any other line, which the tokenizer then reads; on a plain
/// line it would find the same two numbers.
fn plain_edge(text: &[u8], format: GraphFormat) -> Option<((usize, usize), usize)> {
    let rest = match format {
        GraphFormat::Dimacs => text.strip_prefix(b"e ")?,
        GraphFormat::Pace => text,
    };
    let (u, rest) = leading_number(rest)?;
    let (v, rest) = leading_number(rest.strip_prefix(b" ")?)?;
    let end = match rest {
        [] => 0,
        [b'\n', ..] => 1,
        [b'\r', b'\n', ..] => 2,
        _ => return None,
    };
    Some(((u, v), text.len() - rest.len() + end))
}

/// The number spelt by the digits at the start of `s` and the bytes after
/// them; `None` without a digit or on overflow.
fn leading_number(s: &[u8]) -> Option<(usize, &[u8])> {
    let len = s
        .iter()
        .position(|b| !b.is_ascii_digit())
        .unwrap_or(s.len());
    if len == 0 {
        return None;
    }
    let mut value: usize = 0;
    for &b in &s[..len] {
        value = value.checked_mul(10)?.checked_add(usize::from(b - b'0'))?;
    }
    Some((value, &s[len..]))
}

/// Checks an edge's 1-based endpoints against the vertex count `n` and
/// records it as a 0-based `(min, max)` pair; a self-loop is dropped.
fn push_edge(
    pairs: &mut Vec<(usize, usize)>,
    n: usize,
    (u, v): (usize, usize),
    lineno: usize,
) -> Result<(), ParseError> {
    if u == 0 || v == 0 || u > n || v > n {
        return Err(err(lineno, "edge endpoint out of range"));
    }
    if u != v {
        pairs.push((u.min(v) - 1, u.max(v) - 1));
    }
    Ok(())
}

/// Parses a DIMACS `.col` graph. Recognises `c` comments, one `p edge N M`
/// (or `p col N M`) problem line and `e u v` edge lines with 1-based
/// vertex indices. Duplicate and mirrored edges are tolerated (they appear
/// in some DIMACS files).
pub fn parse_dimacs(input: &str) -> Result<Graph, ParseError> {
    scan_graph(input, GraphFormat::Dimacs).map(EdgeList::into_graph)
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
    scan_graph(input, GraphFormat::Pace).map(EdgeList::into_graph)
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

/// Parses a graph, DIMACS `.col` or PACE `.gr`: the input is PACE when
/// its first line that is neither blank nor a `c` comment starts with
/// `p tw`, DIMACS otherwise.
pub fn parse_graph(input: &str) -> Result<Graph, ParseError> {
    scan_graph(input, GraphFormat::sniff(input)).map(EdgeList::into_graph)
}

/// The canonical text of a graph file, DIMACS or PACE: the bytes of
/// `write_dimacs(&parse_graph(input)?)`, and the same error where
/// [`parse_graph`] fails, written from the scanned edge list without
/// building a [`Graph`]. The pairs are sorted only when they are not
/// already strictly ascending, which a canonical text's always are.
pub fn canonical_graph_text(input: &str) -> Result<String, ParseError> {
    let EdgeList { n, mut pairs } = scan_graph(input, GraphFormat::sniff(input))?;
    if !pairs.windows(2).all(|w| w[0] < w[1]) {
        pairs.sort_unstable();
        pairs.dedup();
    }
    // an edge line is at most two bytes longer than the line it came
    // from (a PACE line gains `e `); the header gets the slack
    let mut out = Vec::with_capacity(input.len() + 2 * pairs.len() + 64);
    push_line(&mut out, b"p edge ", n, pairs.len());
    for (u, v) in pairs {
        push_line(&mut out, b"e ", u + 1, v + 1);
    }
    Ok(String::from_utf8(out).expect("the writer emits ASCII"))
}

/// Appends the line `{prefix}{a} {b}\n`. It is built back to front in a
/// stack buffer and copied out once: the formatting machinery costs more
/// per line than scanning the line did.
fn push_line(out: &mut Vec<u8>, prefix: &[u8], a: usize, b: usize) {
    let mut line = [0u8; 64]; // a prefix of up to 21 bytes, two 20-digit numbers
    let mut at = line.len() - 1;
    line[at] = b'\n';
    at = prepend_decimal(&mut line, at, b);
    at -= 1;
    line[at] = b' ';
    at = prepend_decimal(&mut line, at, a);
    at -= prefix.len();
    line[at..at + prefix.len()].copy_from_slice(prefix);
    out.extend_from_slice(&line[at..]);
}

/// Writes `n` in decimal into `buf` to end just before `end`; returns
/// where it starts.
fn prepend_decimal(buf: &mut [u8], mut end: usize, mut n: usize) -> usize {
    loop {
        end -= 1;
        buf[end] = b"0123456789"[n % 10];
        n /= 10;
        if n == 0 {
            return end;
        }
    }
}

/// The tokenizer behind [`parse_hypergraph`] and
/// [`canonical_hypergraph_text`]. It calls `edge(name, ids, names)` once
/// per atom, in input order: `ids` are the atom's vertex ids, sorted and
/// without repeats, where a vertex's id is its order of first appearance
/// in the whole text, and `names[id]` is the name of vertex `id`.
///
/// One left-to-right scan tokenises the text; names are borrowed slices
/// of it, interned by content. Only an input holding a comment or a
/// carriage return is first rewritten line by line (comments cut, each
/// run of `\r` before a line break folded into it), since names may span
/// lines and must not keep either.
fn scan_hypergraph(
    input: &str,
    mut edge: impl FnMut(&str, &[usize], &[&str]),
) -> Result<(), ParseError> {
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
    let mut ids: Vec<usize> = Vec::new();

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
        let open = match bytes[start..]
            .iter()
            .position(|&b| matches!(b, b'(' | b')' | b','))
        {
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
        ids.clear();
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
                ids.push(id);
            }
            vstart = end + 1;
            if closing {
                break;
            }
        }
        if ids.is_empty() {
            return Err(err(0, format!("edge `{name}` has no vertices")));
        }
        ids.sort_unstable();
        ids.dedup();
        edge(name, &ids, &vertex_names);
        pos = vstart;
    }
    Ok(())
}

/// Parses the CSP hypergraph library format: a comma-separated sequence of
/// `edgename(v1,v2,...)` atoms, optionally terminated by `.`; `%` or `#`
/// start comments. Vertex names are arbitrary identifiers and are assigned
/// indices in order of first appearance.
pub fn parse_hypergraph(input: &str) -> Result<Hypergraph, ParseError> {
    let mut vertex_names: Vec<String> = Vec::new();
    // (edge name, end of its vertex ids in `members`), in input order
    let mut edges: Vec<(String, usize)> = Vec::new();
    let mut members: Vec<usize> = Vec::new();
    scan_hypergraph(input, |name, ids, names| {
        // every vertex first appears in some atom
        vertex_names.extend(names[vertex_names.len()..].iter().map(|v| v.to_string()));
        members.extend_from_slice(ids);
        edges.push((name.to_string(), members.len()));
    })?;

    let mut from = 0;
    let edges = edges.into_iter().map(|(name, to)| {
        let ids = members[from..to].iter().copied();
        from = to;
        (name, ids)
    });
    // ids are dense by construction, but this is the untrusted path: the
    // checked builder turns an internal inconsistency into Err, never a
    // panic
    Hypergraph::try_from_named_edges(vertex_names, edges).map_err(|e| err(0, e.to_string()))
}

/// The canonical text of a hypergraph file: the bytes of
/// `write_hypergraph(&parse_hypergraph(input)?)`, and the same error where
/// [`parse_hypergraph`] fails, written atom by atom as the tokenizer
/// yields them, without building a [`Hypergraph`].
pub fn canonical_hypergraph_text(input: &str) -> Result<String, ParseError> {
    let mut out = String::with_capacity(input.len() + 2);
    scan_hypergraph(input, |name, ids, names| {
        if !out.is_empty() {
            out.push_str(",\n");
        }
        out.push_str(name);
        out.push('(');
        for (i, &v) in ids.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(names[v]);
        }
        out.push(')');
    })?;
    out.push_str(".\n");
    Ok(out)
}

/// The input with every `%`/`#` comment cut and every line ended by a
/// single `\n`: the whole run of `\r` before each line break (or before a
/// cut comment) goes with it, so CRLF input reads like LF input, and a
/// name can never hold `\r\n`. The canonical text written from this is
/// therefore a fixed point of parse-then-write.
fn strip_comments(input: &str) -> String {
    let mut text = String::with_capacity(input.len() + 1);
    for line in input.lines() {
        let line = match line.find(['%', '#']) {
            Some(p) => &line[..p],
            None => line,
        };
        text.push_str(line.trim_end_matches('\r'));
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
    fn carriage_return_runs_fold_into_the_line_break() {
        // a name spanning lines keeps its line break, never a `\r` before it
        for text in ["A(x\r\r\ny,z).", "A(x\r\ny,z).", "A(x\r%c\r\r\ny,z)."] {
            let canon = canonical_hypergraph_text(text).unwrap();
            assert_eq!(canon, "A(x\ny,z).\n", "{text:?}");
            assert_eq!(canonical_hypergraph_text(&canon).unwrap(), canon);
        }
        // a `\r` that ends no line stays part of the name
        let canon = canonical_hypergraph_text("A(x\ry,z).").unwrap();
        assert_eq!(canon, "A(x\ry,z).\n");
        assert_eq!(canonical_hypergraph_text(&canon).unwrap(), canon);
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
