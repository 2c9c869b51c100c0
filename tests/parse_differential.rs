//! Differential test of the single-pass hypergraph parser against the
//! earlier comment-stripping, char-by-char parser, kept here as the
//! oracle. Both must return the same structure (vertex names, edge names,
//! edge sets) or the same error on seeded random texts and on hand-made
//! adversarial ones: comments inside names and vertex lists, CRLF line
//! endings, non-ASCII whitespace, empty vertices, unterminated atoms and
//! stray separators. A failing case prints the seed and the input.

use ghd::hypergraph::io::{parse_hypergraph, ParseError};
use ghd::hypergraph::Hypergraph;
use ghd_prng::rngs::StdRng;
use std::collections::HashMap;

#[path = "support/hypergraph_corpus.rs"]
mod hypergraph_corpus;

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError { line, message: message.into() }
}

/// The parser as it stood before the single-pass rewrite, verbatim apart
/// from its name and one rule added since: the whole run of `\r` before a
/// line break (or a cut comment) goes with the break, not just one `\r`.
fn oracle_parse(input: &str) -> Result<Hypergraph, ParseError> {
    // Strip comments line by line, then tokenize the rest as one stream.
    let mut text = String::new();
    for line in input.lines() {
        let line = match line.find(['%', '#']) {
            Some(p) => &line[..p],
            None => line,
        };
        text.push_str(line.trim_end_matches('\r'));
        text.push('\n');
    }

    let mut vertex_ids: HashMap<String, usize> = HashMap::new();
    let mut edges: Vec<(String, Vec<usize>)> = Vec::new();

    let mut chars = text.char_indices().peekable();
    let bytes = &text;
    while let Some(&(start, c)) = chars.peek() {
        if c.is_whitespace() || c == ',' || c == '.' {
            chars.next();
            continue;
        }
        // read edge name up to '(' (lazy lookahead: no per-atom collect,
        // so adversarial inputs cannot make this quadratic)
        let mut name_end = start;
        for (i, ch) in chars.clone() {
            if ch == '(' {
                name_end = i;
                break;
            }
            if ch == ')' || ch == ',' {
                return Err(err(0, "expected `(` after edge name"));
            }
            name_end = i + ch.len_utf8();
        }
        let name = bytes[start..name_end].trim().to_string();
        if name.is_empty() {
            return Err(err(0, "empty edge name"));
        }
        // advance past name and '('
        while let Some(&(_, ch)) = chars.peek() {
            chars.next();
            if ch == '(' {
                break;
            }
        }
        // read vertices up to ')'
        let mut vs = Vec::new();
        let mut cur = String::new();
        let mut closed = false;
        for (_, ch) in chars.by_ref() {
            match ch {
                ')' => {
                    closed = true;
                    break;
                }
                ',' => {
                    let v = cur.trim().to_string();
                    if v.is_empty() {
                        return Err(err(0, format!("empty vertex in edge `{name}`")));
                    }
                    vs.push(v);
                    cur.clear();
                }
                _ => cur.push(ch),
            }
        }
        if !closed {
            return Err(err(0, format!("unterminated edge `{name}`")));
        }
        let last = cur.trim().to_string();
        if !last.is_empty() {
            vs.push(last);
        }
        if vs.is_empty() {
            return Err(err(0, format!("edge `{name}` has no vertices")));
        }
        let mut ids = Vec::with_capacity(vs.len());
        for v in vs {
            let next = vertex_ids.len();
            ids.push(*vertex_ids.entry(v).or_insert(next));
        }
        edges.push((name, ids));
    }

    let mut h = Hypergraph::new(vertex_ids.len());
    let mut names: Vec<(String, usize)> = vertex_ids.into_iter().collect();
    names.sort_by_key(|&(_, id)| id);
    for (name, id) in names {
        h.set_vertex_name(id, name);
    }
    for (name, ids) in edges {
        h.try_add_named_edge(name, ids).map_err(|e| err(0, e.to_string()))?;
    }
    Ok(h)
}

/// Everything a parse result says: vertex names in index order, then each
/// edge's name and sorted vertex ids — or the error.
type Shape = Result<(Vec<String>, Vec<(String, Vec<usize>)>), ParseError>;

fn shape(r: Result<Hypergraph, ParseError>) -> Shape {
    r.map(|h| {
        let vertices = (0..h.num_vertices()).map(|v| h.vertex_name(v).to_string()).collect();
        let edges = (0..h.num_edges()).map(|e| (h.edge_name(e).to_string(), h.edge(e).to_vec())).collect();
        (vertices, edges)
    })
}

fn assert_same(input: &str, context: &str) {
    assert_eq!(
        shape(parse_hypergraph(input)),
        shape(oracle_parse(input)),
        "{context}: parsers disagree on {input:?}"
    );
}

#[test]
fn adversarial_inputs_parse_like_the_oracle() {
    for input in hypergraph_corpus::ADVERSARIAL {
        assert_same(input, "adversarial");
    }
}

#[test]
fn seeded_random_texts_parse_like_the_oracle() {
    let (mut ok, mut failed) = (0, 0);
    for seed in 0..3000u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let text = hypergraph_corpus::random_text(&mut rng);
        assert_same(&text, &format!("seed {seed}"));
        let mutant = hypergraph_corpus::mutate(&text, &mut rng);
        assert_same(&mutant, &format!("seed {seed} (mutated)"));
        for input in [&text, &mutant] {
            if oracle_parse(input).is_ok() {
                ok += 1;
            } else {
                failed += 1;
            }
        }
    }
    // both outcomes must be well represented, or the comparison is idle
    assert!(ok > 1000 && failed > 1000, "ok {ok}, failed {failed}");
}
