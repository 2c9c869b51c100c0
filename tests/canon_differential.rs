//! Differential test of the canonical-text writers against the oracle
//! `write_*(parse_*(t))`: on every input, `canonical_graph_text` and
//! `canonical_hypergraph_text` return the same bytes as parsing and
//! re-serialising, or the same error. The graph oracle parses with the
//! DIMACS and PACE parsers as they stood before the canonical writer
//! shared their scanner, kept here verbatim apart from their names, so the
//! library parsers are checked against them too. The hypergraph parser has
//! its own oracle in `parse_differential.rs`, over the same corpus. A
//! failing case prints the seed and the input.

use ghd::core::canon::log::CacheLog;
use ghd::core::canon::{text_hash, CacheKey, CachedDecomp};
use ghd::hypergraph::generators::{graphs, hypergraphs};
use ghd::hypergraph::io::{
    canonical_graph_text, canonical_hypergraph_text, check_header_count, parse_dimacs, parse_graph,
    parse_hypergraph, parse_pace_gr, write_dimacs, write_hypergraph, write_pace_gr, ParseError,
};
use ghd::hypergraph::Graph;
use ghd::serve::Solver;
use ghd_cli::CliSolver;
use ghd_prng::rngs::StdRng;
use ghd_prng::RngExt;

#[path = "support/hypergraph_corpus.rs"]
mod hypergraph_corpus;

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// `parse_dimacs` as it stood before the shared scanner, verbatim apart
/// from its name.
fn oracle_dimacs(input: &str) -> Result<Graph, ParseError> {
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

/// `parse_pace_gr` as it stood before the shared scanner, verbatim apart
/// from its name.
fn oracle_pace_gr(input: &str) -> Result<Graph, ParseError> {
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

/// The CLI's `load_graph` format sniff as it stood before it moved into
/// the library, verbatim apart from its name and error type.
fn oracle_graph(text: &str) -> Result<Graph, ParseError> {
    let looks_pace = text
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('c'))
        .is_some_and(|l| l.starts_with("p tw"));
    if looks_pace {
        oracle_pace_gr(text)
    } else {
        oracle_dimacs(text)
    }
}

/// Asserts the graph canonical text equals the oracle's on `input`, the
/// library parsers agree with the pre-change ones, and an accepted text's
/// canonical form is its own canonical form. Returns whether it parsed.
fn assert_graph_same(input: &str, context: &str) -> bool {
    let oracle = oracle_graph(input);
    let expected = oracle.as_ref().map(write_dimacs).map_err(Clone::clone);
    let canon = canonical_graph_text(input);
    assert_eq!(
        canon, expected,
        "{context}: canonical text differs on {input:?}"
    );
    assert_eq!(
        parse_graph(input),
        oracle,
        "{context}: parse_graph differs on {input:?}"
    );
    assert_eq!(
        parse_dimacs(input),
        oracle_dimacs(input),
        "{context}: parse_dimacs differs on {input:?}"
    );
    assert_eq!(
        parse_pace_gr(input),
        oracle_pace_gr(input),
        "{context}: parse_pace_gr differs on {input:?}"
    );
    if let Ok(canon) = &canon {
        assert_eq!(
            canonical_graph_text(canon).as_ref(),
            Ok(canon),
            "{context}: not a fixed point"
        );
    }
    canon.is_ok()
}

/// Asserts the hypergraph canonical text equals `write(parse(input))` and
/// is a fixed point. Returns whether it parsed.
fn assert_hypergraph_same(input: &str, context: &str) -> bool {
    let expected = parse_hypergraph(input).map(|h| write_hypergraph(&h));
    let canon = canonical_hypergraph_text(input);
    assert_eq!(
        canon, expected,
        "{context}: canonical text differs on {input:?}"
    );
    if let Ok(canon) = &canon {
        assert_eq!(
            canonical_hypergraph_text(canon).as_ref(),
            Ok(canon),
            "{context}: not a fixed point"
        );
    }
    canon.is_ok()
}

#[test]
fn adversarial_graph_texts_canonicalise_like_the_oracle() {
    let cases = [
        "",
        "\n",
        "c only a comment\n",
        "p edge 3 2\ne 1 2\ne 2 3\n",
        "p edge 3 2\ne 2 3\ne 1 2\n",
        "p edge 3 3\ne 1 2\ne 2 1\ne 1 2\n",
        "p edge 3 1\ne 2 2\n",
        "p edge 0 0\n",
        "p edge 4 0\n",
        "p col 3 1\ne 3 1\n",
        "p tw 3 2\n1 2\n3 2\n",
        "p tw 3 1\n2 2\n",
        "c x\np tw 2 1\nc y\n1 2\n",
        // CRLF, lone CR, blank lines and padding
        "p edge 3 2\r\ne 1 2\r\n\r\ne 3 2\r\n",
        "p edge 3 1\re 1 2\n",
        "  p edge 3 1  \n\t e  1\t2 \n",
        "p tw 3 1\r\n 1 3 \r\n",
        // non-ASCII whitespace inside and around lines
        "p\u{a0}edge\u{3000}3 1\ne\u{a0}1\u{3000}2\u{a0}\n",
        "\u{3000}p edge 3 1\n\u{a0}e 1 3\n",
        "p tw\u{a0}3 1\n1\u{3000}2\n",
        "p\u{a0}tw 3 1\n1 2\n",
        "p edge 3 1\ne 1 2\u{85}e 2 3\n",
        "p edge 3 1\u{2028}e 1 2\n",
        // numerals
        "p edge +3 1\ne +1 +3\n",
        "p tw +3 1\n+1 03\n",
        "p edge 3 1\ne -1 2\n",
        "p edge 3 1\ne 1 2x\n",
        "p edge 3 x\ne 1 2\n",
        "p edge 3\ne 1 2\n",
        "p edge 18446744073709551616 1\n",
        "p edge 3 1\ne 1 18446744073709551616\n",
        // trailing tokens are ignored, missing ones are not
        "p edge 3 1 extra\ne 1 2 3 4\n",
        "p tw 3 1 extra\n1 2 3\n",
        "p edge 3 1\ne 1\n",
        "p tw 3 1\n1\n",
        "p edge 3 1\ne\n",
        // missing, duplicate and late headers
        "e 1 2\n",
        "1 2\n",
        "e 1 2\np edge 3 1\n",
        "1 2\np tw 3 1\n",
        "p edge 3 1\np edge 3 1\ne 1 2\n",
        "p tw 3 1\np tw 3 1\n1 2\n",
        "p edge 3 1\np tw 3 1\n",
        "p tw 3 1\np edge 3 1\n",
        "p\n",
        "p tw\n",
        "p twx 3 1\n1 2\n",
        "p cep 3 1\n1 2\n",
        "p edgy 3 1\ne 1 2\n",
        // out-of-range endpoints
        "p edge 3 1\ne 0 1\n",
        "p edge 3 1\ne 1 4\n",
        "p tw 3 1\n4 1\n",
        "p tw 3 1\n0 0\n",
        // unknown line types; `c` prefixes anything
        "p edge 3 1\nq 1 2\n",
        "p edge 3 1\ncol 1 2\ne 1 2\n",
        "p edge 3 1\nE 1 2\n",
        // implausible header counts
        "p edge 999999999999999 1\n",
        "p tw 999999999999999 1\n",
        "p edge 4129 0\n",
        "p edge 4128 0\n",
    ];
    for input in cases {
        assert_graph_same(input, "adversarial");
    }
}

/// A seeded graph text, DIMACS or PACE: shuffled, mirrored and duplicate
/// edges and self-loops, `c` comments, blank lines, CRLF, non-ASCII
/// whitespace and `+`/zero-padded numerals, and sometimes one defect (a
/// missing, duplicate or late header, an out-of-range endpoint, an
/// implausible header count, a bad token).
fn random_graph_text(rng: &mut StdRng) -> String {
    const SEPS: &[&str] = &[" ", " ", " ", "  ", "\t", "\u{a0}", "\u{3000}"];
    const ENDS: &[&str] = &["\n", "\n", "\r\n", "\n\n", "\n  "];
    let n = rng.random_range(1..12usize);
    let pace = rng.random_bool(0.4);
    let mut edges: Vec<(usize, usize)> = (0..rng.random_range(0..18usize))
        .map(|_| (rng.random_range(1..=n), rng.random_range(1..=n)))
        .collect();
    if rng.random_bool(0.3) {
        // the shape of a replayed canonical text: ascending, no repeats
        edges = edges
            .into_iter()
            .filter(|(u, v)| u != v)
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect();
        edges.sort_unstable();
        edges.dedup();
    } else if !edges.is_empty() {
        for _ in 0..rng.random_range(0..3usize) {
            let (u, v) = edges[rng.random_range(0..edges.len())];
            edges.push(if rng.random_bool(0.5) { (v, u) } else { (u, v) });
        }
    }
    let sep = |rng: &mut StdRng| {
        if rng.random_bool(0.85) {
            " "
        } else {
            SEPS[rng.random_range(0..SEPS.len())]
        }
    };
    let num = |rng: &mut StdRng, k: usize| match rng.random_range(0..10u32) {
        0 => format!("+{k}"),
        1 => format!("0{k}"),
        _ => k.to_string(),
    };
    let mut lines: Vec<String> = Vec::new();
    let kind = if pace {
        "tw"
    } else if rng.random_bool(0.8) {
        "edge"
    } else {
        "col"
    };
    let (s1, s2, s3) = (sep(rng), sep(rng), sep(rng));
    let (nn, mm) = (num(rng, n), num(rng, edges.len()));
    lines.push(format!("p{s1}{kind}{s2}{nn}{s3}{mm}"));
    for &(u, v) in &edges {
        let (s1, s2) = (sep(rng), sep(rng));
        let (u, v) = (num(rng, u), num(rng, v));
        lines.push(if pace {
            format!("{u}{s1}{v}")
        } else {
            format!("e{s1}{u}{s2}{v}")
        });
    }
    match rng.random_range(0..14u32) {
        0 => {
            lines.remove(0);
        }
        1 => {
            let dup = lines[0].clone();
            lines.insert(rng.random_range(1..=lines.len()), dup);
        }
        2 if lines.len() > 1 => lines.swap(0, 1),
        3 => {
            let bad = if rng.random_bool(0.5) { 0 } else { n + 1 };
            let line = if pace {
                format!("1 {bad}")
            } else {
                format!("e {bad} 1")
            };
            lines.insert(rng.random_range(1..=lines.len()), line);
        }
        4 => lines[0] = format!("p {kind} 999999999999 1"),
        5 => {
            let junk = ["x 1 2", "e 1", "1", "e 1 y", "p", "e +-1 2"][rng.random_range(0..6usize)];
            lines.insert(rng.random_range(0..=lines.len()), junk.to_string());
        }
        _ => {}
    }
    let mut text = String::new();
    for line in lines {
        if rng.random_bool(0.1) {
            text.push_str("c a comment, p edge 9 9\n");
        }
        if rng.random_bool(0.1) {
            text.push_str(SEPS[rng.random_range(0..SEPS.len())]);
        }
        text.push_str(&line);
        text.push_str(ENDS[rng.random_range(0..ENDS.len())]);
    }
    if rng.random_bool(0.2) {
        text.pop();
    }
    text
}

/// Up to three character-level edits drawn from the graph formats'
/// special characters: insert, delete, or truncate.
fn mutate_graph_text(text: &str, rng: &mut StdRng) -> String {
    const SPECIAL: &[char] = &[
        ' ', '\n', '\r', '\t', 'c', 'p', 'e', 't', 'w', '0', '1', '9', '+', '-', '\u{a0}',
        '\u{3000}', 'é',
    ];
    let mut chars: Vec<char> = text.chars().collect();
    for _ in 0..rng.random_range(1..=3usize) {
        let at = rng.random_range(0..=chars.len());
        match rng.random_range(0..4u32) {
            0 | 1 => chars.insert(at, SPECIAL[rng.random_range(0..SPECIAL.len())]),
            2 if at < chars.len() => {
                chars.remove(at);
            }
            _ => chars.truncate(at),
        }
    }
    chars.into_iter().collect()
}

#[test]
fn seeded_graph_texts_canonicalise_like_the_oracle() {
    let (mut ok, mut failed) = (0, 0);
    for seed in 0..3000u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let text = random_graph_text(&mut rng);
        let mutant = mutate_graph_text(&text, &mut rng);
        for (input, what) in [(&text, ""), (&mutant, " (mutated)")] {
            if assert_graph_same(input, &format!("seed {seed}{what}")) {
                ok += 1;
            } else {
                failed += 1;
            }
        }
    }
    // both outcomes must be well represented, or the comparison is idle
    assert!(ok > 1000 && failed > 1000, "ok {ok}, failed {failed}");
}

#[test]
fn generated_graphs_canonicalise_like_the_oracle_in_both_formats() {
    let gs = [
        graphs::grid(5),
        graphs::queen(5),
        graphs::mycielski(4),
        graphs::complete(40),
        graphs::gnm_random(30, 90, 4),
    ];
    for (i, g) in gs.iter().enumerate() {
        let dimacs = write_dimacs(g);
        let pace = write_pace_gr(g);
        // reversed and mirrored edge lines
        let mut lines: Vec<String> = dimacs.lines().map(str::to_string).collect();
        lines[1..].reverse();
        for line in lines[1..].iter_mut().step_by(2) {
            let mut it = line.split(' ').skip(1);
            let (u, v) = (
                it.next().unwrap().to_string(),
                it.next().unwrap().to_string(),
            );
            *line = format!("e {v} {u}");
        }
        let shuffled = lines.join("\r\n");
        for text in [&dimacs, &pace, &shuffled] {
            assert!(assert_graph_same(text, &format!("graph {i}")));
        }
        assert_eq!(
            canonical_graph_text(&pace),
            Ok(dimacs.clone()),
            "graph {i}: PACE keys as DIMACS"
        );
    }
}

#[test]
fn hypergraph_corpus_canonicalises_like_the_oracle() {
    for input in hypergraph_corpus::ADVERSARIAL {
        assert_hypergraph_same(input, "adversarial");
    }
    let (mut ok, mut failed) = (0, 0);
    for seed in 0..3000u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let text = hypergraph_corpus::random_text(&mut rng);
        let mutant = hypergraph_corpus::mutate(&text, &mut rng);
        for (input, what) in [(&text, ""), (&mutant, " (mutated)")] {
            if assert_hypergraph_same(input, &format!("seed {seed}{what}")) {
                ok += 1;
            } else {
                failed += 1;
            }
        }
    }
    assert!(ok > 1000 && failed > 1000, "ok {ok}, failed {failed}");
}

#[test]
fn generated_hypergraphs_canonicalise_like_the_oracle() {
    let hs = [
        hypergraphs::adder(30),
        hypergraphs::bridge(10),
        hypergraphs::clique(8),
        hypergraphs::grid2d(5),
        hypergraphs::random_circuit(40, 50, 2),
    ];
    for (i, h) in hs.iter().enumerate() {
        let text = write_hypergraph(h);
        let commented = format!(
            "% header\r\n{}# trailer\r\n",
            text.replace(",\n", " , % note\r\n\u{a0}")
        );
        for input in [&text, &commented] {
            assert!(assert_hypergraph_same(input, &format!("hypergraph {i}")));
        }
        assert_eq!(
            canonical_hypergraph_text(&commented),
            canonical_hypergraph_text(&text),
            "hypergraph {i}"
        );
    }
}

/// A boot log whose records were written from oracle-canonicalised texts
/// replays with no verification reject; a record whose text is not in
/// canonical form is refused, so the check is not idle.
#[test]
fn oracle_canonical_records_replay_without_rejects() {
    let mut instances: Vec<(&str, String)> = Vec::new();
    for g in [
        graphs::complete(40),
        graphs::queen(5),
        graphs::gnm_random(30, 90, 4),
    ] {
        instances.push((
            "tw",
            write_dimacs(&oracle_graph(&write_pace_gr(&g)).unwrap()),
        ));
    }
    for h in [
        hypergraphs::adder(50),
        hypergraphs::clique(10),
        hypergraphs::grid2d(4),
    ] {
        let text = write_hypergraph(&h).replace(",\n", ",\r\n% note\n");
        instances.push(("ghw", write_hypergraph(&parse_hypergraph(&text).unwrap())));
    }
    let log = std::env::temp_dir().join(format!(
        "ghd-canon-differential-{}.cachelog",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&log);
    {
        let (mut writer, _, _) = CacheLog::open(&log, |_| true).expect("create log");
        for (cmd, canon) in &instances {
            let key = CacheKey {
                hash: text_hash(canon),
                canon: canon.clone(),
                signature: format!("{cmd} --method=bb"),
            };
            writer
                .append(
                    &key,
                    &CachedDecomp {
                        body: "width = 1\n".to_string(),
                        width: 1,
                    },
                )
                .unwrap();
        }
        // not canonical: a trailing comment line
        let (cmd, canon) = &instances[0];
        let stale = format!("{canon}c trailing\n");
        let key = CacheKey {
            hash: text_hash(&stale),
            canon: stale,
            signature: format!("{cmd} --method=bb"),
        };
        writer
            .append(
                &key,
                &CachedDecomp {
                    body: "width = 1\n".to_string(),
                    width: 1,
                },
            )
            .unwrap();
        writer.sync().unwrap();
    }
    let solver = CliSolver::default();
    let (_, records, report) =
        CacheLog::open(&log, |r| solver.verify_replay(&r.key)).expect("reopen log");
    let _ = std::fs::remove_file(&log);
    assert_eq!(report.verify_rejects, 1, "{report:?}");
    assert_eq!(report.replayed, instances.len(), "{report:?}");
    assert_eq!(records.len(), instances.len());
}
