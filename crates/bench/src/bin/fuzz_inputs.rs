//! Deterministic fuzz harness for every untrusted-input parser in the
//! workspace: DIMACS / PACE graphs, the hypergraph text format, PACE `.td`
//! tree decompositions, the `.ghd` text format, the JSON reader and the
//! `ghd-serve` request line (the daemon's network-facing parser).
//!
//! The harness starts from *valid* corpora (serialised from real
//! instances), applies seeded byte-level mutations (flips, truncations,
//! splices, digit inflation), and asserts the contract of a hardened
//! parser on every mutant:
//!
//!   1. returns `Ok` or `Err` — it **never panics**, and
//!   2. never allocates proportionally to a declared header size before
//!      validating it against the input length (enforced indirectly: a
//!      mutant inflating a header to `99999999999` must come back `Err`
//!      in microseconds, which the run's wall-clock bound would expose,
//!      and directly by the header-cap unit tests in each parser).
//!
//! The two differential targets, `canon_graph` and `canon_hypergraph`,
//! also hold the daemon's cache-key writers to their oracle: on every
//! mutant `canonical_*_text` must return exactly what
//! `write_*(parse_*(mutant))` returns, bytes or error. The `json_writer`
//! target holds the JSON writer to the reader: each mutant of seeded
//! random text, written as an object key, a string value and a response
//! body, must read back as the same text. A disagreement panics like a
//! crash does.
//!
//! Any panic aborts the run with the seed and iteration number, which
//! reproduce the failing input exactly:
//!
//! ```text
//! cargo run --release -p ghd-bench --bin fuzz_inputs -- --iters 2000 --seed 7
//! ```
//!
//! Exit status: 0 when every mutant was handled totally, 101 (panic) on
//! the first violation. `scripts/tier1.sh` runs this as a smoke gate.

use ghd_bench::table::Args;
use ghd_core::io::{parse_ghd, parse_td, write_ghd, write_td};
use ghd_core::json::{escape, Json, Layout, Writer};
use ghd_core::{bucket, CoverMethod, EliminationOrdering};
use ghd_hypergraph::generators::{graphs, hypergraphs};
use ghd_hypergraph::io as hio;
use ghd_hypergraph::Hypergraph;
use ghd_prng::{Rng, RngExt, Xoshiro256PlusPlus};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One fuzz target: a name, a valid seed corpus and the parser under test.
struct Target {
    name: &'static str,
    corpus: Vec<String>,
    /// Returns `true` when the parser accepted the mutant (for telemetry
    /// only — both outcomes are fine, panicking is not).
    parse: Box<dyn Fn(&str) -> bool>,
}

fn targets() -> Vec<Target> {
    // graphs for the DIMACS / PACE corpora
    let gs = [graphs::grid(4), graphs::queen(5), graphs::gnm_random(18, 40, 11)];
    // hypergraphs for the text / td / ghd corpora
    let hs = vec![
        hypergraphs::grid2d(4),
        hypergraphs::random_circuit(16, 18, 3),
        hypergraphs::random_hypergraph(14, 10, 4, 5),
    ];
    let td_corpus: Vec<String> = hs
        .iter()
        .map(|h| {
            let sigma = EliminationOrdering::identity(h.num_vertices());
            write_td(&bucket::vertex_elimination(&h.primal_graph(), &sigma))
        })
        .collect();
    let ghd_corpus: Vec<String> = hs
        .iter()
        .map(|h| {
            let sigma = EliminationOrdering::identity(h.num_vertices());
            write_ghd(&bucket::ghd_from_ordering(h, &sigma, CoverMethod::Greedy), h)
        })
        .collect();
    // a GHD parse needs the hypergraph it talks about; fuzz each corpus
    // entry against its own hypergraph (clone moved into the closure)
    let ghd_hs: Vec<Hypergraph> = hs.clone();
    let json_corpus = vec![
        r#"{"bench": "x", "results": [{"instance": "g", "width": 3, "exact": true,
            "incumbents": [{"elapsed_s": 0.5, "upper_bound": 3, "lower_bound": 2}],
            "prunes": {"simplicial": 4}}], "ok": true}"#
            .to_string(),
        r#"[1, -2.5e3, "str\nA", [true, false, null], {}]"#.to_string(),
        // escapes between plain runs, multibyte text, raw control bytes
        "{\"esc\": \"q\\\" b\\\\ s\\/ \\b\\f\\n\\r\\t \\u0041\\u00e9\\u2003 end\", \
         \"ü\": \"αβ✓ 𝄞 😀\", \"raw\": \"tab\tcr\r\u{1}\"}"
            .to_string(),
        format!("\"{}\"", escape(&hio::write_hypergraph(&hs[0]))),
    ];
    // the hypergraph parser tokenises comment-free LF input in place and
    // rewrites input holding `%`, `#` or `\r` first: seed both paths,
    // plus non-ASCII whitespace between and inside atoms
    let hyper_corpus: Vec<String> = hs
        .iter()
        .map(hio::write_hypergraph)
        .flat_map(|text| {
            let commented = format!("% header\n{}# trailer\n", text.replace(",\n", ", % note\n"));
            let crlf = text.replace('\n', "\r\n");
            let unicode_ws = text.replace(",\n", ",\u{a0}\u{2003}\n").replace('(', "\u{2003}(\u{a0}");
            [text, commented, crlf, unicode_ws]
        })
        .collect();

    // both graph formats, plus a copy with its edge lines reversed and
    // every other one mirrored, so the canonical writer's sort runs too
    let graph_corpus: Vec<String> = gs
        .iter()
        .flat_map(|g| {
            let dimacs = hio::write_dimacs(g);
            let mut lines: Vec<String> = dimacs.lines().map(str::to_string).collect();
            lines[1..].reverse();
            for line in lines[1..].iter_mut().step_by(2) {
                let ends: Vec<&str> = line.split(' ').collect();
                *line = format!("e {} {}", ends[2], ends[1]);
            }
            [hio::write_pace_gr(g), dimacs, lines.join("\n")]
        })
        .collect();

    vec![
        Target {
            name: "dimacs",
            corpus: gs.iter().map(hio::write_dimacs).collect(),
            parse: Box::new(|s| hio::parse_dimacs(s).is_ok()),
        },
        Target {
            name: "pace_gr",
            corpus: gs.iter().map(hio::write_pace_gr).collect(),
            parse: Box::new(|s| hio::parse_pace_gr(s).is_ok()),
        },
        Target {
            name: "hypergraph",
            corpus: hyper_corpus.clone(),
            parse: Box::new(|s| hio::parse_hypergraph(s).is_ok()),
        },
        Target {
            name: "canon_graph",
            corpus: graph_corpus,
            parse: Box::new(|s| {
                let canon = hio::canonical_graph_text(s);
                let oracle = hio::parse_graph(s).map(|g| hio::write_dimacs(&g));
                assert_eq!(canon, oracle, "canonical_graph_text disagrees with write_dimacs(parse_graph(..))");
                canon.is_ok()
            }),
        },
        Target {
            name: "canon_hypergraph",
            corpus: hyper_corpus,
            parse: Box::new(|s| {
                let canon = hio::canonical_hypergraph_text(s);
                let oracle = hio::parse_hypergraph(s).map(|h| hio::write_hypergraph(&h));
                assert_eq!(
                    canon, oracle,
                    "canonical_hypergraph_text disagrees with write_hypergraph(parse_hypergraph(..))"
                );
                canon.is_ok()
            }),
        },
        Target {
            name: "td",
            corpus: td_corpus,
            parse: Box::new(|s| parse_td(s).is_ok()),
        },
        Target {
            name: "ghd",
            corpus: ghd_corpus,
            parse: Box::new(move |s| ghd_hs.iter().any(|h| parse_ghd(s, h).is_ok())),
        },
        Target {
            name: "json",
            corpus: json_corpus,
            parse: Box::new(|s| Json::parse(s).is_ok()),
        },
        Target {
            name: "json_writer",
            corpus: awkward_texts(),
            parse: Box::new(|s| {
                let mut doc = String::new();
                Writer::new(&mut doc).object(Layout::Inline, |o| o.field(s).str(s));
                let read = Json::parse(&doc).expect("a written document parses");
                assert_eq!(read.get(s).and_then(Json::as_str), Some(s), "writer round trip of {s:?}");
                let line = ghd_serve::Response::ok_body(None, s).render();
                let body = ghd_serve::Response::parse(&line).expect("a written response parses").body;
                assert_eq!(body.as_deref(), Some(s), "response body round trip of {s:?}");
                true
            }),
        },
        Target {
            // the daemon's request line is read straight off a socket —
            // the one parser in the workspace directly exposed to remote
            // bytes, so it must be total under mutation like the rest
            name: "serve_request",
            corpus: vec![
                ghd_serve::Request::solve(
                    Some(7),
                    "tw",
                    &hio::write_dimacs(&gs[0]),
                    &["--method".to_string(), "bb".to_string(), "--time".to_string(), "2".to_string()],
                )
                .render(),
                ghd_serve::Request::solve(None, "ghw", &hio::write_hypergraph(&hs[0]), &[])
                    .render(),
                ghd_serve::Request::control(Some(1), "stats").render(),
                ghd_serve::Request::cancel(Some(9), 42).render(),
            ],
            parse: Box::new(|s| ghd_serve::Request::parse(s).is_ok()),
        },
    ]
}

/// Seeded random byte strings, biased toward the bytes the JSON writer
/// escapes (controls, quotes, backslashes) and mixed with multi-byte
/// characters, read as lossy UTF-8 (invalid bytes become U+FFFD).
fn awkward_texts() -> Vec<String> {
    const WIDE: [&str; 4] = ["é", "€", "😀", "\u{2028}"];
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x5717);
    (0..16)
        .map(|_| {
            let mut bytes = Vec::new();
            for _ in 0..rng.random_range(0..96usize) {
                match rng.next_u64() % 5 {
                    0 => bytes.push((rng.next_u64() % 0x20) as u8),
                    1 => bytes.push([b'"', b'\\'][(rng.next_u64() % 2) as usize]),
                    2 => bytes.extend_from_slice(WIDE[(rng.next_u64() % 4) as usize].as_bytes()),
                    _ => bytes.push(rng.next_u64() as u8),
                }
            }
            String::from_utf8_lossy(&bytes).into_owned()
        })
        .collect()
}

/// Applies 1–8 seeded byte mutations to `base`. Mutations deliberately
/// include the attacks the parsers harden against: digit inflation (header
/// DoS), truncation (mid-token EOF), splicing (duplicate/global confusion)
/// and raw byte flips (non-UTF-8 is impossible here since the parsers take
/// `&str`, so flips stay in the printable ASCII range).
fn mutate(base: &str, rng: &mut Xoshiro256PlusPlus) -> String {
    let mut bytes: Vec<u8> = base.as_bytes().to_vec();
    let n_mut = 1 + (rng.next_u64() % 8) as usize;
    for _ in 0..n_mut {
        if bytes.is_empty() {
            bytes.extend_from_slice(b"0");
        }
        match rng.next_u64() % 6 {
            // flip one byte to printable ASCII
            0 => {
                let i = rng.random_range(0..bytes.len());
                bytes[i] = 0x20 + (rng.next_u64() % 95) as u8;
            }
            // truncate at a random point
            1 => {
                let i = rng.random_range(0..bytes.len());
                bytes.truncate(i);
            }
            // inflate a digit run (header-DoS attempt)
            2 => {
                if let Some(i) = bytes.iter().position(u8::is_ascii_digit) {
                    let digits: Vec<u8> = (0..11).map(|_| b'0' + (rng.next_u64() % 10) as u8).collect();
                    bytes.splice(i..i, digits);
                }
            }
            // duplicate a random slice (duplicate ids / lines)
            3 => {
                let a = rng.random_range(0..bytes.len());
                let b = (a + rng.random_range(1..64.min(bytes.len() + 1))).min(bytes.len());
                let slice: Vec<u8> = bytes[a..b].to_vec();
                bytes.splice(a..a, slice);
            }
            // delete a random slice
            4 => {
                let a = rng.random_range(0..bytes.len());
                let b = (a + rng.random_range(1..32)).min(bytes.len());
                bytes.drain(a..b);
            }
            // insert structural noise
            5 => {
                let noise: &[u8] = match rng.next_u64() % 5 {
                    0 => b"\n",
                    1 => b"{",
                    2 => b"}",
                    3 => b"-",
                    _ => b" 99999999999 ",
                };
                let i = rng.random_range(0..=bytes.len());
                bytes.splice(i..i, noise.iter().copied());
            }
            _ => unreachable!(),
        }
    }
    // the parsers take &str; repair any UTF-8 damage lossily
    String::from_utf8_lossy(&bytes).into_owned()
}

fn main() {
    let args = Args::parse();
    let iters: u64 = args.get("iters").unwrap_or(2000);
    let seed: u64 = args.get("seed").unwrap_or(7);

    let targets = targets();
    // mutants start from valid inputs: a seed that does not parse would
    // leave its parser's accepting paths unexplored
    for t in &targets {
        for (i, base) in t.corpus.iter().enumerate() {
            assert!((t.parse)(base), "fuzz_inputs: corpus seed {i} of `{}` does not parse", t.name);
        }
    }
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let mut total: u64 = 0;
    let mut accepted: u64 = 0;
    for it in 0..iters {
        for t in &targets {
            let base = &t.corpus[(rng.next_u64() as usize) % t.corpus.len()];
            let mutant = mutate(base, &mut rng);
            let outcome = catch_unwind(AssertUnwindSafe(|| (t.parse)(&mutant)));
            match outcome {
                Ok(ok) => {
                    total += 1;
                    accepted += u64::from(ok);
                }
                Err(_) => {
                    eprintln!(
                        "fuzz_inputs: PANIC in `{}` target at iter {it} (seed {seed});\n\
                         reproduce with --iters {} --seed {seed}\n\
                         --- mutant ({} bytes) ---\n{}",
                        t.name,
                        it + 1,
                        mutant.len(),
                        &mutant[..mutant.len().min(2000)]
                    );
                    std::process::exit(101);
                }
            }
        }
    }
    println!(
        "fuzz_inputs: {total} mutants across {} parsers, 0 panics ({accepted} parsed clean), seed {seed}",
        targets.len()
    );
}
