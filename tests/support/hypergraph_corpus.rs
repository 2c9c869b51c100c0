//! The hypergraph-text corpus shared by the parser and canonical-text
//! differential tests: hand-made adversarial texts, seeded random texts
//! and seeded character-level mutations of them.

use ghd_prng::rngs::StdRng;
use ghd_prng::RngExt;

/// Hand-made adversarial texts: comments inside names and vertex lists,
/// CRLF and lone CR, non-ASCII whitespace, empty vertices, unterminated
/// atoms, stray separators.
pub const ADVERSARIAL: &[&str] = &[
    "",
    "\n\n",
    "A(x,y),\nB(y,z).\n",
    "A(x,y),B(y,z)",
    // comments inside names and vertex lists, `%` and `#`
    "A(x,% y)\nz)",
    "Ab%c(x)\nd(y)",
    "A(x,y)# B(y,z)\nC(z)",
    "% header only",
    "#(x)\nA(x)",
    "A(x%\n,y)",
    // CRLF, lone CR and CR inside names spanning lines
    "A(x,y),\r\nB(y,z).\r\n",
    "A(x\r\ny)",
    "na\r\nme(x)",
    "A(x)\r",
    "A(x\ry)",
    "A(x)\r\n% c\r\nB(x)",
    // non-ASCII whitespace between atoms and inside names
    "A(x,y)\u{a0},\u{2003}B(y,z)",
    "A\u{a0}B(x\u{2003}y, z\u{a0})",
    "\u{2003}\u{a0}A(\u{a0}x\u{a0})",
    "\u{85}A(x)\u{2028}B(\u{3000}x)",
    "A(x\u{b}y,\u{c}z)",
    "A(\u{a0}, x)",
    // empty vertices
    "e(,a)",
    "e(a,)",
    "e(a,,b)",
    "e( , )",
    "e()",
    "e( )",
    // unterminated atoms
    "A(x",
    "A(x,",
    "A(x,y",
    "A",
    "A   ",
    "A(x),B",
    "A(x),B(",
    // `)` or `,` before `(`
    "(x,y)",
    ")A(x)",
    "A)(x)",
    "A,B(x)",
    "A(x)),B(y)",
    // stray separators
    "...,,,A(x)...,,",
    ".,A(x),.B(y).",
    "A.b(x.y,z.)",
    // nested parentheses become part of a vertex name
    "A(x(y),z)",
    "A((x))",
    // multibyte names and a duplicate vertex within an edge
    "é(ü,ü,ß)",
    "𝄞(😀,✓)\n€(✓)",
];

/// A seeded instance text: random atoms over a small name pool, joined by
/// random separators, with random comments and line endings spliced in.
pub fn random_text(rng: &mut StdRng) -> String {
    const NAMES: &[&str] = &[
        "a",
        "b",
        "x1",
        "x_2",
        "v.3",
        "é",
        "ü ü",
        "n\u{a0}m",
        "𝄞",
        "long_name_42",
    ];
    const SEPS: &[&str] = &[
        ",",
        ",\n",
        ", ",
        ",\r\n",
        ".",
        "\n",
        "\u{a0},",
        ",\u{2003}",
        " ,\t",
        ",.,",
    ];
    const PADS: &[&str] = &["", "", "", " ", "\t", "\u{a0}", "\u{2003}", "\r\n", "\n"];
    let mut s = String::new();
    let atoms = rng.random_range(0..12usize);
    for i in 0..atoms {
        if i > 0 {
            s.push_str(SEPS[rng.random_range(0..SEPS.len())]);
        }
        if rng.random_bool(0.15) {
            s.push_str(if rng.random_bool(0.5) {
                "% note (a,b)\n"
            } else {
                "# x)\r\n"
            });
        }
        s.push_str(PADS[rng.random_range(0..PADS.len())]);
        s.push_str(&format!("E{}", rng.random_range(0..20u32)));
        s.push_str(PADS[rng.random_range(0..PADS.len())]);
        s.push('(');
        let arity = rng.random_range(1..5usize);
        for j in 0..arity {
            if j > 0 {
                s.push(',');
            }
            s.push_str(PADS[rng.random_range(0..PADS.len())]);
            s.push_str(NAMES[rng.random_range(0..NAMES.len())]);
            s.push_str(PADS[rng.random_range(0..PADS.len())]);
        }
        s.push(')');
    }
    if rng.random_bool(0.5) {
        s.push('.');
    }
    if rng.random_bool(0.5) {
        s.push('\n');
    }
    s
}

/// Applies up to three character-level edits from the parser's special
/// characters: insert, delete, or truncate.
pub fn mutate(text: &str, rng: &mut StdRng) -> String {
    const SPECIAL: &[char] = &[
        '(', ')', ',', '.', '%', '#', '\r', '\n', ' ', '\u{a0}', '\u{2003}', 'q', 'é',
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
