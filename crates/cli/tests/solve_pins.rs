//! Byte pins of the `ghd tw` / `ghd ghw` solve path: the full stdout of
//! every method on one instance each, the `--stats json` document of the
//! exact methods on instances the split layer decomposes and of BB on a
//! tree that preprocessing settles (wall-clock fields masked), and the
//! usage errors of method selection. Every case is rendered into one
//! text and compared with `tests/fixtures/solve_pins.golden`; a mismatch
//! prints the whole rendering, so an intended change is recorded by
//! replacing the file.

use ghd_cli::run;

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

fn tmp(name: &str, content: &str) -> String {
    let path = std::env::temp_dir().join(format!("ghd-solve-pins-{}-{name}", std::process::id()));
    std::fs::write(&path, content).expect("write temp file");
    path.to_string_lossy().into_owned()
}

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Replaces the number after every `"elapsed_s": ` with `*`.
fn mask_elapsed(json: &str) -> String {
    const KEY: &str = "\"elapsed_s\": ";
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(i) = rest.find(KEY) {
        out.push_str(&rest[..i + KEY.len()]);
        out.push('*');
        rest = rest[i + KEY.len()..].trim_start_matches(|c: char| c.is_ascii_digit() || c == '.');
    }
    out.push_str(rest);
    out
}

/// Renders one case: a header naming the command (instance by name, not
/// path), then its stdout, or its exit code and message.
fn case(out: &mut String, cmd: &str, name: &str, path: &str, flags: &[&str]) {
    let args = [&[cmd, path][..], flags].concat();
    out.push_str(&format!("=== {cmd} {name} {}\n", flags.join(" ")));
    match run(&strings(&args)) {
        Ok(body) if flags.contains(&"--stats") => out.push_str(&mask_elapsed(&body)),
        Ok(body) => out.push_str(&body),
        Err(e) => out.push_str(&format!("exit {}: {e}\n", e.exit_code())),
    }
}

fn render() -> String {
    let queen4 = tmp("queen4.col", &run(&strings(&["gen", "queen", "4"])).unwrap());
    let clique6 = tmp("clique6.hg", &run(&strings(&["gen", "clique", "6"])).unwrap());
    let blocky = fixture("blocky.col");
    let components = fixture("components.hg");
    let seeded = ["--seed", "7", "--generations", "20", "--population", "30"];
    let mut out = String::new();
    for m in ["astar", "bb", "ga", "sa", "minfill"] {
        case(&mut out, "tw", "queen4", &queen4, &[&["--method", m][..], &seeded].concat());
    }
    for m in ["ga", "sa", "minfill"] {
        let flags = [&["--method", m][..], &seeded, &["--td"]].concat();
        case(&mut out, "tw", "queen4", &queen4, &flags);
    }
    for m in ["astar", "bb", "ga", "saiga", "sa", "greedy"] {
        case(&mut out, "ghw", "clique6", &clique6, &[&["--method", m][..], &seeded].concat());
    }
    for m in ["ga", "saiga", "sa", "greedy"] {
        let flags = [&["--method", m][..], &seeded, &["--show"]].concat();
        case(&mut out, "ghw", "clique6", &clique6, &flags);
    }
    for m in ["astar", "bb"] {
        let flags = ["--method", m, "--time", "0", "--stats", "json"];
        case(&mut out, "tw", "blocky", &blocky, &flags);
        case(&mut out, "ghw", "components", &components, &flags);
    }
    // preprocessing eliminates a tree completely: no block is searched
    let tree8 = tmp("tree8.col", "p edge 8 7\ne 1 2\ne 1 3\ne 2 4\ne 2 5\ne 3 6\ne 3 7\ne 7 8\n");
    case(&mut out, "tw", "tree8", &tree8, &["--method", "bb", "--time", "0", "--stats", "json"]);
    for (cmd, name, path) in [("tw", "queen4", &queen4), ("ghw", "clique6", &clique6)] {
        case(&mut out, cmd, name, path, &["--stats", "json", "--method", "ga"]);
        case(&mut out, cmd, name, path, &["--method", "nosuch"]);
        case(&mut out, cmd, name, path, &["--stats", "json", "--method", "nosuch"]);
    }
    out
}

#[test]
fn solve_outputs_match_the_recorded_bytes() {
    let actual = render();
    let golden = include_str!("fixtures/solve_pins.golden");
    if actual != golden {
        let first = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or(actual.lines().count().min(golden.lines().count()));
        panic!("solve pins diverge at line {}; full rendering:\n{actual}", first + 1);
    }
}
