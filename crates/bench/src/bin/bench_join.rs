//! End-to-end benchmark of the relational engine rewrite: the pre-PR
//! allocation-heavy pipeline (`NaiveRelation`: `Vec<Vec<Value>>` tuples,
//! `Vec<Value>` hash keys, join-then-project without semijoin reduction)
//! against the columnar engine (`ghd_csp::Relation`: flat row-major storage,
//! packed/Fx-hashed `u64` join keys, Yannakakis reduction) on identical
//! GHD-based solution-counting workloads.
//!
//! For every workload both pipelines must produce the **same solution
//! count** and — after sorting — **byte-identical solution sets**; the
//! binary asserts both before reporting a single timing, so a speedup can
//! never come from computing something different.
//!
//! ```text
//! cargo run --release -p ghd-bench --bin bench_join -- \
//!     --runs 3 --out BENCH_csp.json
//! ```

use ghd_bench::table::{Args, Table};
use ghd_bounds::upper::min_fill_ordering;
use ghd_core::bucket::ghd_from_ordering;
use ghd_core::json::{Layout, Writer};
use ghd_core::setcover::CoverMethod;
use ghd_core::GeneralizedHypertreeDecomposition;
use ghd_csp::examples;
use ghd_csp::naive::NaiveRelation;
use ghd_csp::{
    count_solutions_with_ghd_opts, enumerate_solutions_with_ghd_opts, Csp, Relation, SolveOptions,
    Value,
};
use ghd_hypergraph::generators::{graphs, hypergraphs};
use ghd_hypergraph::Hypergraph;
use ghd_prng::rngs::StdRng;
use ghd_prng::RngExt;
use std::time::Instant;

// ---------------------------------------------------------------------------
// workloads
// ---------------------------------------------------------------------------

/// A CSP whose constraint relations are random tuple subsets over the edges
/// of `h` (every edge becomes one constraint, so every vertex is
/// constrained and the constraint hypergraph equals `h`).
fn random_csp_on(h: &Hypergraph, domain: u32, density: f64, seed: u64) -> Csp {
    let mut rng = StdRng::seed_from_u64(seed);
    let dom: Vec<Value> = (0..domain).collect();
    let mut csp = Csp::with_uniform_domain(h.num_vertices(), dom);
    for e in 0..h.num_edges() {
        let scope: Vec<usize> = h.edge(e).iter().collect();
        let arity = scope.len();
        let total = (domain as u64).pow(arity as u32);
        let mut tuples: Vec<Vec<Value>> = (0..total)
            .filter(|_| rng.random_bool(density))
            .map(|mut m| {
                let mut t = vec![0; arity];
                for slot in t.iter_mut() {
                    *slot = (m % domain as u64) as Value;
                    m /= domain as u64;
                }
                t
            })
            .collect();
        if tuples.is_empty() {
            // keep the instance satisfiable-ish: never an empty constraint
            tuples.push(vec![0; arity]);
        }
        csp.add_constraint(Relation::new(scope, tuples));
    }
    csp
}

/// How a workload is measured.
#[derive(Clone, Copy)]
enum Mode {
    /// Count every solution (output-linear DFS; joins + reduction dominate
    /// when the count is moderate).
    Count,
    /// Enumerate the first `limit` solutions (for instances whose total
    /// count is astronomically large, e.g. loose tree-like adder CSPs).
    Enumerate(usize),
}

/// Workload suite. Densities and seeds were chosen (see EXPERIMENTS.md) so
/// the random instances are satisfiable with moderate solution counts —
/// the regime where relational-kernel cost, not output size, dominates.
fn workloads() -> Vec<(String, Csp, Mode)> {
    vec![
        (
            "color_grid5_k3".to_string(),
            examples::graph_coloring(&graphs::grid(5), 3),
            Mode::Count,
        ),
        (
            "rand_clique10_d4".to_string(),
            random_csp_on(&hypergraphs::clique(10), 4, 0.84, 2),
            Mode::Count,
        ),
        (
            "rand_clique11_d4".to_string(),
            random_csp_on(&hypergraphs::clique(11), 4, 0.83, 1),
            Mode::Count,
        ),
        (
            "rand_grid2d7_d3".to_string(),
            random_csp_on(&hypergraphs::grid2d(7), 3, 0.50, 6),
            Mode::Count,
        ),
        (
            "rand_grid2d8_d3".to_string(),
            random_csp_on(&hypergraphs::grid2d(8), 3, 0.48, 3),
            Mode::Count,
        ),
        (
            "enum_adder24_d3".to_string(),
            random_csp_on(&hypergraphs::adder(24), 3, 0.64, 0),
            Mode::Enumerate(100_000),
        ),
    ]
}

fn decompose(csp: &Csp) -> GeneralizedHypertreeDecomposition {
    let h = csp.constraint_hypergraph();
    let sigma = min_fill_ordering::<StdRng>(&h.primal_graph(), None);
    ghd_from_ordering(&h, &sigma, CoverMethod::Greedy)
}

// ---------------------------------------------------------------------------
// the pre-PR pipeline, replicated on NaiveRelation
// ---------------------------------------------------------------------------

/// Root-first DFS over tuple choices (the pre-PR enumeration kernel,
/// operating on `NaiveRelation`).
fn naive_dfs(
    rels: &[NaiveRelation],
    order: &[usize],
    depth: usize,
    assignment: &mut Vec<Option<Value>>,
    emit: &mut dyn FnMut(&[Option<Value>]) -> bool,
) -> bool {
    if depth == order.len() {
        return emit(assignment);
    }
    let r = &rels[order[depth]];
    'tuples: for t in r.tuples() {
        let mut touched: Vec<usize> = Vec::new();
        for (&v, &val) in r.scope().iter().zip(t.iter()) {
            match assignment[v] {
                Some(a) if a != val => {
                    for &u in &touched {
                        assignment[u] = None;
                    }
                    continue 'tuples;
                }
                Some(_) => {}
                None => {
                    assignment[v] = Some(val);
                    touched.push(v);
                }
            }
        }
        if !naive_dfs(rels, order, depth + 1, assignment, emit) {
            return false;
        }
        for &u in &touched {
            assignment[u] = None;
        }
    }
    true
}

/// Counts solutions through a GHD with the pre-PR logic: sequential
/// clone-join-project per node, upward-only semijoin reduction, DFS count.
fn naive_count(csp: &Csp, ghd: &GeneralizedHypertreeDecomposition) -> u64 {
    let (mut rels, parent, order) = naive_relations(csp, ghd);
    // upward semijoin reduction (children before parents), as pre-PR
    for &i in order.iter().rev() {
        if let Some(p) = parent[i] {
            let child = std::mem::replace(&mut rels[i], NaiveRelation::new(vec![], vec![]));
            rels[p].semijoin(&child);
            rels[i] = child;
            if rels[p].is_empty() {
                return 0;
            }
        }
    }
    let mut count: u64 = 0;
    let mut assignment = vec![None; csp.num_variables()];
    naive_dfs(&rels, &order, 0, &mut assignment, &mut |_| {
        count += 1;
        true
    });
    count
}

/// Per-node relations + tree shape, pre-PR style: `R_p := π_{χ(p)}(⋈ λ(p))`
/// built by sequential clone-and-join without any semijoin pre-reduction.
fn naive_relations(
    csp: &Csp,
    ghd: &GeneralizedHypertreeDecomposition,
) -> (Vec<NaiveRelation>, Vec<Option<usize>>, Vec<usize>) {
    let h = csp.constraint_hypergraph();
    let owned;
    let complete: &GeneralizedHypertreeDecomposition = if ghd.is_complete(&h) {
        ghd
    } else {
        owned = ghd.clone().complete(&h);
        &owned
    };
    let td = complete.tree();
    let naive_constraints: Vec<NaiveRelation> = csp
        .constraints()
        .iter()
        .map(NaiveRelation::from_relation)
        .collect();
    let rels: Vec<NaiveRelation> = td
        .nodes()
        .map(|p| {
            let bag: Vec<usize> = td.bag(p).to_vec();
            let lam = complete.lambda(p);
            if lam.is_empty() {
                return NaiveRelation::full(bag, csp.domains());
            }
            let mut joined = naive_constraints[lam[0]].clone();
            for &e in &lam[1..] {
                joined = joined.join(&naive_constraints[e]);
            }
            joined.project(&bag)
        })
        .collect();
    let parent: Vec<Option<usize>> = td.nodes().map(|p| td.parent(p)).collect();
    let order = td.preorder();
    (rels, parent, order)
}

/// Enumerates up to `limit` solutions with the pre-PR pipeline (for the
/// byte-identity check; unconstrained variables take their first domain
/// value).
fn naive_enumerate(
    csp: &Csp,
    ghd: &GeneralizedHypertreeDecomposition,
    limit: usize,
) -> Vec<Vec<Value>> {
    let (mut rels, parent, order) = naive_relations(csp, ghd);
    for &i in order.iter().rev() {
        if let Some(p) = parent[i] {
            let child = std::mem::replace(&mut rels[i], NaiveRelation::new(vec![], vec![]));
            rels[p].semijoin(&child);
            rels[i] = child;
            if rels[p].is_empty() {
                return Vec::new();
            }
        }
    }
    let mut out = Vec::new();
    let mut assignment = vec![None; csp.num_variables()];
    naive_dfs(&rels, &order, 0, &mut assignment, &mut |partial| {
        out.push(
            partial
                .iter()
                .enumerate()
                .map(|(v, a)| a.unwrap_or(csp.domain(v)[0]))
                .collect::<Vec<Value>>(),
        );
        out.len() < limit
    });
    out
}

// ---------------------------------------------------------------------------
// driver
// ---------------------------------------------------------------------------

struct Row {
    workload: String,
    vars: usize,
    constraints: usize,
    solutions: u64,
    wall_naive: f64,
    wall_new: f64,
    wall_new_mt: f64,
}

fn best_of<R>(runs: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..runs {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(r);
    }
    (best, last.expect("runs >= 1"))
}

fn main() {
    let args = Args::parse();
    let runs: usize = args.get::<usize>("runs").unwrap_or(3).max(1);
    let out: String = args.get("out").unwrap_or_else(|| "BENCH_csp.json".to_string());

    println!("bench_join — naive vs columnar relational pipeline (best of {runs})\n");
    let mut t = Table::new(&[
        "Workload", "vars", "cons", "solutions", "t_naive[s]", "t_new[s]", "speedup", "t_mt[s]",
    ]);

    let seq = SolveOptions {
        threads: 1,
        ..SolveOptions::default()
    };
    let par = SolveOptions {
        threads: 0,
        ..SolveOptions::default()
    };

    let mut rows: Vec<Row> = Vec::new();
    for (name, csp, mode) in workloads() {
        let ghd = decompose(&csp);

        // correctness first: identical counts, byte-identical sorted sets
        let (solutions, wall_naive, wall_new, wall_new_mt) = match mode {
            Mode::Count => {
                let count_new =
                    count_solutions_with_ghd_opts(&csp, &ghd, &seq).expect("valid GHD");
                let count_naive = naive_count(&csp, &ghd);
                assert_eq!(count_naive, count_new, "{name}: pipelines disagree on count");
                let mut sols_new = enumerate_solutions_with_ghd_opts(&csp, &ghd, usize::MAX, &par)
                    .expect("valid GHD");
                let mut sols_naive = naive_enumerate(&csp, &ghd, usize::MAX);
                sols_new.sort_unstable();
                sols_naive.sort_unstable();
                assert_eq!(
                    sols_naive, sols_new,
                    "{name}: sorted solution sets differ between engines"
                );
                // timing: the full count pipeline, end to end
                let (wall_naive, _) = best_of(runs, || naive_count(&csp, &ghd));
                let (wall_new, _) = best_of(runs, || {
                    count_solutions_with_ghd_opts(&csp, &ghd, &seq).expect("valid GHD")
                });
                let (wall_new_mt, _) = best_of(runs, || {
                    count_solutions_with_ghd_opts(&csp, &ghd, &par).expect("valid GHD")
                });
                (count_new, wall_naive, wall_new, wall_new_mt)
            }
            Mode::Enumerate(limit) => {
                // both pipelines emit solutions in the same deterministic
                // root-first DFS order, so the first `limit` solutions are
                // compared byte-for-byte *without* sorting
                let sols_new = enumerate_solutions_with_ghd_opts(&csp, &ghd, limit, &seq)
                    .expect("valid GHD");
                let sols_naive = naive_enumerate(&csp, &ghd, limit);
                assert_eq!(
                    sols_naive, sols_new,
                    "{name}: first-{limit} solution streams differ between engines"
                );
                let (wall_naive, _) = best_of(runs, || naive_enumerate(&csp, &ghd, limit).len());
                let (wall_new, _) = best_of(runs, || {
                    enumerate_solutions_with_ghd_opts(&csp, &ghd, limit, &seq)
                        .expect("valid GHD")
                        .len()
                });
                let (wall_new_mt, _) = best_of(runs, || {
                    enumerate_solutions_with_ghd_opts(&csp, &ghd, limit, &par)
                        .expect("valid GHD")
                        .len()
                });
                (sols_new.len() as u64, wall_naive, wall_new, wall_new_mt)
            }
        };

        t.row(vec![
            name.clone(),
            csp.num_variables().to_string(),
            csp.constraints().len().to_string(),
            solutions.to_string(),
            format!("{wall_naive:.4}"),
            format!("{wall_new:.4}"),
            format!("{:.2}x", wall_naive / wall_new.max(1e-9)),
            format!("{wall_new_mt:.4}"),
        ]);
        rows.push(Row {
            workload: name,
            vars: csp.num_variables(),
            constraints: csp.constraints().len(),
            solutions,
            wall_naive,
            wall_new,
            wall_new_mt,
        });
    }
    t.print();

    let total_naive: f64 = rows.iter().map(|r| r.wall_naive).sum();
    let total_new: f64 = rows.iter().map(|r| r.wall_new).sum();
    println!(
        "\ntotal wall: naive {:.4}s, columnar {:.4}s ({:.2}x)",
        total_naive,
        total_new,
        total_naive / total_new.max(1e-9)
    );

    let mut json = String::new();
    Writer::new(&mut json).object(Layout::Lines, |o| {
        o.field("bench").str("csp_relation_engine");
        o.field("runs").int(runs);
        o.field("total_wall_s_naive").f64(total_naive, 6);
        o.field("total_wall_s_columnar").f64(total_new, 6);
        o.field("results").records(Layout::Lines, &rows, |o, r| {
            o.field("workload").str(&r.workload);
            o.field("vars").int(r.vars);
            o.field("constraints").int(r.constraints);
            o.field("solutions").int(r.solutions);
            o.field("wall_s_naive").f64(r.wall_naive, 6);
            o.field("wall_s_columnar").f64(r.wall_new, 6);
            o.field("wall_s_columnar_mt").f64(r.wall_new_mt, 6);
            o.field("speedup").f64(r.wall_naive / r.wall_new.max(1e-9), 3);
        });
    });
    json.push('\n');
    std::fs::write(&out, &json).expect("write BENCH_csp.json");
    println!("wrote {out}");
}
