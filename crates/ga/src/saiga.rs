//! Algorithm SAIGA-ghw (§7.2): a *self-adaptive island* genetic algorithm
//! for generalized hypertree width upper bounds, based on Eiben et al. \[19\].
//!
//! Several sub-populations ("islands") evolve in parallel, each carrying its
//! own control-parameter vector (crossover rate, mutation rate). Every epoch
//! the islands (arranged in a ring):
//!
//! 1. evolve independently for a fixed number of generations,
//! 2. migrate their best individual to the next island (replacing its worst),
//! 3. perform *neighbour orientation* (§7.2.5): an island that progressed
//!    less than its better ring neighbour moves its parameter vector a step
//!    towards the neighbour's, and
//! 4. mutate the parameter vector multiplicatively by a log-normal factor
//!    (§7.2.4, Fig 7.4), clamped to sane ranges.
//!
//! The point of the construction (per the thesis) is that no external
//! parameter tuning is needed: crossover and mutation rates adapt during the
//! run.

use crate::engine::{GaConfig, GaResult, Population};
use crate::permutation::{CrossoverOp, MutationOp};
use ghd_core::eval::GhwEvaluator;
use ghd_core::EliminationOrdering;
use ghd_hypergraph::Hypergraph;
use ghd_prng::rngs::StdRng;
use ghd_prng::{Rng, RngExt};

/// Configuration of the island model. Per-island GA rates are *not* part of
/// the configuration: they are self-adapted.
#[derive(Clone, Debug)]
pub struct SaigaConfig {
    /// Number of islands in the ring.
    pub islands: usize,
    /// Individuals per island.
    pub island_population: usize,
    /// Number of migrate-adapt epochs.
    pub epochs: usize,
    /// Generations evolved per epoch on each island.
    pub generations_per_epoch: usize,
    /// Tournament group size (fixed; the rates adapt).
    pub tournament: usize,
    /// Crossover / mutation operators (POS + ISM per Chapter 6's tuning).
    pub crossover: CrossoverOp,
    /// Mutation operator.
    pub mutation: MutationOp,
    /// Learning rate of the log-normal parameter mutation (τ in Fig 7.4).
    pub tau: f64,
    /// Step size of neighbour orientation (§7.2.5).
    pub orientation_step: f64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for the island-evolution step (`0` = all cores,
    /// `1` = sequential). Islands evolve on disjoint state with private
    /// RNG streams, so the result is **bit-identical for every thread
    /// count** — parallelism only changes wall-clock time.
    pub threads: usize,
}

impl Default for SaigaConfig {
    fn default() -> Self {
        SaigaConfig {
            islands: 4,
            island_population: 100,
            epochs: 20,
            generations_per_epoch: 25,
            tournament: 3,
            crossover: CrossoverOp::Pos,
            mutation: MutationOp::Ism,
            tau: 0.3,
            orientation_step: 0.5,
            seed: 0,
            threads: 0,
        }
    }
}

impl SaigaConfig {
    /// A small configuration for tests.
    pub fn small(seed: u64) -> Self {
        SaigaConfig {
            islands: 3,
            island_population: 24,
            epochs: 6,
            generations_per_epoch: 8,
            seed,
            ..SaigaConfig::default()
        }
    }
}

/// One entry of the per-epoch telemetry trace: the state of every island at
/// the end of an epoch (after migration, orientation and parameter
/// mutation). Recording is read-only and never influences evolution, so
/// results stay bit-identical with or without consumers of the trace.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochSample {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Best width held by each island (ring order).
    pub island_widths: Vec<usize>,
    /// `(crossover_rate, mutation_rate)` of each island after adaptation.
    pub parameters: Vec<(f64, f64)>,
}

/// Result of a SAIGA run: the GA result plus the final adapted parameter
/// vectors per island.
#[derive(Clone, Debug)]
pub struct SaigaResult {
    /// Combined best over all islands.
    pub result: GaResult,
    /// Final `(crossover_rate, mutation_rate)` per island.
    pub final_parameters: Vec<(f64, f64)>,
    /// Per-epoch island widths and parameter vectors (one entry per epoch).
    pub epoch_trace: Vec<EpochSample>,
    /// Contained worker panics across all epochs (`task` is the island
    /// index). A faulted island skips that epoch's private evolution — its
    /// population is untouched, because the fault hook fires before any
    /// mutation — and rejoins the ring at the next migration, so the run
    /// completes with a valid (possibly slightly worse) result.
    pub faults: Vec<ghd_par::WorkerFault>,
}

/// Approximate standard normal via Irwin–Hall (sum of 12 uniforms − 6);
/// avoids an extra dependency and is plenty for parameter jitter.
fn normalish<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    (0..12).map(|_| rng.random::<f64>()).sum::<f64>() - 6.0
}

fn clamp(x: f64, lo: f64, hi: f64) -> f64 {
    x.max(lo).min(hi)
}

/// The full state owned by one island: its population, its private fitness
/// evaluator and tie-break stream, its adapted parameter vector, and the
/// width progress of the last epoch. Islands only share data at the epoch
/// barriers (migration, orientation), so the evolution step hands each
/// island to a worker via [`ghd_par::for_each_mut`].
struct Island<'a> {
    pop: Population,
    eval: GhwEvaluator<'a>,
    rng: StdRng,
    params: (f64, f64),
    progress: usize,
}

impl Island<'_> {
    fn fitness_of(eval: &mut GhwEvaluator, rng: &mut StdRng, genes: &[usize]) -> usize {
        let sigma = EliminationOrdering::new(genes.to_vec()).expect("permutation");
        eval.width(&sigma, Some(rng))
    }

    /// One epoch of private evolution (step 1); records progress.
    fn evolve(&mut self, generations: usize) {
        let before = self.pop.best_width();
        self.pop.set_rates(self.params.0, self.params.1);
        let Island { pop, eval, rng, .. } = self;
        pop.evolve(generations, &mut |g: &[usize]| {
            Island::fitness_of(eval, rng, g)
        });
        self.progress = before.saturating_sub(self.pop.best_width());
    }

    /// Accepts a migrant (step 2), evaluated with this island's stream.
    fn accept(&mut self, migrant: Vec<usize>) {
        let Island { pop, eval, rng, .. } = self;
        pop.inject(migrant, &mut |g: &[usize]| Island::fitness_of(eval, rng, g));
    }

    /// Orientation/parameter sort key: better width first, then more
    /// progress.
    fn rank(&self) -> (usize, std::cmp::Reverse<usize>) {
        (self.pop.best_width(), std::cmp::Reverse(self.progress))
    }
}

/// Runs SAIGA-ghw on a hypergraph.
///
/// The per-epoch island evolution — by far the dominant cost, millions of
/// fitness evaluations — runs on [`SaigaConfig::threads`] workers. Each
/// island owns its evaluator and RNG stream, so the outcome is bit-identical
/// for every thread count.
pub fn saiga_ghw(h: &Hypergraph, cfg: &SaigaConfig) -> SaigaResult {
    assert!(cfg.islands >= 2, "a ring needs at least two islands");
    let n = h.num_vertices();
    let mut meta_rng = StdRng::seed_from_u64(cfg.seed);
    let primal = h.primal_graph();

    // initial parameter vectors drawn uniformly from their ranges (§7.2.3)
    let params: Vec<(f64, f64)> = (0..cfg.islands)
        .map(|_| {
            (
                meta_rng.random_range(0.5..=1.0),  // crossover rate
                meta_rng.random_range(0.05..=0.5), // mutation rate
            )
        })
        .collect();

    let mut islands: Vec<Island> = (0..cfg.islands)
        .map(|i| {
            let ga_cfg = GaConfig {
                population: cfg.island_population,
                crossover_rate: params[i].0,
                mutation_rate: params[i].1,
                tournament: cfg.tournament,
                generations: 0, // driven per epoch below
                crossover: cfg.crossover,
                mutation: cfg.mutation,
                seed: cfg.seed.wrapping_add(1 + i as u64),
                time_limit: None,
                initial_seeds: Vec::new(),
            };
            // per-island fitness evaluator with its own tie-break stream
            let mut eval = GhwEvaluator::with_primal(h, &primal);
            let mut rng = StdRng::seed_from_u64(
                cfg.seed ^ 0x5851_f42d_4c95_7f2d_u64.wrapping_mul(i as u64 + 1),
            );
            let pop = Population::init(n, &ga_cfg, Vec::new(), &mut |g: &[usize]| {
                Island::fitness_of(&mut eval, &mut rng, g)
            });
            Island {
                pop,
                eval,
                rng,
                params: params[i],
                progress: usize::MAX,
            }
        })
        .collect();

    let mut epoch_trace: Vec<EpochSample> = Vec::with_capacity(cfg.epochs);
    let mut faults: Vec<ghd_par::WorkerFault> = Vec::new();
    for epoch in 0..cfg.epochs {
        // 1. evolve — each island on its own worker (disjoint state); a
        // panicking island is contained: it skips this epoch's evolution
        // (injected faults fire before any state mutation) and the ring
        // carries on with the surviving islands.
        let generations = cfg.generations_per_epoch;
        faults.extend(ghd_par::for_each_mut_contained(
            &mut islands,
            cfg.threads,
            |_, island| {
                island.evolve(generations);
            },
        ));
        // 2. ring migration of the best individual
        let migrants: Vec<Vec<usize>> = islands
            .iter()
            .map(|isl| isl.pop.best_ordering().to_vec())
            .collect();
        for (i, migrant) in migrants.into_iter().enumerate() {
            let next = (i + 1) % cfg.islands;
            islands[next].accept(migrant);
        }
        // 3. neighbour orientation: move towards the better-progressing
        // ring neighbour's parameters
        let snapshot: Vec<(f64, f64)> = islands.iter().map(|isl| isl.params).collect();
        for i in 0..cfg.islands {
            let left = (i + cfg.islands - 1) % cfg.islands;
            let right = (i + 1) % cfg.islands;
            let better = [left, right]
                .into_iter()
                .filter(|&j| islands[j].rank() < islands[i].rank())
                .min_by_key(|&j| islands[j].rank());
            if let Some(j) = better {
                islands[i].params.0 += cfg.orientation_step * (snapshot[j].0 - snapshot[i].0);
                islands[i].params.1 += cfg.orientation_step * (snapshot[j].1 - snapshot[i].1);
            }
        }
        // 4. log-normal parameter mutation (Fig 7.4)
        for isl in &mut islands {
            let p = &mut isl.params;
            p.0 = clamp(p.0 * (cfg.tau * normalish(&mut meta_rng)).exp(), 0.1, 1.0);
            p.1 = clamp(p.1 * (cfg.tau * normalish(&mut meta_rng)).exp(), 0.01, 0.8);
        }
        // telemetry: snapshot the ring after this epoch (recording only)
        epoch_trace.push(EpochSample {
            epoch,
            island_widths: islands.iter().map(|isl| isl.pop.best_width()).collect(),
            parameters: islands.iter().map(|isl| isl.params).collect(),
        });
    }

    // combine
    let params: Vec<(f64, f64)> = islands.iter().map(|isl| isl.params).collect();
    let mut results: Vec<GaResult> = islands
        .into_iter()
        .map(|isl| isl.pop.into_result())
        .collect();
    let best_idx = results
        .iter()
        .enumerate()
        .min_by_key(|(_, r)| r.best_width)
        .map(|(i, _)| i)
        .expect("at least one island");
    let total_evals: u64 = results.iter().map(|r| r.evaluations).sum();
    let mut best = results.swap_remove(best_idx);
    best.evaluations = total_evals;
    SaigaResult {
        result: best,
        final_parameters: params,
        epoch_trace,
        faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghd_hypergraph::generators::hypergraphs;

    #[test]
    fn finds_ghw_of_easy_instances() {
        let cfg = SaigaConfig::small(3);
        let r = saiga_ghw(&hypergraphs::acyclic_chain(5, 3, 1), &cfg);
        assert_eq!(r.result.best_width, 1);
        let r = saiga_ghw(&hypergraphs::clique(8), &cfg);
        assert_eq!(r.result.best_width, 4);
    }

    #[test]
    fn parameters_stay_in_range() {
        let cfg = SaigaConfig::small(5);
        let r = saiga_ghw(&hypergraphs::random_hypergraph(14, 9, 4, 2), &cfg);
        assert_eq!(r.final_parameters.len(), 3);
        for &(pc, pm) in &r.final_parameters {
            assert!((0.1..=1.0).contains(&pc));
            assert!((0.01..=0.8).contains(&pm));
        }
    }

    #[test]
    fn seed_reproducible() {
        let h = hypergraphs::random_hypergraph(12, 8, 3, 9);
        let a = saiga_ghw(&h, &SaigaConfig::small(1));
        let b = saiga_ghw(&h, &SaigaConfig::small(1));
        assert_eq!(a.result.best_width, b.result.best_width);
        assert_eq!(a.final_parameters, b.final_parameters);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let h = hypergraphs::random_hypergraph(12, 8, 3, 6);
        let mut seq = SaigaConfig::small(4);
        seq.threads = 1;
        let mut par = SaigaConfig::small(4);
        par.threads = 4;
        let a = saiga_ghw(&h, &seq);
        let b = saiga_ghw(&h, &par);
        assert_eq!(a.result.best_width, b.result.best_width);
        assert_eq!(a.result.best_ordering, b.result.best_ordering);
        assert_eq!(a.result.evaluations, b.result.evaluations);
        assert_eq!(a.final_parameters, b.final_parameters);
        assert_eq!(a.epoch_trace, b.epoch_trace);
    }

    #[test]
    fn epoch_trace_records_every_epoch() {
        let cfg = SaigaConfig::small(8);
        let h = hypergraphs::random_hypergraph(12, 8, 3, 1);
        let r = saiga_ghw(&h, &cfg);
        assert_eq!(r.epoch_trace.len(), cfg.epochs);
        for (i, s) in r.epoch_trace.iter().enumerate() {
            assert_eq!(s.epoch, i);
            assert_eq!(s.island_widths.len(), cfg.islands);
            assert_eq!(s.parameters.len(), cfg.islands);
        }
        // the final trace entry matches the reported final parameters
        assert_eq!(
            r.epoch_trace.last().unwrap().parameters,
            r.final_parameters
        );
        // island bests are anytime: monotonically non-increasing per island
        for i in 0..cfg.islands {
            let widths: Vec<usize> = r.epoch_trace.iter().map(|s| s.island_widths[i]).collect();
            assert!(widths.windows(2).all(|w| w[1] <= w[0]), "island {i}: {widths:?}");
        }
    }

    #[test]
    fn never_below_exact_optimum() {
        let h = hypergraphs::random_hypergraph(10, 7, 3, 4);
        let exact = ghd_search::bb_ghw(&h, &ghd_search::BbGhwConfig::default());
        assert!(exact.exact);
        let r = saiga_ghw(&h, &SaigaConfig::small(2));
        assert!(r.result.best_width >= exact.upper_bound);
    }
}
