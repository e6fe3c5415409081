//! Weighted-Kirchhoff statistical layer: chi-square of the Theorem 1 and
//! Appendix exact-variant samplers over *weighted* K4, C4, and diamond
//! graphs, against the weight-proportional spanning-tree distribution
//! (each tree drawn with probability ∝ ∏ edge weights, footnote 1 of the
//! paper). The same oracle is then applied to the *served* path by
//! drawing through `cct-serve` on a `-w` weighted spec, so the weighted
//! contract is pinned both cold and behind the service.
//!
//! Gates mirror `crates/core/tests/parallel_uniformity.rs`: 8 000 trials
//! per graph, a generous `2 × crit` chi-square threshold, and a < 1%
//! Monte Carlo failure budget. The gate's power is checked too: at the
//! same trial count it must reject the random-weight-MST strawman, a
//! spanning-tree sampler known to be biased.

use cct::core::{CliqueTreeSampler, EngineChoice, SamplerConfig, WalkLength, Workers};
use cct::graph::{spanning_tree_count_exact, spanning_tree_distribution, Graph, SpanningTree};
use cct::serve::{serve, spec_seed, SampleRequest, ServeOptions};
use cct::walks::{random_weight_mst, stats};
use rand::SeedableRng;
use std::collections::HashMap;

const TRIALS: usize = 8_000;

/// Cross-checks the enumerated weighted distribution against the
/// weighted Matrix–Tree determinant, then returns it as the oracle.
fn weighted_oracle(g: &Graph, label: &str) -> Vec<(SpanningTree, f64)> {
    let exact = spanning_tree_distribution(g);
    let kirchhoff = spanning_tree_count_exact(g).expect("tiny integer-weighted graph") as f64;
    let total: f64 = exact.iter().map(|(t, _)| t.weight_in(g)).sum();
    assert!(
        (total - kirchhoff).abs() < 1e-6 * kirchhoff,
        "{label}: enumerated tree-weight mass {total} disagrees with the \
         weighted Matrix–Tree determinant {kirchhoff}"
    );
    exact
}

/// The suite's verdict on one sample: `Err` with the reason when the
/// Monte Carlo failure budget or the `2 × crit` chi-square bound is
/// exceeded.
fn chi_square_gate(
    counts: &HashMap<SpanningTree, usize>,
    exact: &[(SpanningTree, f64)],
    failures: usize,
    trials: usize,
    label: &str,
) -> Result<(), String> {
    if failures * 100 >= trials {
        return Err(format!("{label}: {failures}/{trials} Monte Carlo failures"));
    }
    let effective = trials - failures;
    let (stat, crit) = stats::goodness_of_fit(counts, exact, effective);
    if stat >= 2.0 * crit {
        return Err(format!(
            "{label}: chi² = {stat:.1} ≥ 2 × {crit:.1} over {} trees",
            exact.len()
        ));
    }
    Ok(())
}

fn assert_weighted_uniform(g: &Graph, config: SamplerConfig, seed: u64, label: &str) {
    let exact = weighted_oracle(g, label);
    let sampler = CliqueTreeSampler::new(config);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut counts: HashMap<SpanningTree, usize> = HashMap::new();
    let mut failures = 0usize;
    for _ in 0..TRIALS {
        let report = sampler.sample(g, &mut rng).expect("sampling failed");
        if report.monte_carlo_failure {
            failures += 1;
            continue;
        }
        *counts.entry(report.tree).or_insert(0) += 1;
    }
    chi_square_gate(&counts, &exact, failures, TRIALS, label).unwrap();
}

fn thm1_config(engine: EngineChoice) -> SamplerConfig {
    SamplerConfig::new()
        .walk_length(WalkLength::ScaledCubic { factor: 4.0 })
        .engine(engine)
        .workers(Workers::Fixed(4))
}

fn exact_config(engine: EngineChoice) -> SamplerConfig {
    SamplerConfig::exact_variant()
        .walk_length(WalkLength::ScaledCubic { factor: 4.0 })
        .engine(engine)
        .workers(Workers::Fixed(4))
}

/// K4 with all six weights distinct (1..=6): the most asymmetric tiny
/// case — tree probabilities span a 120:6 range.
fn weighted_k4() -> Graph {
    Graph::from_weighted_edges(
        4,
        &[
            (0, 1, 1.0),
            (0, 2, 2.0),
            (0, 3, 3.0),
            (1, 2, 4.0),
            (1, 3, 5.0),
            (2, 3, 6.0),
        ],
    )
    .unwrap()
}

/// C4 with weights 1..=4: each tree omits one edge, so the four tree
/// probabilities are ∝ 24/w_omitted — a clean closed form.
fn weighted_c4() -> Graph {
    Graph::from_weighted_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 0, 4.0)]).unwrap()
}

/// The diamond (K4 minus {1,3}) with a heavy chord: weight skew
/// concentrated on the edge shared by most trees.
fn weighted_diamond() -> Graph {
    Graph::from_weighted_edges(
        4,
        &[
            (0, 1, 1.0),
            (1, 2, 2.0),
            (2, 3, 1.0),
            (3, 0, 3.0),
            (0, 2, 5.0),
        ],
    )
    .unwrap()
}

#[test]
fn thm1_is_weight_proportional_on_k4() {
    assert_weighted_uniform(
        &weighted_k4(),
        thm1_config(EngineChoice::UnitCost),
        3100,
        "K4-w/thm1",
    );
}

#[test]
fn thm1_is_weight_proportional_on_cycle4() {
    assert_weighted_uniform(
        &weighted_c4(),
        thm1_config(EngineChoice::UnitCost),
        3101,
        "C4-w/thm1",
    );
}

#[test]
fn thm1_is_weight_proportional_on_diamond_semiring() {
    // Run the diamond through the real semiring engine so the
    // MachineProgram-based multiply sits on the weighted path too.
    assert_weighted_uniform(
        &weighted_diamond(),
        thm1_config(EngineChoice::Semiring),
        3102,
        "diamond-w/thm1-semiring",
    );
}

#[test]
fn exact_variant_is_weight_proportional_on_k4() {
    assert_weighted_uniform(
        &weighted_k4(),
        exact_config(EngineChoice::UnitCost),
        3103,
        "K4-w/exact",
    );
}

#[test]
fn exact_variant_is_weight_proportional_on_diamond() {
    assert_weighted_uniform(
        &weighted_diamond(),
        exact_config(EngineChoice::UnitCost),
        3104,
        "diamond-w/exact",
    );
}

/// The served path on a weighted spec: draws batched through
/// `cct-serve` on `cycle-w:4` must follow the same weighted-Kirchhoff
/// distribution as the cold samplers above. The oracle graph is rebuilt
/// exactly as the service builds it — `parse_spec` seeded by
/// `spec_seed(spec)` (the deterministic weights are RNG-independent,
/// but this keeps the recipe honest).
#[test]
fn served_draws_are_weight_proportional_on_weighted_spec() {
    const SPEC: &str = "cycle-w:4";
    let mut rng = rand::rngs::StdRng::seed_from_u64(spec_seed(SPEC));
    let g = cct::graph::spec::parse_spec(SPEC, &mut rng).unwrap();
    assert!(
        g.edges().iter().any(|&(_, _, w)| w != 1.0),
        "spec should carry non-unit weights"
    );
    let exact = weighted_oracle(&g, "served/cycle-w:4");

    let quick = SamplerConfig::new()
        .walk_length(WalkLength::ScaledCubic { factor: 4.0 })
        .engine(EngineChoice::UnitCost);
    let options = ServeOptions::new()
        .workers(2)
        .config(cct::serve::Algorithm::Thm1, quick);
    let (counts, failures, trials) = serve(options, |handle| {
        let mut counts: HashMap<SpanningTree, usize> = HashMap::new();
        let mut failures = 0usize;
        let mut trials = 0usize;
        for (batch, seed) in [(4_000u32, 5), (4_000u32, 6)] {
            let response = handle
                .request(SampleRequest::new(SPEC).seed(seed).count(batch))
                .unwrap();
            assert_eq!(response.draws.len(), batch as usize);
            for draw in response.draws {
                trials += 1;
                if draw.monte_carlo_failure {
                    failures += 1;
                    continue;
                }
                let tree = SpanningTree::new_in(&g, draw.edges).expect("served tree fits spec");
                *counts.entry(tree).or_insert(0) += 1;
            }
        }
        (counts, failures, trials)
    });
    chi_square_gate(&counts, &exact, failures, trials, "served/cycle-w:4").unwrap();
}

#[test]
fn chi_square_gate_rejects_the_mst_strawman() {
    // The random-weight MST ignores edge weights, so the gate must
    // reject it on this suite's weighted K4 and diamond at the same
    // trial count that passes the real samplers. (On the *unweighted*
    // K4 its bias is small — stars get 4/15 of the mass instead of 1/4
    // — and 8 000 trials at 2 × crit do not resolve it.)
    for (g, label) in [
        (weighted_k4(), "K4-w/mst-strawman"),
        (weighted_diamond(), "diamond-w/mst-strawman"),
    ] {
        let exact = weighted_oracle(&g, label);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3110);
        let mut counts: HashMap<SpanningTree, usize> = HashMap::new();
        for _ in 0..TRIALS {
            let tree = random_weight_mst(&g, &mut rng).unwrap();
            *counts.entry(tree).or_insert(0) += 1;
        }
        let verdict = chi_square_gate(&counts, &exact, 0, TRIALS, label);
        assert!(
            verdict.is_err(),
            "{label}: the gate accepted a biased sampler"
        );
    }
}
