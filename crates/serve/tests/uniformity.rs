//! Statistical uniformity *through the service path*: chi-square of
//! served trees on K4, the 4-cycle, and the diamond against exact
//! Kirchhoff counts — mirroring `cct-core`'s `parallel_uniformity`
//! suite, but with every draw travelling through the request channel,
//! the worker pool, the PreparedSampler cache, and the per-draw
//! seed derivation. This proves the serving plumbing (derived streams,
//! cache hits, single-flight sharing) does not bias the distribution.
//!
//! The gate is the suite's usual generous 2× chi-square critical value,
//! keeping CI deterministic-ish while catching any real shift.

use cct_core::{EngineChoice, SamplerConfig, WalkLength};
use cct_graph::{spanning_tree_count_exact, spanning_tree_distribution, SpanningTree};
use cct_serve::{serve, Algorithm, SampleRequest, ServeOptions};
use cct_walks::stats;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Mutex;

fn options() -> ServeOptions {
    let config = SamplerConfig::new()
        .walk_length(WalkLength::ScaledCubic { factor: 4.0 })
        .engine(EngineChoice::UnitCost);
    ServeOptions::new()
        .workers(4)
        .cache_capacity(4)
        .config(Algorithm::Thm1, config)
}

/// Draws `requests × count` trees of `spec` through a running service
/// (4 client threads) and chi-square-tests them against the exact
/// spanning-tree distribution.
fn assert_served_uniform(spec: &str, requests: u64, count: u32, seed0: u64, label: &str) {
    // Ground truth from the graph the service itself builds for the
    // spec (one fixed graph per spec string — the cache-key contract).
    let mut rng = rand::rngs::StdRng::seed_from_u64(cct_serve::spec_seed(spec));
    let g = cct_graph::spec::parse_spec(spec, &mut rng).expect("valid spec");
    let exact = spanning_tree_distribution(&g);
    let kirchhoff = spanning_tree_count_exact(&g).expect("tiny graph");
    assert_eq!(
        exact.len() as i128,
        kirchhoff,
        "{label}: enumeration disagrees with the Matrix–Tree count"
    );

    let counts: Mutex<HashMap<SpanningTree, usize>> = Mutex::new(HashMap::new());
    let failures = Mutex::new(0usize);
    serve(options(), |handle| {
        std::thread::scope(|s| {
            for client in 0..4u64 {
                let handle = handle.clone();
                let counts = &counts;
                let failures = &failures;
                s.spawn(move || {
                    for r in (client..requests).step_by(4) {
                        let response = handle
                            .request(SampleRequest::new(spec).seed(seed0 + r).count(count))
                            .expect("served");
                        for draw in response.draws {
                            if draw.monte_carlo_failure {
                                *failures.lock().unwrap() += 1;
                                continue;
                            }
                            let tree = SpanningTree::new(draw.edges.len() + 1, draw.edges.clone())
                                .expect("served edges form a tree");
                            *counts.lock().unwrap().entry(tree).or_insert(0) += 1;
                        }
                    }
                });
            }
        });
        // The whole run shares one preparation of the spec.
        assert_eq!(handle.cache_stats().total_prepares(), 1, "{label}");
    });

    let counts = counts.into_inner().unwrap();
    let failures = failures.into_inner().unwrap();
    let trials = (requests as usize) * (count as usize);
    assert!(
        failures * 100 < trials,
        "{label}: {failures}/{trials} Monte Carlo failures"
    );
    let effective = trials - failures;
    let (stat, crit) = stats::goodness_of_fit(&counts, &exact, effective);
    assert!(
        stat < 2.0 * crit,
        "{label}: chi² = {stat:.1} ≥ 2 × {crit:.1} over {} trees",
        exact.len()
    );
}

#[test]
fn served_trees_are_uniform_on_k4() {
    // K4: Cayley gives 4² = 16 spanning trees.
    assert_served_uniform("complete:4", 32, 250, 3100, "K4/served");
}

#[test]
fn served_trees_are_uniform_on_cycle4() {
    // C4: removing any one of the 4 edges gives a tree.
    assert_served_uniform("cycle:4", 32, 250, 3101, "C4/served");
}

#[test]
fn served_trees_are_uniform_on_diamond() {
    // The diamond (K4 minus one edge): 8 spanning trees, non-uniform
    // vertex degrees — the smallest graph where a biased sampler shows.
    assert_served_uniform("diamond", 32, 250, 3102, "diamond/served");
}
