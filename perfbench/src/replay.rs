//! The traced run's layer replay. A draw's own layer calls happen inside
//! the sampler, where this benchmark cannot time them; instead, after a
//! draw, its phases are replayed from outside through each layer's
//! public functions, one span per call:
//!
//! * `schur.shortcut` / `schur.transition` — `shortcut_exact` and
//!   `schur_transition_from_shortcut_p` on a subset of the phase's
//!   recorded `|S|`. The real `S` cannot be rebuilt (tree edges are
//!   stored sorted, not in visit order), so `S` is drawn from the seed.
//! * `sim.powers` with `sim.level` children — `distributed_powers_deferred`
//!   and `level(k)` for every level a top-down phase of walk length `ℓ`
//!   reads.
//! * `schur.first_visit` — `sample_first_visit_edge_with` once per new
//!   vertex of the phase.
//!
//! A probe per draw also times one dense square (1 and `threads`
//! threads) and one `Lu` inverse at size `n`.

use crate::trace::Tracer;
use cct::core::{EngineChoice, PhaseMethod, SampleReport, SamplerConfig};
use cct::graph::Graph;
use cct::linalg::{CsrMatrix, Lu, Matrix, PMatrix, Repr};
use cct::schur::{
    sample_first_visit_edge_with, schur_transition_from_shortcut_p, shortcut_exact, VertexSubset,
};
use cct::sim::{distributed_powers_deferred, Clique, CostCategory, FastOracleEngine};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeMap;

/// Replay sums over every replayed draw.
#[derive(Debug, Default, Clone)]
pub struct LayerAcc {
    pub draws: u64,
    pub shortcut_s: f64,
    pub transition_s: f64,
    pub powers_s: f64,
    pub first_visit_s: f64,
    pub levels_materialized: u64,
    /// Sum over draws of the largest replayed table of the draw.
    pub table_bytes: f64,
    /// Flops of the replayed dense work, computed from matrix sizes.
    pub flops_computed: f64,
}

impl LayerAcc {
    fn per_draw(&self, total: f64) -> f64 {
        if self.draws == 0 {
            0.0
        } else {
            total / self.draws as f64
        }
    }

    /// Mean replayed layer time per draw (the part of a draw the layers
    /// account for).
    pub fn layer_s_per_draw(&self) -> f64 {
        self.per_draw(self.shortcut_s + self.transition_s + self.powers_s + self.first_visit_s)
    }

    pub fn write(&self, out: &mut BTreeMap<&'static str, f64>) {
        out.insert("schur.shortcut_s", self.per_draw(self.shortcut_s));
        out.insert("schur.transition_s", self.per_draw(self.transition_s));
        out.insert("sim.powers_s", self.per_draw(self.powers_s));
        out.insert("schur.first_visit_s", self.per_draw(self.first_visit_s));
        out.insert(
            "sim.levels_materialized",
            self.per_draw(self.levels_materialized as f64),
        );
        out.insert("sim.table_bytes", self.per_draw(self.table_bytes));
        out.insert("linalg.flops_computed", self.per_draw(self.flops_computed));
    }
}

/// A random `k`-subset of `0..n`, sorted.
fn random_subset(n: usize, k: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    all.shuffle(rng);
    all.truncate(k);
    all.sort_unstable();
    all
}

/// The `n × n` phase matrix: the `|S| × |S|` Schur transition scattered
/// onto `S`, identity elsewhere (the layout the sampler walks on).
fn pad(local: &Matrix, s: &[usize], n: usize, repr: Repr) -> PMatrix {
    let mut local_of = vec![usize::MAX; n];
    for (i, &u) in s.iter().enumerate() {
        local_of[u] = i;
    }
    match repr {
        Repr::Dense => {
            let mut out = Matrix::identity(n);
            for (i, &u) in s.iter().enumerate() {
                out[(u, u)] = 0.0;
                for (j, &v) in s.iter().enumerate() {
                    out[(u, v)] = local[(i, j)];
                }
            }
            PMatrix::Dense(out)
        }
        Repr::Sparse => {
            // `s` is sorted, so each S-row's columns come out increasing.
            let mut b = CsrMatrix::builder(n, n);
            for (u, &i) in local_of.iter().enumerate() {
                if i == usize::MAX {
                    b.push(u, 1.0);
                } else {
                    for (j, &v) in s.iter().enumerate() {
                        b.push(v, local[(i, j)]);
                    }
                }
                b.finish_row();
            }
            PMatrix::Sparse(b.build())
        }
    }
}

/// Replays one draw's layer calls (see the module docs). `prepared`
/// marks a `PreparedSampler` draw, whose phase-1 power table was built
/// once at prepare time and is not rebuilt per draw.
#[allow(clippy::too_many_arguments)]
pub fn replay_draw(
    tr: &mut Tracer,
    op: u64,
    g: &Graph,
    config: &SamplerConfig,
    report: &SampleReport,
    prepared: bool,
    rng: &mut StdRng,
    acc: &mut LayerAcc,
) {
    let n = g.n();
    let repr = config.backend.resolve(g);
    let threads = config.workers.resolve(n).max(config.threads);
    let rounding = config.precision.rounding();
    let alpha = match config.engine {
        EngineChoice::FastOracle { alpha } => alpha,
        _ => panic!("the benchmark replays the default fast-oracle engine only"),
    };
    let engine = FastOracleEngine::new(alpha, rounding.words_per_entry(n), threads);
    let nf = n as f64;
    let mut biggest_table = 0usize;
    acc.draws += 1;
    for phase in &report.phases {
        if !matches!(
            phase.method,
            PhaseMethod::TopDown | PhaseMethod::DirectLocal
        ) {
            continue;
        }
        let s_list = random_subset(n, phase.s_size, rng);
        let s = VertexSubset::new(n, &s_list);
        let (t0, q) = if s.len() == n {
            (g.transition_pmatrix(repr), None)
        } else {
            let idx = tr.begin("schur.shortcut", op);
            let q = PMatrix::Dense(shortcut_exact(g, &s));
            tr.end(idx);
            acc.shortcut_s += tr.duration_s(idx);
            let idx = tr.begin("schur.transition", op);
            let local = schur_transition_from_shortcut_p(g, &s, &q);
            tr.end(idx);
            acc.transition_s += tr.duration_s(idx);
            // LU (2n³/3) and an inverse by n solves (2n² each), then
            // the Q·R product (2n²|S|).
            acc.flops_computed += (8.0 / 3.0) * nf * nf * nf + 2.0 * nf * nf * s.len() as f64;
            (pad(&local, &s_list, n, repr), Some(q))
        };
        if phase.method == PhaseMethod::TopDown && !(prepared && q.is_none()) {
            let levels = phase.ell.trailing_zeros() as usize;
            let mut clique = Clique::new(n);
            let idx = tr.begin("sim.powers", op);
            let table = distributed_powers_deferred(
                &mut clique,
                &engine,
                &t0,
                levels + 1,
                rounding,
                threads,
            );
            for k in 0..=levels {
                tr.span("sim.level", op, || {
                    std::hint::black_box(table.level(k));
                });
            }
            tr.end(idx);
            acc.powers_s += tr.duration_s(idx);
            acc.levels_materialized += table.materialized_levels() as u64;
            // One dense-equivalent square per level above level 0.
            acc.flops_computed += levels as f64 * 2.0 * nf * nf * nf;
            biggest_table = biggest_table.max(table.resident_bytes());
        }
        let idx = tr.begin("schur.first_visit", op);
        for _ in 0..phase.new_vertices {
            let v = s_list[rng.gen_range(0..s_list.len())];
            let prev = s_list[rng.gen_range(0..s_list.len())];
            // A synthetic (prev, v) pair can have an all-zero
            // distribution; the call's cost is the same either way.
            let edge = match &q {
                None => sample_first_visit_edge_with(g, &s, |a, b| f64::from(a == b), prev, v, rng),
                Some(q) => sample_first_visit_edge_with(g, &s, |a, b| q.get(a, b), prev, v, rng),
            };
            std::hint::black_box(edge);
        }
        tr.end(idx);
        acc.first_visit_s += tr.duration_s(idx);
    }
    acc.table_bytes += biggest_table as f64;
}

/// Dense-kernel probe timings at size `n`.
#[derive(Debug, Default, Clone)]
pub struct Probes {
    pub square_1t_s: Vec<f64>,
    pub square_s: Vec<f64>,
    pub lu_inverse_s: Vec<f64>,
    pub n: usize,
    pub threads: usize,
}

impl Probes {
    /// Times one square of `P` at 1 and `threads` threads and one `Lu`
    /// inverse of `I − P/2`.
    pub fn probe(&mut self, tr: &mut Tracer, op: u64, g: &Graph, threads: usize) {
        let n = g.n();
        let p = g.transition_matrix();
        let mut out = Matrix::zeros(n, n);
        let idx = tr.begin("linalg.square_1t", op);
        p.square_into(&mut out);
        tr.end(idx);
        self.square_1t_s.push(tr.duration_s(idx));
        let idx = tr.begin("linalg.square", op);
        p.matmul_parallel_into(&p, &mut out, threads);
        tr.end(idx);
        self.square_s.push(tr.duration_s(idx));
        std::hint::black_box(&out);
        let a = Matrix::from_fn(n, n, |i, j| f64::from(i == j) - 0.5 * p[(i, j)]);
        let idx = tr.begin("linalg.lu_inverse", op);
        let inv = Lu::new(&a).map(|lu| lu.inverse());
        tr.end(idx);
        std::hint::black_box(inv.is_ok());
        self.lu_inverse_s.push(tr.duration_s(idx));
        self.n = n;
        self.threads = threads;
    }

    pub fn write(&self, out: &mut BTreeMap<&'static str, f64>) {
        let med = |v: &[f64]| {
            crate::stats::Samples::new(v.to_vec())
                .median()
                .unwrap_or(0.0)
        };
        let (t1, tn) = (med(&self.square_1t_s), med(&self.square_s));
        out.insert("linalg.square_s", tn);
        out.insert("linalg.lu_inverse_s", med(&self.lu_inverse_s));
        if tn > 0.0 {
            let flops = 2.0 * (self.n as f64).powi(3);
            out.insert("linalg.square_gflops", flops / tn / 1e9);
            out.insert("linalg.square_par_eff", t1 / (self.threads as f64 * tn));
        }
    }
}

/// Per-draw counts from `SampleReport`s, summed one report at a time so
/// that the benchmark need not keep the reports: holding them would put
/// its own memory, which grows with the number of draws, into
/// `peak_rss_mb`.
#[derive(Debug, Default)]
pub struct ReportCounts {
    draws: u64,
    sums: BTreeMap<&'static str, f64>,
}

const ROUND_CATEGORIES: [(&str, CostCategory); 7] = [
    ("sim.rounds.matmul", CostCategory::MatMul),
    ("sim.rounds.binary_search", CostCategory::BinarySearch),
    ("sim.rounds.midpoints", CostCategory::Midpoints),
    ("sim.rounds.matching", CostCategory::Matching),
    ("sim.rounds.first_visit", CostCategory::FirstVisit),
    ("sim.rounds.gather", CostCategory::Gather),
    ("sim.rounds.routing", CostCategory::Routing),
];

impl ReportCounts {
    pub fn add(&mut self, r: &SampleReport) {
        self.draws += 1;
        let method = |m: PhaseMethod| r.phases.iter().filter(|p| p.method == m).count() as u64;
        let listed: u64 = ROUND_CATEGORIES
            .iter()
            .map(|&(_, c)| r.rounds.rounds(c))
            .sum();
        let counts = [
            ("core.walk_steps", r.total_walk_steps()),
            (
                "core.placement_words",
                r.phases.iter().map(|p| p.placement_words).sum(),
            ),
            ("core.pi_words", r.phases.iter().map(|p| p.pi_words).sum()),
            (
                "core.extensions",
                r.phases.iter().map(|p| u64::from(p.extensions)).sum(),
            ),
            ("core.phases.topdown", method(PhaseMethod::TopDown)),
            ("core.phases.direct", method(PhaseMethod::DirectLocal)),
            ("core.phases.streamed", method(PhaseMethod::StreamedLocal)),
            ("sim.rounds.other", r.rounds.total_rounds() - listed),
        ];
        let rounds = ROUND_CATEGORIES
            .iter()
            .map(|&(name, c)| (name, r.rounds.rounds(c)));
        for (name, v) in counts.into_iter().chain(rounds) {
            *self.sums.entry(name).or_default() += v as f64;
        }
    }

    /// Writes the mean of every count per draw.
    pub fn write(&self, out: &mut BTreeMap<&'static str, f64>) {
        if self.draws == 0 {
            return;
        }
        for (&name, sum) in &self.sums {
            out.insert(name, sum / self.draws as f64);
        }
    }
}
