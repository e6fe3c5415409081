//! Output checks. Every failed check is counted against the operations
//! attempted; any failure makes the run's `correct` false and its exit
//! code non-zero.

use cct::graph::{DisjointSet, Graph};

/// Checks that `edges` is a spanning tree of `g`: exactly `n − 1` edges,
/// every edge in `g`, and no cycle (which with `n − 1` edges means
/// connected).
pub fn is_spanning_tree(g: &Graph, edges: &[(usize, usize)]) -> Result<(), String> {
    let n = g.n();
    if edges.len() + 1 != n {
        return Err(format!("{} edges for {n} vertices", edges.len()));
    }
    let mut dsu = DisjointSet::new(n);
    for &(u, v) in edges {
        if u >= n || v >= n || !g.has_edge(u, v) {
            return Err(format!("edge {u}-{v} is not in the graph"));
        }
        if !dsu.union(u, v) {
            return Err(format!("edge {u}-{v} closes a cycle"));
        }
    }
    Ok(())
}

/// Attempted operations and the reasons of those that failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failures.push(why);
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

/// A fault the self-test injects to show that the checks can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Corrupt the first tree before it is checked.
    Tree,
    /// Perturb the reference the first replayed draw is compared with.
    Replay,
}

impl Fault {
    pub fn parse(s: &str) -> Option<Fault> {
        match s {
            "tree" => Some(Fault::Tree),
            "replay" => Some(Fault::Replay),
            _ => None,
        }
    }
}

/// Replaces the first edge of a tree with a non-edge (or drops it when
/// every pair is an edge), so the spanning-tree check must fail.
pub fn corrupt(g: &Graph, edges: &mut Vec<(usize, usize)>) {
    let n = g.n();
    let missing = (1..n).find(|&v| !g.has_edge(0, v));
    match (missing, edges.first_mut()) {
        (Some(v), Some(first)) => *first = (0, v),
        _ => {
            edges.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cct::graph::generators;

    #[test]
    fn accepts_trees_and_rejects_corruptions() {
        let g = generators::cycle(5);
        let path = vec![(0, 1), (1, 2), (2, 3), (3, 4)];
        assert!(is_spanning_tree(&g, &path).is_ok());
        assert!(is_spanning_tree(&g, &path[..3]).is_err(), "too few edges");
        let mut bad = path.clone();
        corrupt(&g, &mut bad);
        assert!(is_spanning_tree(&g, &bad).is_err(), "non-edge");
        let cyc = vec![(0, 1), (1, 2), (2, 0), (3, 4)];
        assert!(is_spanning_tree(&g, &cyc).is_err(), "not an edge of C5");
        let g4 = generators::complete(4);
        assert!(
            is_spanning_tree(&g4, &[(0, 1), (1, 2), (2, 0)]).is_err(),
            "cycle"
        );
    }
}
