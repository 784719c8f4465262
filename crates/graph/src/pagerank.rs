//! PageRank by power iteration \[4\].
//!
//! Standard damped PageRank with uniform teleport and dangling-node mass
//! redistribution. Scores are normalized to sum to 1; the Figure 10
//! experiment additionally min–max normalizes them to `[0, 1]` as the
//! paper does.

/// A directed graph in compressed adjacency form (out-edges).
#[derive(Debug, Clone)]
pub struct WebGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl WebGraph {
    /// Build from an edge list over nodes `0..num_nodes`. Duplicate edges
    /// are kept (they weight the link).
    pub fn from_edges(num_nodes: usize, edges: &[(u32, u32)]) -> Self {
        let mut offsets = vec![0u32; num_nodes + 1];
        for &(s, t) in edges {
            assert!((s as usize) < num_nodes && (t as usize) < num_nodes);
            offsets[s as usize + 1] += 1;
        }
        for i in 0..num_nodes {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; edges.len()];
        for &(s, t) in edges {
            let slot = &mut cursor[s as usize];
            targets[*slot as usize] = t;
            *slot += 1;
        }
        Self { offsets, targets }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbors of node `n`.
    pub fn out(&self, n: u32) -> &[u32] {
        &self.targets[self.offsets[n as usize] as usize..self.offsets[n as usize + 1] as usize]
    }

    /// Out-degree of node `n`.
    pub fn out_degree(&self, n: u32) -> usize {
        self.out(n).len()
    }
}

/// PageRank hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankConfig {
    /// Damping factor (probability of following a link).
    pub damping: f64,
    /// Maximum power iterations.
    pub max_iterations: usize,
    /// L1 convergence threshold.
    pub eps: f64,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        Self {
            damping: 0.85,
            max_iterations: 100,
            eps: 1e-10,
        }
    }
}

/// Compute PageRank scores (sum to 1).
pub fn pagerank(graph: &WebGraph, cfg: &PageRankConfig) -> Vec<f64> {
    let n = graph.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let nf = n as f64;
    let mut rank = vec![1.0 / nf; n];
    let mut next = vec![0.0; n];
    for _ in 0..cfg.max_iterations {
        next.iter_mut().for_each(|x| *x = 0.0);
        let mut dangling = 0.0;
        for (v, &r) in rank.iter().enumerate() {
            let outs = graph.out(v as u32);
            if outs.is_empty() {
                dangling += r;
            } else {
                let share = r / outs.len() as f64;
                for &t in outs {
                    next[t as usize] += share;
                }
            }
        }
        let teleport = (1.0 - cfg.damping) / nf + cfg.damping * dangling / nf;
        let mut delta = 0.0;
        for v in 0..n {
            let new = teleport + cfg.damping * next[v];
            delta += (new - rank[v]).abs();
            rank[v] = new;
        }
        if delta < cfg.eps {
            break;
        }
    }
    rank
}

/// Min–max normalize scores to `[0, 1]` (the paper normalizes PageRank
/// this way before plotting Figure 10).
pub fn normalize_unit(scores: &[f64]) -> Vec<f64> {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &s in scores {
        lo = lo.min(s);
        hi = hi.max(s);
    }
    if !lo.is_finite() || hi <= lo {
        return vec![0.0; scores.len()];
    }
    scores.iter().map(|&s| (s - lo) / (hi - lo)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_sum_to_one() {
        let g = WebGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (3, 0)]);
        let r = pagerank(&g, &PageRankConfig::default());
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(r.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn hub_receives_more_rank() {
        // Everyone links to node 0.
        let edges: Vec<(u32, u32)> = (1..10u32).map(|i| (i, 0)).collect();
        let g = WebGraph::from_edges(10, &edges);
        let r = pagerank(&g, &PageRankConfig::default());
        for i in 1..10 {
            assert!(r[0] > r[i], "hub must outrank leaf {i}");
        }
    }

    #[test]
    fn symmetric_cycle_is_uniform() {
        let g = WebGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let r = pagerank(&g, &PageRankConfig::default());
        for &x in &r {
            assert!((x - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn dangling_nodes_do_not_lose_mass() {
        let g = WebGraph::from_edges(3, &[(0, 1), (1, 2)]); // node 2 dangles
        let r = pagerank(&g, &PageRankConfig::default());
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_graph() {
        let g = WebGraph::from_edges(0, &[]);
        assert!(pagerank(&g, &PageRankConfig::default()).is_empty());
    }

    #[test]
    fn normalize_unit_spans_zero_to_one() {
        let n = normalize_unit(&[0.2, 0.5, 0.8]);
        assert_eq!(n[0], 0.0);
        assert_eq!(n[2], 1.0);
        assert!((n[1] - 0.5).abs() < 1e-12);
        assert_eq!(normalize_unit(&[0.3, 0.3]), vec![0.0, 0.0]);
    }

    #[test]
    fn known_two_node_solution() {
        // 0 → 1 only; analytic stationary: r1 = (1-d)/2 + d·r0, r0 = (1-d)/2 + d·r1·0…
        // With dangling redistribution r's satisfy closed form; just check
        // node 1 outranks node 0.
        let g = WebGraph::from_edges(2, &[(0, 1)]);
        let r = pagerank(&g, &PageRankConfig::default());
        assert!(r[1] > r[0]);
    }
}
