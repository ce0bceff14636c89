//! (H, F)-lower-bound graphs (Definition 10) and the constructions of
//! Lemmas 14, 18 and 21.
//!
//! A lower-bound graph is a fixed template `G'` together with two families of
//! "player-controlled" edges — one internal to Alice's nodes, one internal to
//! Bob's — indexed by the edges of a dense auxiliary graph `F`. Instantiating
//! the template on a set-disjointness instance `(X, Y)` keeps Alice's edge
//! `e` iff `e ∈ X` and Bob's edge `e` iff `e ∈ Y`; by Observation 11 the
//! resulting graph contains a copy of the pattern `H` **iff** `X ∩ Y ≠ ∅`.
//! Combined with the simulation argument of Lemma 13 this turns any efficient
//! `H`-detection protocol for `CLIQUE-BCAST(n, b)` into a cheap two-party
//! protocol for disjointness on `|E_F|` elements, yielding the round lower
//! bounds of Theorems 15, 19 and 22.

use clique_graphs::extremal::dense_bipartite_c4_free;
use clique_graphs::iso::contains_subgraph;
use clique_graphs::{generators, Graph, Pattern};
use rand::Rng;

use crate::disjointness::{DisjointnessBound, DisjointnessInstance};

/// A concrete (H, F)-lower-bound graph: template plus player-controlled edge
/// families.
#[derive(Clone, Debug)]
pub struct LowerBoundGraph {
    pattern: Pattern,
    n: usize,
    fixed_edges: Vec<(usize, usize)>,
    alice_edges: Vec<(usize, usize)>,
    bob_edges: Vec<(usize, usize)>,
    /// The nodes Alice simulates; Bob simulates the rest.
    alice_nodes: Vec<usize>,
}

impl LowerBoundGraph {
    /// The pattern `H` whose detection the construction makes hard.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Number of vertices of the template (the `n` of the clique model).
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// The number of set-disjointness elements, i.e. `|E_F|`.
    pub fn elements(&self) -> usize {
        self.alice_edges.len()
    }

    /// The full template `G'` (all fixed and all player-controlled edges).
    pub(crate) fn template_graph(&self) -> Graph {
        let mut g = Graph::empty(self.n);
        for &(u, v) in self
            .fixed_edges
            .iter()
            .chain(&self.alice_edges)
            .chain(&self.bob_edges)
        {
            g.add_edge(u, v);
        }
        g
    }

    /// Builds the input graph for a disjointness instance: all fixed edges,
    /// Alice's edge `k` iff `x[k]`, Bob's edge `k` iff `y[k]`.
    ///
    /// # Panics
    ///
    /// Panics if the instance universe differs from [`Self::elements`].
    pub fn instantiate(&self, instance: &DisjointnessInstance) -> Graph {
        assert_eq!(
            instance.universe(),
            self.elements(),
            "instance universe must equal the number of F-edges"
        );
        let mut g = Graph::empty(self.n);
        for &(u, v) in &self.fixed_edges {
            g.add_edge(u, v);
        }
        for (k, &(u, v)) in self.alice_edges.iter().enumerate() {
            if instance.x[k] {
                g.add_edge(u, v);
            }
        }
        for (k, &(u, v)) in self.bob_edges.iter().enumerate() {
            if instance.y[k] {
                g.add_edge(u, v);
            }
        }
        g
    }

    /// The number of edges of the template crossing the Alice/Bob node
    /// partition (the cut that bounds per-round communication in the
    /// CONGEST simulation; `δ = cut/|V'|` in Definition 12).
    pub fn cut_size(&self) -> usize {
        let alice: std::collections::HashSet<usize> = self.alice_nodes.iter().copied().collect();
        self.template_graph()
            .edges()
            .filter(|&(u, v)| alice.contains(&u) != alice.contains(&v))
            .count()
    }

    /// The round lower bound for `CLIQUE-BCAST(n, b)` implied by Lemma 13
    /// under the given disjointness bound: `bound(|E_F|) / (n·b)`.
    pub fn implied_bcast_rounds(&self, bound: DisjointnessBound, bandwidth: usize) -> f64 {
        bound.bits(self.elements() as u64) / (self.n as f64 * bandwidth as f64)
    }

    /// The round lower bound for `CONGEST-UCAST(n, b)` implied by Lemma 13
    /// when the template is `δ`-sparse: `bound(|E_F|) / (2·cut·b)`.
    pub fn implied_congest_rounds(&self, bound: DisjointnessBound, bandwidth: usize) -> f64 {
        let cut = self.cut_size().max(1);
        bound.bits(self.elements() as u64) / (2.0 * cut as f64 * bandwidth as f64)
    }

    // ------------------------------------------------------------------
    // Constructions
    // ------------------------------------------------------------------

    /// The (K_ℓ, K_{N,N}) construction of Lemma 14: `K_ℓ`-detection on `n`
    /// nodes encodes disjointness on `Θ(n²)` elements.
    ///
    /// # Errors
    ///
    /// Returns an error if `l < 4` or `n` is too small to host the gadget.
    pub fn for_clique(l: usize, n: usize) -> Result<Self, String> {
        if l < 4 {
            return Err(format!("Lemma 14 needs ℓ ≥ 4, got {l}"));
        }
        if n < l + 4 {
            return Err(format!("n = {n} too small for K{l} lower-bound graph"));
        }
        // 4N + (ℓ - 4) ≤ n.
        let cap = (n - (l - 4)) / 4;
        if cap < 2 {
            return Err(format!(
                "n = {n} too small: need at least 2 nodes per group"
            ));
        }
        let big_n = cap;
        let s1 = |i: usize| i;
        let s2 = |j: usize| big_n + j;
        let s3 = |i: usize| 2 * big_n + i;
        let s4 = |j: usize| 3 * big_n + j;
        let universal_start = 4 * big_n;
        let universal_count = l - 4;

        let mut fixed = Vec::new();
        // Matchings S1–S3 and S2–S4 force the two K4 witnesses to agree.
        for i in 0..big_n {
            fixed.push((s1(i), s3(i)));
            fixed.push((s2(i), s4(i)));
        }
        // Complete bipartite S1–S4 and S2–S3.
        for i in 0..big_n {
            for j in 0..big_n {
                fixed.push((s1(i), s4(j)));
                fixed.push((s2(i), s3(j)));
            }
        }
        // The ℓ-4 universal nodes are adjacent to every non-padding node and
        // to each other.
        for t in 0..universal_count {
            let u = universal_start + t;
            for v in 0..universal_start {
                fixed.push((u, v));
            }
            for t2 in (t + 1)..universal_count {
                fixed.push((u, universal_start + t2));
            }
        }

        // Elements: pairs (i, j) ∈ [N] × [N]; Alice's edge is {s1_i, s2_j},
        // Bob's is {s3_i, s4_j}.
        let mut alice_edges = Vec::with_capacity(big_n * big_n);
        let mut bob_edges = Vec::with_capacity(big_n * big_n);
        for i in 0..big_n {
            for j in 0..big_n {
                alice_edges.push((s1(i), s2(j)));
                bob_edges.push((s3(i), s4(j)));
            }
        }

        // Alice simulates S1, S2 and every other universal and padding node;
        // Bob simulates the rest.
        let mut alice_nodes: Vec<usize> = (0..2 * big_n).collect();
        alice_nodes.extend((universal_start..n).step_by(2));

        Ok(Self {
            pattern: Pattern::Clique(l),
            n,
            fixed_edges: fixed,
            alice_edges,
            bob_edges,
            alice_nodes,
        })
    }

    /// The (C_ℓ, F) construction of Lemma 18 with `F` a dense *bipartite*
    /// `C_ℓ`-free graph: `C_ℓ`-detection encodes disjointness on
    /// `Θ(ex(N, C_ℓ))` elements, and the template is `O(1)`-sparse so the
    /// bound also applies to `CONGEST-UCAST`.
    ///
    /// # Errors
    ///
    /// Returns an error if `l < 4` or `n` is too small.
    pub fn for_cycle<R: Rng + ?Sized>(l: usize, n: usize, rng: &mut R) -> Result<Self, String> {
        if l < 4 {
            return Err(format!("Lemma 18 needs ℓ ≥ 4, got {l}"));
        }
        // Total vertices: N·ℓ/2 (VA, VB and the internal path nodes).
        let big_n = ((2 * n) / l) & !1; // round down to an even number
        if big_n < 4 {
            return Err(format!("n = {n} too small for C{l} lower-bound graph"));
        }
        let half = big_n / 2;
        let f = bipartite_cycle_free(big_n, l, rng);
        let va = |i: usize| i;
        let vb = |i: usize| big_n + i;
        let mut next_free = 2 * big_n;

        // Fixed edges: the path P_i from va_i to vb_i.
        let mut fixed = Vec::new();
        for i in 0..big_n {
            let len = if i < half {
                l / 2 - 1
            } else {
                l.div_ceil(2) - 1
            };
            let mut prev = va(i);
            for _ in 0..len.saturating_sub(1) {
                let node = next_free;
                next_free += 1;
                fixed.push((prev, node));
                prev = node;
            }
            fixed.push((prev, vb(i)));
        }
        if next_free > n {
            return Err(format!(
                "internal miscalculation: construction needs {next_free} > n = {n} vertices"
            ));
        }

        // Elements: the edges of F; Alice's copy lives on VA, Bob's on VB.
        let mut alice_edges = Vec::new();
        let mut bob_edges = Vec::new();
        for (i, j) in f.edges() {
            alice_edges.push((va(i), va(j)));
            bob_edges.push((vb(i), vb(j)));
        }
        if alice_edges.is_empty() {
            return Err(format!("no F-edges available for C{l} at n = {n}"));
        }

        // Alice simulates VA plus the internal nodes of the first-half paths;
        // Bob simulates the rest, so the cut is small (O(N) path edges).
        let alice_nodes: Vec<usize> = (0..big_n).chain(2 * big_n..next_free).collect();

        Ok(Self {
            pattern: Pattern::Cycle(l),
            n,
            fixed_edges: fixed,
            alice_edges,
            bob_edges,
            alice_nodes,
        })
    }

    /// The (K_{ℓ,m}, F) construction of Lemma 21 with `F` a bipartite
    /// `C₄`-free graph: `K_{ℓ,m}`-detection encodes disjointness on
    /// `Θ(ex(N, C₄)) = Θ(N^{3/2})` elements.
    ///
    /// The construction is provided for balanced patterns `ℓ = m`. For
    /// `ℓ ≠ m` the gadget as written in the paper admits spurious
    /// (non-induced) copies of `K_{ℓ,m}` built from the `W`-nodes, one
    /// vertex of one player's copy of `F`, and that player's edges alone
    /// (e.g. for `K_{2,3}`: a degree-3 vertex of `F_A` together with the
    /// `W_R` node), so Observation 11 fails; see EXPERIMENTS.md (E8) for the
    /// discussion of this deviation. Balanced side sizes already exercise
    /// the Theorem 22 bound `Ω(√n/b)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the side sizes are outside the supported range or
    /// `n` is too small.
    pub fn for_complete_bipartite(l: usize, m: usize, n: usize) -> Result<Self, String> {
        if l < 2 || m < 2 {
            return Err(format!("Lemma 21 needs ℓ, m ≥ 2, got ({l}, {m})"));
        }
        if l != m {
            return Err(format!(
                "the Lemma 21 gadget is only sound (for non-induced detection) when ℓ = m; got ({l}, {m})"
            ));
        }
        let extra = (l - 2) + (m - 2);
        if n < extra + 16 {
            return Err(format!("n = {n} too small for K{l},{m} lower-bound graph"));
        }
        let big_n = (n - extra) / 2;
        let f_raw = dense_bipartite_c4_free(big_n);
        if f_raw.edge_count() == 0 {
            return Err(format!(
                "no C4-free bipartite graph available at N = {big_n}"
            ));
        }
        let coloring = f_raw.bipartition().expect("incidence graphs are bipartite");
        let left: Vec<usize> = (0..big_n).filter(|&v| !coloring[v]).collect();

        let u = |i: usize| i;
        let v = |i: usize| big_n + i;
        let wl_start = 2 * big_n;
        let wr_start = wl_start + (l - 2);

        let mut fixed = Vec::new();
        // WL × WR complete.
        for a in 0..(l - 2) {
            for b in 0..(m - 2) {
                fixed.push((wl_start + a, wr_start + b));
            }
        }
        // WL adjacent to φA(R) ∪ φB(L); WR adjacent to φA(L) ∪ φB(R).
        let left_set: std::collections::HashSet<usize> = left.iter().copied().collect();
        for i in 0..big_n {
            let in_left = left_set.contains(&i);
            for a in 0..(l - 2) {
                let wl = wl_start + a;
                if in_left {
                    fixed.push((wl, v(i)));
                } else {
                    fixed.push((wl, u(i)));
                }
            }
            for b in 0..(m - 2) {
                let wr = wr_start + b;
                if in_left {
                    fixed.push((wr, u(i)));
                } else {
                    fixed.push((wr, v(i)));
                }
            }
        }
        // The perfect matching {u_i, v_i}.
        for i in 0..big_n {
            fixed.push((u(i), v(i)));
        }

        let mut alice_edges = Vec::new();
        let mut bob_edges = Vec::new();
        for (i, j) in f_raw.edges() {
            alice_edges.push((u(i), u(j)));
            bob_edges.push((v(i), v(j)));
        }

        let mut alice_nodes: Vec<usize> = (0..big_n).collect();
        alice_nodes.extend(wl_start..wr_start);

        Ok(Self {
            pattern: Pattern::CompleteBipartite(l, m),
            n,
            fixed_edges: fixed,
            alice_edges,
            bob_edges,
            alice_nodes,
        })
    }
}

/// A dense `C_ℓ`-free *bipartite* graph on `n` vertices whose two sides are
/// `0..n/2` and `n/2..n` (the side structure Lemma 18 needs so that the
/// connecting paths add up to length exactly `ℓ`).
fn bipartite_cycle_free<R: Rng + ?Sized>(n: usize, l: usize, rng: &mut R) -> Graph {
    let half = n / 2;
    if l % 2 == 1 {
        // Odd cycles: the complete bipartite graph is C_ℓ-free and extremal.
        let mut g = Graph::empty(n);
        for i in 0..half {
            for j in half..n {
                g.add_edge(i, j);
            }
        }
        return g;
    }
    if l == 4 {
        // Relabel a projective incidence graph so that points occupy the
        // first half and lines the second half.
        let raw = dense_bipartite_c4_free(n);
        let coloring = match raw.bipartition() {
            Some(c) => c,
            None => return Graph::empty(n),
        };
        let mut first: Vec<usize> = Vec::new();
        let mut second: Vec<usize> = Vec::new();
        for (vtx, &side) in coloring.iter().enumerate() {
            if side {
                second.push(vtx);
            } else {
                first.push(vtx);
            }
        }
        let mut relabel = vec![usize::MAX; n];
        for (pos, &vtx) in first.iter().enumerate() {
            if pos < half {
                relabel[vtx] = pos;
            }
        }
        for (pos, &vtx) in second.iter().enumerate() {
            if half + pos < n {
                relabel[vtx] = half + pos;
            }
        }
        let mut g = Graph::empty(n);
        for (a, b) in raw.edges() {
            if relabel[a] != usize::MAX && relabel[b] != usize::MAX {
                g.add_edge(relabel[a], relabel[b]);
            }
        }
        return g;
    }
    // Even ℓ ≥ 6: greedy construction restricted to cross-side pairs. We
    // reuse the generic greedy helper on the bipartite double cover trick by
    // simply filtering candidate pairs.
    let pattern = generators::cycle(l);
    let mut g = Graph::empty(n);
    let mut pairs: Vec<(usize, usize)> = (0..half)
        .flat_map(|i| (half..n).map(move |j| (i, j)))
        .collect();
    use rand::seq::SliceRandom;
    pairs.shuffle(rng);
    let attempts = 6 * n;
    for &(i, j) in pairs.iter().take(attempts.min(pairs.len())) {
        g.add_edge(i, j);
        if contains_subgraph(&g, &pattern) {
            g.remove_edge(i, j);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use clique_graphs::iso;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(0x1B)
    }

    /// Checks the semantic property of Observation 11 on crafted and random
    /// instances: the instantiated graph contains `H` exactly when the
    /// instance is intersecting. Intended for moderate sizes (it runs a
    /// subgraph-isomorphism search per instance).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated instance.
    fn check_reduction_semantics<R: Rng + ?Sized>(
        lbg: &LowerBoundGraph,
        random_trials: usize,
        rng: &mut R,
    ) -> Result<(), String> {
        let h = lbg.pattern.graph();
        let m = lbg.elements();
        let check = |inst: &DisjointnessInstance, what: &str| -> Result<(), String> {
            let g = lbg.instantiate(inst);
            let found = contains_subgraph(&g, &h);
            let expected = !inst.is_disjoint();
            if found != expected {
                return Err(format!(
                    "{what}: contains({}) = {found}, but instance {} disjoint",
                    lbg.pattern,
                    if inst.is_disjoint() { "is" } else { "is not" }
                ));
            }
            Ok(())
        };

        // Crafted corner cases.
        check(
            &DisjointnessInstance::new(vec![false; m], vec![false; m]),
            "empty/empty",
        )?;
        check(
            &DisjointnessInstance::new(vec![true; m], vec![false; m]),
            "full/empty",
        )?;
        check(
            &DisjointnessInstance::new(vec![false; m], vec![true; m]),
            "empty/full",
        )?;
        if m >= 2 {
            // Complementary sets: heavily populated but still disjoint.
            let x: Vec<bool> = (0..m).map(|k| k % 2 == 0).collect();
            let y: Vec<bool> = (0..m).map(|k| k % 2 == 1).collect();
            check(&DisjointnessInstance::new(x, y), "odd/even split")?;
        }
        check(
            &DisjointnessInstance::new(vec![true; m], vec![true; m]),
            "full/full",
        )?;
        for witness in [0, m / 2, m - 1] {
            let mut x = vec![false; m];
            let mut y = vec![false; m];
            x[witness] = true;
            y[witness] = true;
            check(
                &DisjointnessInstance::new(x, y),
                &format!("single witness {witness}"),
            )?;
        }
        // Random instances.
        for t in 0..random_trials {
            let inst = if t % 2 == 0 {
                DisjointnessInstance::random_disjoint(m, rng)
            } else {
                DisjointnessInstance::random_single_intersection(m, rng)
            };
            check(&inst, &format!("random trial {t}"))?;
        }
        Ok(())
    }

    #[test]
    fn clique_lower_bound_graph_semantics() {
        let mut r = rng();
        for l in [4usize, 5, 6] {
            let lbg = LowerBoundGraph::for_clique(l, 30).unwrap();
            assert!(lbg.elements() >= 16, "too few elements for K{l}");
            check_reduction_semantics(&lbg, 6, &mut r).unwrap_or_else(|e| panic!("K{l}: {e}"));
        }
    }

    #[test]
    fn clique_lower_bound_has_quadratically_many_elements() {
        let lbg = LowerBoundGraph::for_clique(4, 64).unwrap();
        // N = 16, elements = N² = 256.
        assert_eq!(lbg.elements(), 256);
        assert!(lbg.implied_bcast_rounds(DisjointnessBound::TwoPartyDeterministic, 1) >= 4.0);
    }

    #[test]
    fn cycle_lower_bound_graph_semantics() {
        let mut r = rng();
        for l in [4usize, 5, 6] {
            let lbg = LowerBoundGraph::for_cycle(l, 36, &mut r).unwrap();
            assert!(lbg.elements() >= 4, "too few elements for C{l}");
            check_reduction_semantics(&lbg, 6, &mut r).unwrap_or_else(|e| panic!("C{l}: {e}"));
        }
    }

    #[test]
    fn cycle_lower_bound_is_sparse_across_the_cut() {
        let mut r = rng();
        let lbg = LowerBoundGraph::for_cycle(5, 60, &mut r).unwrap();
        // The cut consists of one edge per connecting path, i.e. N edges out
        // of Θ(N²) total (F = K_{N/2,N/2} for odd cycles).
        let n_vertices = lbg.vertex_count();
        assert!(
            lbg.cut_size() <= n_vertices,
            "cut {} too large",
            lbg.cut_size()
        );
        assert!(
            lbg.implied_congest_rounds(DisjointnessBound::TwoPartyDeterministic, 1)
                > lbg.implied_bcast_rounds(DisjointnessBound::TwoPartyDeterministic, 1) / 4.0
        );
    }

    #[test]
    fn complete_bipartite_lower_bound_graph_semantics() {
        let mut r = rng();
        for (l, m) in [(2usize, 2usize), (3, 3), (4, 4)] {
            let lbg = LowerBoundGraph::for_complete_bipartite(l, m, 44).unwrap();
            assert!(lbg.elements() >= 8, "too few elements for K{l},{m}");
            check_reduction_semantics(&lbg, 6, &mut r).unwrap_or_else(|e| panic!("K{l},{m}: {e}"));
        }
    }

    #[test]
    fn unsupported_bipartite_side_sizes_are_rejected() {
        assert!(LowerBoundGraph::for_complete_bipartite(2, 3, 60).is_err());
        assert!(LowerBoundGraph::for_complete_bipartite(4, 2, 60).is_err());
        assert!(LowerBoundGraph::for_complete_bipartite(1, 1, 60).is_err());
    }

    #[test]
    fn template_contains_pattern_only_via_matched_pairs() {
        // With all Alice edges but no Bob edges, no copy of H may exist.
        let lbg = LowerBoundGraph::for_clique(4, 28).unwrap();
        let m = lbg.elements();
        let only_alice = lbg.instantiate(&DisjointnessInstance::new(vec![true; m], vec![false; m]));
        assert!(!iso::contains_subgraph(&only_alice, &lbg.pattern().graph()));
        // The full template (both sides complete) of course contains H.
        let full = lbg.instantiate(&DisjointnessInstance::new(vec![true; m], vec![true; m]));
        assert!(iso::contains_subgraph(&full, &lbg.pattern().graph()));
    }

    #[test]
    fn constructions_reject_bad_parameters() {
        assert!(LowerBoundGraph::for_clique(3, 100).is_err());
        assert!(LowerBoundGraph::for_clique(4, 6).is_err());
        let mut r = rng();
        assert!(LowerBoundGraph::for_cycle(3, 100, &mut r).is_err());
        assert!(LowerBoundGraph::for_cycle(6, 4, &mut r).is_err());
        assert!(LowerBoundGraph::for_complete_bipartite(1, 3, 100).is_err());
        assert!(LowerBoundGraph::for_complete_bipartite(2, 2, 5).is_err());
    }

    #[test]
    fn node_partition_covers_controlled_edges() {
        let mut r = rng();
        let graphs = vec![
            LowerBoundGraph::for_clique(5, 40).unwrap(),
            LowerBoundGraph::for_cycle(4, 40, &mut r).unwrap(),
            LowerBoundGraph::for_complete_bipartite(3, 3, 40).unwrap(),
        ];
        for lbg in graphs {
            // Bob simulates every node Alice does not.
            let alice: std::collections::HashSet<usize> = lbg.alice_nodes.iter().copied().collect();
            assert!(alice.len() < lbg.vertex_count());
            for &(u, v) in &lbg.alice_edges {
                assert!(alice.contains(&u) && alice.contains(&v));
            }
            for &(u, v) in &lbg.bob_edges {
                assert!(!alice.contains(&u) && !alice.contains(&v));
            }
        }
    }

    #[test]
    fn bipartite_cycle_free_helper_has_correct_sides() {
        let mut r = rng();
        for l in [4usize, 5, 6] {
            let g = bipartite_cycle_free(20, l, &mut r);
            for (u, v) in g.edges() {
                assert!(
                    (u < 10) != (v < 10),
                    "edge ({u},{v}) does not cross the halves for ℓ = {l}"
                );
            }
            assert!(!iso::contains_subgraph(&g, &generators::cycle(l)));
            assert!(g.edge_count() > 0);
        }
    }
}
