//! The Theorem 24 reduction: 3-party NOF set disjointness → triangle
//! detection in `CLIQUE-BCAST`.
//!
//! Triangles resist the two-party technique of Lemma 13 because any vertex
//! bipartition leaves one player seeing all three edges of some triangle.
//! Theorem 24 instead starts from a Ruzsa–Szemerédi graph `G_n` (Claim 23):
//! a tripartite graph whose `m = n²/e^{O(√log n)}` designated triangles are
//! edge-disjoint and are the *only* triangles. Each designated triangle is a
//! disjointness element; an edge of `G_n` is kept in the input graph iff its
//! triangle's index belongs to the set held "on the forehead" of the party
//! that does **not** simulate either endpoint. The instance then contains a
//! triangle iff the three sets share an element, so a fast triangle-detection
//! protocol yields a cheap 3-party NOF protocol for disjointness.

use clique_graphs::behrend::RuzsaSzemeredi;
use clique_graphs::Graph;

use crate::disjointness::{DisjointnessBound, NofDisjointnessInstance};

/// Which of the three NOF parties simulates which part of the tripartite
/// Ruzsa–Szemerédi graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum NofParty {
    /// Simulates part `A`; does not see the set `x_a`.
    Alice,
    /// Simulates part `B`; does not see the set `x_b`.
    Bob,
    /// Simulates part `C`; does not see the set `x_c`.
    Charlie,
}

/// The executable reduction of Theorem 24.
#[derive(Clone, Debug)]
pub struct TriangleNofReduction {
    rs: RuzsaSzemeredi,
}

impl TriangleNofReduction {
    /// Builds the reduction for Ruzsa–Szemerédi parameter `m_param`
    /// (the graph has `6·m_param` vertices and
    /// `m_param·|S_Behrend(m_param)|` disjointness elements).
    pub fn new(m_param: usize) -> Self {
        Self {
            rs: RuzsaSzemeredi::new(m_param),
        }
    }

    /// Number of players of the resulting clique instance (`|A ∪ B ∪ C|`).
    pub fn vertex_count(&self) -> usize {
        self.rs.vertex_count()
    }

    /// The size of the NOF disjointness universe (`m(n)` of the paper).
    pub fn elements(&self) -> usize {
        self.rs.triangle_count()
    }

    /// Which party simulates the given vertex.
    pub(crate) fn owner(&self, vertex: usize) -> NofParty {
        let (a, b, _) = self.rs.parts();
        if a.contains(&vertex) {
            NofParty::Alice
        } else if b.contains(&vertex) {
            NofParty::Bob
        } else {
            NofParty::Charlie
        }
    }

    /// Builds the input graph `G_X` for a NOF disjointness instance: an edge
    /// of the Ruzsa–Szemerédi graph is present iff the index of its unique
    /// triangle belongs to the set *not seen* by the two parties owning its
    /// endpoints (`A×B` edges are controlled by `x_c`, `B×C` by `x_a`,
    /// `C×A` by `x_b`).
    ///
    /// # Panics
    ///
    /// Panics if the instance universe differs from [`Self::elements`].
    pub(crate) fn instantiate(&self, instance: &NofDisjointnessInstance) -> Graph {
        assert_eq!(
            instance.universe(),
            self.elements(),
            "instance universe must equal the number of designated triangles"
        );
        let mut g = Graph::empty(self.vertex_count());
        for (u, v) in self.rs.graph.edges() {
            let idx = self
                .rs
                .triangle_of_edge(u, v)
                .expect("every RS edge lies in a designated triangle");
            let keep = match (self.owner(u), self.owner(v)) {
                (NofParty::Alice, NofParty::Bob) | (NofParty::Bob, NofParty::Alice) => {
                    instance.x_c[idx]
                }
                (NofParty::Bob, NofParty::Charlie) | (NofParty::Charlie, NofParty::Bob) => {
                    instance.x_a[idx]
                }
                (NofParty::Charlie, NofParty::Alice) | (NofParty::Alice, NofParty::Charlie) => {
                    instance.x_b[idx]
                }
                _ => unreachable!("the Ruzsa–Szemerédi graph is tripartite"),
            };
            if keep {
                g.add_edge(u, v);
            }
        }
        g
    }

    /// The round lower bound for triangle detection in `CLIQUE-BCAST(n, b)`
    /// implied by Theorem 24 under the given NOF disjointness bound:
    /// `bound(m(n)) / ((7/3)·n·b)` (the simulation writes `(7/3)·n·b` bits
    /// per round in the paper's normalisation; with our part sizes the
    /// blackboard carries `n·b` bits per round, so we use that).
    pub fn implied_bcast_rounds(&self, bound: DisjointnessBound, bandwidth: usize) -> f64 {
        bound.bits(self.elements() as u64) / (self.vertex_count() as f64 * bandwidth as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clique_graphs::iso::has_triangle;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Verifies on each party's side that it can construct all edges incident
    /// to its own vertices from the two sets it sees (the number-on-forehead
    /// property that makes the simulation work).
    fn parties_can_build_their_edges(red: &TriangleNofReduction) -> bool {
        // An A-vertex is incident only to A×B edges (controlled by x_c,
        // visible to Alice) and A×C edges (controlled by x_b, visible to
        // Alice). Symmetrically for the others, so the property holds by
        // construction; the check below re-derives it from the data.
        red.rs.graph.edges().all(|(u, v)| {
            let owners = (red.owner(u), red.owner(v));
            !matches!(
                owners,
                (NofParty::Alice, NofParty::Alice)
                    | (NofParty::Bob, NofParty::Bob)
                    | (NofParty::Charlie, NofParty::Charlie)
            )
        })
    }

    #[test]
    fn reduction_semantics_on_crafted_instances() {
        let red = TriangleNofReduction::new(18);
        let m = red.elements();
        assert!(m > 0);

        let empty = NofDisjointnessInstance::new(vec![false; m], vec![false; m], vec![false; m]);
        assert!(!has_triangle(&red.instantiate(&empty)));

        let full = NofDisjointnessInstance::new(vec![true; m], vec![true; m], vec![true; m]);
        assert!(has_triangle(&red.instantiate(&full)));

        // Pairwise full but three-way disjoint: x_a ∩ x_b ∩ x_c = ∅.
        let thirds_a: Vec<bool> = (0..m).map(|i| i % 3 != 0).collect();
        let thirds_b: Vec<bool> = (0..m).map(|i| i % 3 != 1).collect();
        let thirds_c: Vec<bool> = (0..m).map(|i| i % 3 != 2).collect();
        let pairwise = NofDisjointnessInstance::new(thirds_a, thirds_b, thirds_c);
        assert!(pairwise.is_disjoint());
        assert!(
            !has_triangle(&red.instantiate(&pairwise)),
            "three-way-disjoint instance must not create a triangle"
        );

        for witness in [0usize, m / 2, m - 1] {
            let mut x_a = vec![false; m];
            let mut x_b = vec![false; m];
            let mut x_c = vec![false; m];
            x_a[witness] = true;
            x_b[witness] = true;
            x_c[witness] = true;
            let single = NofDisjointnessInstance::new(x_a, x_b, x_c);
            assert!(has_triangle(&red.instantiate(&single)));
        }
    }

    #[test]
    fn reduction_semantics_on_random_instances() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x305);
        let red = TriangleNofReduction::new(15);
        let m = red.elements();
        for t in 0..20 {
            let inst = if t % 2 == 0 {
                NofDisjointnessInstance::random_disjoint(m, &mut rng)
            } else {
                NofDisjointnessInstance::random_single_intersection(m, &mut rng)
            };
            let g = red.instantiate(&inst);
            assert_eq!(
                has_triangle(&g),
                !inst.is_disjoint(),
                "trial {t}: triangle presence must equal intersection"
            );
        }
    }

    #[test]
    fn structure_and_bounds() {
        let red = TriangleNofReduction::new(40);
        assert_eq!(red.vertex_count(), 240);
        assert!(parties_can_build_their_edges(&red));
        assert!(red.elements() >= 40, "m(n) should grow with the parameter");
        let det = red.implied_bcast_rounds(DisjointnessBound::ThreePartyNofDeterministic, 1);
        let rand_bound = red.implied_bcast_rounds(DisjointnessBound::ThreePartyNofRandomized, 1);
        assert!(det > rand_bound, "Ω(m) beats Ω(√m) for these sizes");
    }

    #[test]
    fn owners_partition_the_vertices() {
        let red = TriangleNofReduction::new(10);
        let (mut a, mut b, mut c) = (0, 0, 0);
        for v in 0..red.vertex_count() {
            match red.owner(v) {
                NofParty::Alice => a += 1,
                NofParty::Bob => b += 1,
                NofParty::Charlie => c += 1,
            }
        }
        assert_eq!(a, 10);
        assert_eq!(b, 20);
        assert_eq!(c, 30);
    }
}
