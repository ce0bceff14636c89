use super::*;

/// Exact triangle counting as a [`Protocol`]: `trace(A³)/6` through one
/// counting-semiring [`SemiringMatMul`] plus one fixed-width broadcast per
/// player.
///
/// Player `v` folds its rows of `M = A·A` against its own adjacency row
/// (`t_v = Σ_j M[v][j]·A[v][j]`, the closed 3-walks through `v`) and
/// broadcasts `t_v`; the sum over all players is `trace(A³) = 6·#triangles`.
#[derive(Clone, Debug)]
pub struct TriangleCount<'a> {
    graph: &'a Graph,
    schedule: MatMulSchedule,
}

impl<'a> TriangleCount<'a> {
    /// Prepares the protocol for the given input graph on the default
    /// cubic matmul schedule.
    pub fn new(graph: &'a Graph) -> Self {
        Self::with_schedule(graph, MatMulSchedule::Cubic)
    }

    /// Prepares the protocol with an explicit [`MatMulSchedule`] for the
    /// inner counting product (`Auto` picks from the adjacency density).
    pub fn with_schedule(graph: &'a Graph, schedule: MatMulSchedule) -> Self {
        Self { graph, schedule }
    }
}

impl Protocol for TriangleCount<'_> {
    type Output = u64;

    fn run(&mut self, session: &mut Session) -> Result<u64, SimError> {
        let n = self.graph.vertex_count();
        session.require_clique_of(n);
        let operand = SemiringMatrix::Bits(self.graph.adjacency_bitmatrix());
        let product = session.run_protocol(&mut ScheduledMatMul::new(
            &operand,
            &operand,
            Semiring::Counting,
            self.schedule,
        ))?;
        let m = product.as_ints().expect("counting products are integers");

        // Player v holds row v of both matrices and folds its closed
        // 3-walks over its neighbours. t_v ≤ n² fits in the fixed width
        // every player derives from n.
        let width = bits_for_universe((n as u64).saturating_mul(n as u64).saturating_add(1)).max(1);
        let locals: Vec<u64> = (0..n)
            .map(|v| self.graph.neighbors(v).iter().map(|&u| m.get(v, u)).sum())
            .collect();
        let messages: Vec<BitString> = locals
            .iter()
            .map(|&walks| BitString::from_bits(walks, width))
            .collect();
        let inboxes = session.broadcast_all(COUNT_PHASE, &messages)?;

        // Everyone sums the announced counts; trace(A³) = 6·#triangles.
        let mut total = locals[0];
        for (src, payload) in inboxes[0].broadcasts() {
            if src.index() != 0 {
                total += payload
                    .reader()
                    .read_bits(width)
                    .ok_or_else(|| malformed(src.index(), COUNT_PHASE))?;
            }
        }
        Ok(total / 6)
    }
}

/// Label of [`TriangleCount`]'s closed-walk count broadcast.
const COUNT_PHASE: &str = "announce closed-walk counts";

/// Runs [`TriangleCount`] in `CLIQUE-UCAST(n, b)`.
///
/// # Errors
///
/// Propagates simulator errors (which cannot occur for well-formed inputs).
///
/// # Panics
///
/// Panics if the graph is empty.
pub fn count_triangles(graph: &Graph, bandwidth: usize) -> Result<RunOutcome<u64>, SimError> {
    let n = graph.vertex_count();
    assert!(n > 0, "the input graph must have at least one node");
    Runner::new(CliqueConfig::unicast(n, bandwidth)).execute(&mut TriangleCount::new(graph))
}

/// All-pairs shortest paths on an unweighted graph as a [`Protocol`]:
/// repeated `(min, +)` squaring of the hop matrix (0 on the diagonal, 1 on
/// edges, [`IntMatrix::INFINITY`] elsewhere) through [`SemiringMatMul`].
///
/// After `t` squarings the matrix holds exact distances up to `2^t`, so
/// `⌈log₂(n−1)⌉` distance products always suffice; a one-bit per-player
/// "my rows changed" vote after each squaring stops earlier on
/// small-diameter graphs. The output distance matrix has
/// [`IntMatrix::INFINITY`] for disconnected pairs.
#[derive(Clone, Debug)]
pub struct ApspProtocol<'a> {
    graph: &'a Graph,
    schedule: MatMulSchedule,
}

impl<'a> ApspProtocol<'a> {
    /// Prepares the protocol for the given input graph on the default
    /// cubic matmul schedule.
    pub fn new(graph: &'a Graph) -> Self {
        Self::with_schedule(graph, MatMulSchedule::Cubic)
    }

    /// Prepares the protocol with an explicit [`MatMulSchedule`]. `Auto`
    /// picks between the sparse path (hop matrices of sparse graphs start
    /// mostly-INFINITY) and the cubic one, re-resolved before every
    /// squaring as the distance matrix densifies.
    pub fn with_schedule(graph: &'a Graph, schedule: MatMulSchedule) -> Self {
        Self { graph, schedule }
    }

    /// The hop matrix the squaring starts from: 0 on the diagonal, 1 on
    /// edges, [`IntMatrix::INFINITY`] elsewhere. Public so experiments can
    /// square exactly the matrix the protocol squares.
    pub fn hop_matrix(graph: &Graph) -> IntMatrix {
        let n = graph.vertex_count();
        let mut w = IntMatrix::filled(n, n, IntMatrix::INFINITY);
        for v in 0..n {
            w.set(v, v, 0);
        }
        for (u, v) in graph.edges() {
            w.set(u, v, 1);
            w.set(v, u, 1);
        }
        w
    }
}

impl Protocol for ApspProtocol<'_> {
    type Output = IntMatrix;

    fn run(&mut self, session: &mut Session) -> Result<IntMatrix, SimError> {
        let n = self.graph.vertex_count();
        session.require_clique_of(n);
        let mut distances = Self::hop_matrix(self.graph);
        if n <= 1 {
            return Ok(distances);
        }
        let squarings = (usize::BITS - (n - 1).leading_zeros()) as usize;
        for _ in 0..squarings {
            let operand = SemiringMatrix::Ints(distances);
            let squared = session.run_protocol(&mut ScheduledMatMul::new(
                &operand,
                &operand,
                Semiring::MinPlus,
                self.schedule,
            ))?;
            let squared = squared
                .as_ints()
                .expect("min-plus products are integers")
                .clone();
            let previous = operand.as_ints().expect("operand is integers");

            // Early-exit vote: player v announces whether its row changed;
            // everyone stops after a unanimous "no".
            let changed: Vec<bool> = (0..n).map(|v| squared.row(v) != previous.row(v)).collect();
            let votes: Vec<BitString> = changed
                .iter()
                .map(|&c| BitString::from_bits(u64::from(c), 1))
                .collect();
            session.broadcast_all("announce distance-change flags", &votes)?;
            distances = squared;
            if !changed.iter().any(|&c| c) {
                break;
            }
        }
        Ok(distances)
    }
}

/// Runs [`ApspProtocol`] in `CLIQUE-UCAST(n, b)`.
///
/// # Errors
///
/// Propagates simulator errors (which cannot occur for well-formed inputs).
///
/// # Panics
///
/// Panics if the graph is empty.
pub fn compute_apsp(graph: &Graph, bandwidth: usize) -> Result<RunOutcome<IntMatrix>, SimError> {
    let n = graph.vertex_count();
    assert!(n > 0, "the input graph must have at least one node");
    Runner::new(CliqueConfig::unicast(n, bandwidth)).execute(&mut ApspProtocol::new(graph))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_count_matches_the_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x713);
        for (n, p) in [(4usize, 0.9f64), (9, 0.4), (16, 0.25), (27, 0.3)] {
            let g = generators::erdos_renyi(n, p, &mut rng);
            let outcome = count_triangles(&g, 4).unwrap();
            assert_eq!(*outcome, iso::triangle_count(&g), "n = {n}, p = {p}");
        }
    }

    #[test]
    fn triangle_count_on_degenerate_graphs() {
        assert_eq!(*count_triangles(&Graph::empty(1), 2).unwrap(), 0);
        assert_eq!(*count_triangles(&generators::complete(3), 2).unwrap(), 1);
        assert_eq!(*count_triangles(&generators::complete(6), 2).unwrap(), 20);
        let bip = generators::complete_bipartite(5, 5);
        assert_eq!(*count_triangles(&bip, 2).unwrap(), 0);
    }

    #[test]
    fn apsp_matches_bfs_distances() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xA5B);
        for (n, p) in [(5usize, 0.5f64), (12, 0.2), (20, 0.12)] {
            let g = generators::erdos_renyi(n, p, &mut rng);
            let outcome = compute_apsp(&g, 4).unwrap();
            assert_eq!(*outcome, iso::bfs_distances(&g), "n = {n}, p = {p}");
        }
        // A path graph exercises the full ⌈log₂(n−1)⌉ squaring schedule.
        let path = generators::path(17);
        let outcome = compute_apsp(&path, 4).unwrap();
        assert_eq!(*outcome, iso::bfs_distances(&path));
        assert_eq!(outcome.get(0, 16), 16);
    }

    #[test]
    fn apsp_early_exit_saves_rounds_on_small_diameter() {
        // Diameter 2 converges after the first vote; a long path needs the
        // full schedule.
        let star = generators::complete_bipartite(1, 16);
        let path = generators::path(17);
        let star_rounds = compute_apsp(&star, 4).unwrap().rounds();
        let path_rounds = compute_apsp(&path, 4).unwrap().rounds();
        assert!(
            star_rounds < path_rounds,
            "star {star_rounds} vs path {path_rounds}"
        );
    }

    #[test]
    fn scheduled_consumers_match_their_default_counterparts() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5C4E);
        let g = generators::erdos_renyi(28, 0.3, &mut rng);
        let runner = Runner::new(CliqueConfig::unicast(28, 4));
        let default_triangles = count_triangles(&g, 4).unwrap();
        for schedule in [
            MatMulSchedule::Cubic,
            MatMulSchedule::Sparse,
            MatMulSchedule::Auto,
        ] {
            let scheduled = runner
                .execute(&mut TriangleCount::with_schedule(&g, schedule))
                .unwrap();
            assert_eq!(*scheduled, *default_triangles, "{}", schedule.name());
        }
        let sparse_g = generators::path(20);
        let runner = Runner::new(CliqueConfig::unicast(20, 4));
        let default_apsp = compute_apsp(&sparse_g, 4).unwrap();
        for schedule in [
            MatMulSchedule::Cubic,
            MatMulSchedule::Sparse,
            MatMulSchedule::Auto,
        ] {
            let scheduled = runner
                .execute(&mut ApspProtocol::with_schedule(&sparse_g, schedule))
                .unwrap();
            assert_eq!(*scheduled, *default_apsp, "{}", schedule.name());
        }
    }
}
