//! Differential oracle grids: every protocol with a sequential reference
//! implementation is pinned to it over the seeded `(family, n, seed)` grids
//! of `clique_bench::diff`. A failure reports every disagreeing grid point.
//!
//! The served-vs-direct grids run the same protocols through the
//! `clique-serve` job server (cold cache, warm cache, 1-worker and 4-worker
//! fleets) and require every served record to be byte-identical to a direct
//! `Runner` execution.

use clique_bench::diff::{assert_protocol_matches_oracle, unweighted_grid, weighted_grid};
use congested_clique::graphs::iso;
use congested_clique::serve::{JobSpec, Server, ServerConfig};
use congested_clique::{compute_apsp, compute_msf, count_triangles};

/// MST on sketches vs. the Kruskal oracle, up to n = 64. Small maximum
/// weight (7) guarantees duplicate raw weights, so the grid also pins the
/// `(w, u, v)` tie-break end to end.
#[test]
fn mst_protocol_matches_kruskal_oracle() {
    let cases = weighted_grid(&[2, 3, 8, 17, 33, 64], &[0x5EED, 0xD1FF], 7);
    assert_protocol_matches_oracle(
        "MstProtocol vs Kruskal",
        &cases,
        |g| compute_msf(g, 4, 8).unwrap().forest(),
        iso::minimum_spanning_forest,
    );
}

/// The semiring-matmul triangle counter vs. the sequential enumerator.
#[test]
fn triangle_count_matches_sequential_oracle() {
    let cases = unweighted_grid(&[3, 8, 16, 27], &[0x5EED, 0xD1FF]);
    assert_protocol_matches_oracle(
        "TriangleCount vs iso::triangle_count",
        &cases,
        |g| count_triangles(g, 16).unwrap().output,
        iso::triangle_count,
    );
}

/// Repeated (min, +) squaring APSP vs. per-source BFS.
#[test]
fn apsp_matches_bfs_oracle() {
    let cases = unweighted_grid(&[2, 7, 16, 25], &[0x5EED, 0xD1FF]);
    assert_protocol_matches_oracle(
        "ApspProtocol vs iso::bfs_distances",
        &cases,
        |g| compute_apsp(g, 16).unwrap().output,
        iso::bfs_distances,
    );
}

/// The served grid: the same protocol/size/seed mix as the oracle grids
/// above, expressed as job specs (the registry regenerates each input from
/// its label, so the graphs are the same ones the direct runs see).
fn served_grid() -> Vec<JobSpec> {
    let seeds: &[u64] = &[0x5EED, 0xD1FF];
    let mut specs = Vec::new();
    for &seed in seeds {
        for &n in &[2usize, 3, 8, 17, 33] {
            specs.push(JobSpec::weighted(
                "mst",
                "weighted_erdos_renyi(p=0.2)",
                n,
                8,
                7,
                seed,
            ));
        }
        for &n in &[3usize, 8, 16] {
            specs.push(JobSpec::unweighted(
                "triangle-count",
                "erdos_renyi(p=0.5)",
                n,
                16,
                seed,
            ));
        }
        for &n in &[2usize, 7, 16] {
            specs.push(JobSpec::unweighted("apsp", "random_tree", n, 16, seed));
        }
    }
    specs
}

/// Every served record — cold cache and warm cache, 1-worker and 4-worker
/// fleets — is byte-identical to its direct `Runner` execution.
#[test]
fn served_records_match_direct_runs() {
    let specs = served_grid();
    for workers in [1usize, 4] {
        let mut server = Server::new(ServerConfig {
            workers,
            batch_size: 3,
            ..ServerConfig::default()
        });
        let cold = server.submit_jobs(&specs);
        let warm = server.submit_jobs(&specs);
        for (cold, warm) in cold.iter().zip(&warm) {
            let direct = Server::run_direct(&cold.spec).unwrap();
            let (c, w) = (cold.result.as_ref().unwrap(), warm.result.as_ref().unwrap());
            assert_eq!(
                c.record, direct,
                "cold served record diverged at {workers} workers for {}",
                cold.key
            );
            assert_eq!(
                w.record, direct,
                "warm served record diverged at {workers} workers for {}",
                warm.key
            );
            assert!(!c.cached, "cold pass unexpectedly hit the cache");
            assert!(w.cached, "warm pass unexpectedly missed the cache");
        }
        let stats = server.stats();
        assert_eq!(stats.ran, specs.len() as u64, "each unique spec ran once");
        assert_eq!(stats.cache.hits, specs.len() as u64);
    }
}

/// Cache hits survive adversarial re-validation: with `verify_hits` every
/// hit is recomputed and byte-compared inside the server.
#[test]
fn served_cache_hits_survive_verification() {
    let specs = served_grid();
    let mut server = Server::new(ServerConfig {
        workers: 4,
        batch_size: 3,
        verify_hits: true,
        ..ServerConfig::default()
    });
    server.submit_jobs(&specs);
    let warm = server.submit_jobs(&specs);
    assert!(warm
        .iter()
        .all(|o| o.result.as_ref().is_ok_and(|r| r.cached)));
}
