//! Quickstart: run triangle-detection protocols through the
//! `Protocol`/`Session`/`Runner` API and sweep one of them over a
//! bandwidth grid.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use congested_clique::graphs::{generators, iso, Pattern};
use congested_clique::sim::prelude::*;
use congested_clique::triangle::{detect_triangle_trivial, DlpTriangleDetection};
use congested_clique::trivial::FullBroadcastDetection;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), SimError> {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let n = 64;
    let bandwidth = 6; // b = log2(n) bits per link per round

    // Build a sparse random graph and plant one triangle in it.
    let host = generators::erdos_renyi(n, 1.5 / n as f64, &mut rng);
    let (graph, planted_at) = generators::plant_copy(&host, &generators::complete(3), &mut rng);
    println!(
        "input: G(n={n}, m={}) with a triangle planted on {:?}",
        graph.edge_count(),
        planted_at
    );
    println!("ground truth: has_triangle = {}", iso::has_triangle(&graph));
    println!();

    // The trivial protocol: every node broadcasts its adjacency row. The
    // free function picks the canonical model, CLIQUE-BCAST(n, b).
    let trivial = detect_triangle_trivial(&graph, bandwidth)?;
    println!(
        "trivial broadcast   : contains = {:5}, rounds = {:3}, blackboard bits = {}",
        trivial.contains,
        trivial.rounds(),
        trivial.total_bits()
    );

    // The same protocols are plain `Protocol` values: name any model with
    // `CliqueConfig::unicast` or `CliqueConfig::broadcast` and execute them
    // through a `Runner`. Here: the Dolev–Lenzen–Peled-style deterministic
    // protocol (group triples + balanced routing, Õ(n^{1/3}/b) rounds) on
    // CLIQUE-UCAST(n, b).
    let config = CliqueConfig::unicast(n, bandwidth);
    let dlp = Runner::new(config).execute(&mut DlpTriangleDetection::new(&graph))?;
    println!(
        "DLP (deterministic) : contains = {:5}, rounds = {:3}, network bits   = {}",
        dlp.contains,
        dlp.rounds(),
        dlp.total_bits()
    );
    if let Some(witness) = &dlp.witness {
        println!("                      witness triangle: {witness:?}");
    }

    // A sweep is a loop: the same detection protocol across a bandwidth
    // grid, each point on a fresh session.
    println!();
    println!("bandwidth sweep of the trivial protocol (rounds = ⌈n/b⌉):");
    let pattern = Pattern::Clique(3);
    for b in [1, 2, 4, 8, 16] {
        let config = CliqueConfig::broadcast(n, b);
        let outcome = Runner::new(config.clone())
            .execute(&mut FullBroadcastDetection::new(&graph, &pattern))?;
        println!(
            "  {:>26} : rounds = {:3}",
            config.to_string(),
            outcome.rounds()
        );
    }

    println!();
    println!(
        "round ratio trivial/DLP at this size: {:.1} (DLP scales as Õ(n^(1/3)/b), so it overtakes \
         the trivial ⌈n/b⌉ protocol as n grows; see EXPERIMENTS.md, E3)",
        trivial.rounds() as f64 / dlp.rounds().max(1) as f64
    );
    Ok(())
}
