//! Serving simulation jobs through the sharded, caching job server.
//!
//! Submits a mixed batch of registry jobs (MST, triangle counting, APSP,
//! C4 detection) to a 4-worker `serve::Server`, resubmits it warm, and
//! prints for every job the communication ledger, whether the record came
//! from the transcript cache, and whether it is byte-identical to a direct
//! `Runner` execution — the serving layer's core invariant.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example job_server
//! ```

use congested_clique::serve::{JobOutcome, JobSpec, ServeError, Server, ServerConfig};

fn main() -> Result<(), ServeError> {
    let mut server = Server::new(ServerConfig {
        workers: 4,
        batch_size: 2,
        ..ServerConfig::default()
    });

    let jobs = vec![
        JobSpec::weighted("mst", "weighted_random_tree", 16, 4, 32, 0x5EED),
        JobSpec::weighted("mst", "weighted_erdos_renyi(p=0.2)", 16, 4, 32, 0x5EED),
        JobSpec::unweighted("triangle-count", "erdos_renyi(p=0.5)", 12, 16, 7),
        JobSpec::unweighted("apsp", "random_tree", 12, 16, 7),
        JobSpec::unweighted("c4-turan-sketch", "erdos_renyi(p=0.15)", 14, 4, 3),
        JobSpec::unweighted("c4-full-broadcast", "cycle", 14, 4, 3),
        // A duplicate of the first job: it runs once and both submissions
        // share the record.
        JobSpec::weighted("mst", "weighted_random_tree", 16, 4, 32, 0x5EED),
    ];

    println!("cold batch ({} jobs, 4 workers):", jobs.len());
    print_batch(&server.submit_jobs(&jobs))?;

    println!("\nwarm batch (same jobs):");
    print_batch(&server.submit_jobs(&jobs))?;

    let stats = server.stats();
    println!(
        "\nserver: {} jobs submitted, {} simulations run, {} waves; cache {} hits / {} misses (hit rate {:.0}%)",
        stats.jobs,
        stats.ran,
        stats.waves,
        stats.cache.hits,
        stats.cache.misses,
        100.0 * stats.cache.hit_rate()
    );
    Ok(())
}

fn print_batch(outcomes: &[JobOutcome]) -> Result<(), ServeError> {
    println!(
        "  {:<18} {:<28} {:>3} {:>7} {:>10} {:>7} {:>16}",
        "protocol", "family", "n", "cached", "record B", "= dup", "= direct run"
    );
    for outcome in outcomes {
        let result = outcome.result.clone()?;
        let direct = Server::run_direct(&outcome.spec)?;
        let duplicate = outcomes
            .iter()
            .filter(|other| other.key == outcome.key)
            .all(|other| other.result == outcome.result);
        println!(
            "  {:<18} {:<28} {:>3} {:>7} {:>10} {:>7} {:>16}",
            outcome.spec.protocol,
            outcome.spec.family,
            outcome.spec.n,
            result.cached,
            result.record.len(),
            duplicate,
            result.record == direct
        );
        assert_eq!(result.record, direct, "served record diverged");
    }
    Ok(())
}
