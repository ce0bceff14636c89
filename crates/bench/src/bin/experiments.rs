//! Regenerates every experiment table (E1–E18) of EXPERIMENTS.md.
//!
//! Usage:
//!
//! ```text
//! cargo run -p clique-bench --release --bin experiments            # full sweep
//! cargo run -p clique-bench --release --bin experiments -- --quick # smoke run
//! cargo run -p clique-bench --release --bin experiments -- E4 E7   # selected experiments
//! cargo run -p clique-bench --release --bin experiments -- --json  # machine-readable output
//! cargo run -p clique-bench --release --bin experiments -- --list  # registered experiments
//! ```

use std::time::Instant;

use clique_bench::{parse_experiments_args, ExperimentsCommand, Scale, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse_experiments_args(&args) {
        Ok(ExperimentsCommand::List) => {
            let width = EXPERIMENTS
                .iter()
                .map(|e| e.id.len())
                .max()
                .unwrap_or_default();
            for entry in EXPERIMENTS {
                println!("{:width$}  {}", entry.id, entry.description);
            }
            return;
        }
        Ok(ExperimentsCommand::Run(run)) => run,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    let scale = if run.quick { Scale::Quick } else { Scale::Full };

    let mut tables = Vec::new();
    for entry in EXPERIMENTS {
        if !run.selected.is_empty() && !run.selected.iter().any(|s| s == entry.id) {
            continue;
        }
        eprintln!("running {} ({scale:?}) …", entry.id);
        let start = Instant::now();
        let table = (entry.run)(scale);
        eprintln!("  done in {:.1?}", start.elapsed());
        tables.push(table);
    }

    if run.json {
        let objects: Vec<String> = tables.iter().map(|t| t.to_json()).collect();
        println!("[{}]", objects.join(",\n"));
    } else {
        println!("# Experiment results (congested clique reproduction)\n");
        println!(
            "Scale: {}\n",
            if run.quick {
                "quick (smoke sizes)"
            } else {
                "full"
            }
        );
        for table in &tables {
            print!("{}", table.to_markdown());
        }
    }
}
