//! # clique-bench — the experiment and benchmark harness
//!
//! The paper has no numeric tables or figures (its results are theorems), so
//! the "tables" this harness regenerates are the per-theorem experiments
//! listed in DESIGN.md (E1–E18): every experiment runs the corresponding
//! construction over a parameter sweep and reports the measured rounds, bits
//! or sizes next to the bound the theorem predicts.
//!
//! * `cargo run -p clique-bench --release --bin experiments` regenerates the
//!   full EXPERIMENTS.md tables (pass `--quick` for a fast smoke run, or an
//!   experiment id such as `E4` to run a single experiment).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod diff;
pub mod experiments;
pub mod table;

pub use experiments::{Scale, EXPERIMENTS};

/// What an `experiments` invocation asks for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExperimentsCommand {
    /// `--list`: print the registered experiment ids and descriptions.
    List,
    /// Regenerate tables.
    Run(ExperimentsRun),
}

/// A parsed table-regeneration request.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExperimentsRun {
    /// `--quick`: smoke sizes instead of the committed full sweep.
    pub quick: bool,
    /// `--json`: machine-readable output.
    pub json: bool,
    /// Selected experiment ids (uppercased); empty = all.
    pub selected: Vec<String>,
}

/// Parses the `experiments` binary's CLI against the experiment registry.
///
/// # Errors
///
/// Returns the diagnostic to print (the caller exits with status 2) on an
/// unknown flag or an unknown experiment id.
pub fn parse_experiments_args(args: &[String]) -> Result<ExperimentsCommand, String> {
    let mut run = ExperimentsRun::default();
    let mut list = false;
    for arg in args {
        match arg.as_str() {
            "--list" => list = true,
            "--quick" => run.quick = true,
            "--json" => run.json = true,
            flag if flag.starts_with("--") => {
                return Err(format!(
                    "unknown flag {flag} (expected --list, --quick or --json)"
                ));
            }
            id => run.selected.push(id.to_uppercase()),
        }
    }
    for id in &run.selected {
        if experiments::find_experiment(id).is_none() {
            let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
            return Err(format!(
                "unknown experiment id {id} (expected one of {})",
                known.join(", ")
            ));
        }
    }
    Ok(if list {
        ExperimentsCommand::List
    } else {
        ExperimentsCommand::Run(run)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn list_flag_wins_and_parses() {
        assert_eq!(
            parse_experiments_args(&args(&["--list"])),
            Ok(ExperimentsCommand::List)
        );
        // --list combined with other flags still lists (nothing runs).
        assert_eq!(
            parse_experiments_args(&args(&["--quick", "--list", "E4"])),
            Ok(ExperimentsCommand::List)
        );
    }

    #[test]
    fn run_flags_and_ids_parse() {
        let parsed = parse_experiments_args(&args(&["--quick", "--json", "e4", "E16"])).unwrap();
        assert_eq!(
            parsed,
            ExperimentsCommand::Run(ExperimentsRun {
                quick: true,
                json: true,
                selected: vec!["E4".to_owned(), "E16".to_owned()],
            })
        );
    }

    #[test]
    fn bad_inputs_are_rejected_with_a_diagnostic() {
        for flag in ["--nope", "--lane", "--threads"] {
            assert!(parse_experiments_args(&args(&[flag, "64"]))
                .unwrap_err()
                .contains("unknown flag"));
        }
        assert!(parse_experiments_args(&args(&["E99"]))
            .unwrap_err()
            .contains("unknown experiment id"));
    }
}
