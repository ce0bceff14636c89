//! The protocol registry: one `protocol_id -> entry` table shared by every
//! harness that dispatches protocols by name (the `clique-serve` job
//! server, the benchmark, tests), replacing per-binary match arms — adding
//! a servable protocol is one [`PROTOCOLS`] row.
//!
//! An entry bundles a stable id, the input kind it consumes and a runner that executes the protocol on the model the paper
//! states its bound for, returning the communication ledger plus a
//! *canonical output digest* (fixed-key-order JSON, integers and booleans
//! only). Two runs of the same `(protocol, input, bandwidth)` triple are
//! byte-identical in both fields — the determinism contract the serving
//! layer's transcript cache is built on.
//!
//! Inputs are themselves canonical: [`generate_input`] maps a
//! `(family, n, seed, max_weight)` label to a graph through a freshly
//! seeded [`ChaCha8Rng`], so a job spec fully determines its input without
//! shipping the graph.

use clique_graphs::weighted::{self, WeightedGraph};
use clique_graphs::{generators, Graph, Pattern};
use clique_sim::linalg::IntMatrix;
use clique_sim::transport::{FaultPlan, FaultyTransport};
use clique_sim::{BitString, CliqueConfig, Metrics, Protocol, Runner, Session, SimError};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::algebraic::{ApspProtocol, MatMulSchedule, TriangleCount};
use crate::mst::{MsfOutput, MstProtocol};
use crate::outcome::Detection;
use crate::subgraph::TuranSketchDetection;
use crate::trivial::FullBroadcastDetection;

/// The sketch base capacity every registry MST run starts from (the value
/// the oracle grids pin).
pub const MST_BASE_CAPACITY: usize = 4;

/// A generated protocol input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobInput {
    /// An unweighted graph (detection, counting, APSP protocols).
    Unweighted(Graph),
    /// A weighted graph (the MST protocol).
    Weighted(WeightedGraph),
}

impl JobInput {
    /// Number of vertices (= players of the run).
    pub fn vertex_count(&self) -> usize {
        match self {
            JobInput::Unweighted(g) => g.vertex_count(),
            JobInput::Weighted(g) => g.vertex_count(),
        }
    }

    fn unweighted(&self, id: &str) -> &Graph {
        match self {
            JobInput::Unweighted(g) => g,
            JobInput::Weighted(_) => panic!("protocol {id} expects an unweighted input"),
        }
    }

    fn weighted(&self, id: &str) -> &WeightedGraph {
        match self {
            JobInput::Weighted(g) => g,
            JobInput::Unweighted(_) => panic!("protocol {id} expects a weighted input"),
        }
    }
}

/// The input kind a registry entry consumes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputKind {
    /// Entry runs on an unweighted [`Graph`].
    Unweighted,
    /// Entry runs on a [`WeightedGraph`].
    Weighted,
}

/// Execution knobs of one registry run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOptions {
    /// Link bandwidth `b` of the model instance.
    pub bandwidth: usize,
    /// Deterministic fault-injection schedule, wrapped around the default
    /// transport (`None` = clean delivery). An injected fault aborts the
    /// run with [`SimError::TransportFault`]; a run that completes under a
    /// plan is byte-identical to the fault-free run — unfaulted messages
    /// pass through untouched.
    pub fault: Option<FaultPlan>,
}

/// What a registry run produces: the canonical output digest plus the full
/// communication ledger.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolRun {
    /// Canonical JSON digest of the protocol output (fixed key order, so
    /// byte-comparable).
    pub output: String,
    /// The run's communication metrics.
    pub metrics: Metrics,
}

/// One registered protocol.
pub struct ProtocolEntry {
    /// Stable identifier used in job specs and CLIs.
    pub id: &'static str,
    /// The input kind the entry consumes.
    pub kind: InputKind,
    run: fn(&JobInput, &RunOptions) -> Result<ProtocolRun, SimError>,
}

impl ProtocolEntry {
    /// Executes the protocol on `input`.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] of the underlying run.
    ///
    /// # Panics
    ///
    /// Panics if `input`'s kind differs from [`Self::kind`].
    pub fn run(&self, input: &JobInput, options: &RunOptions) -> Result<ProtocolRun, SimError> {
        (self.run)(input, options)
    }
}

/// The registry: every protocol servable by id.
pub const PROTOCOLS: &[ProtocolEntry] = &[
    // Minimum spanning forest on edge-incidence sketches (CLIQUE-BCAST).
    ProtocolEntry {
        id: "mst",
        kind: InputKind::Weighted,
        run: run_mst,
    },
    // Exact triangle counting via semiring matmul (CLIQUE-UCAST).
    ProtocolEntry {
        id: "triangle-count",
        kind: InputKind::Unweighted,
        run: run_triangle_count,
    },
    // Triangle counting with auto matmul dispatch (cubic/sparse) (CLIQUE-UCAST).
    ProtocolEntry {
        id: "triangle-count-fast",
        kind: InputKind::Unweighted,
        run: run_triangle_count_fast,
    },
    // All-pairs shortest paths by (min,+) squaring (CLIQUE-UCAST).
    ProtocolEntry {
        id: "apsp",
        kind: InputKind::Unweighted,
        run: run_apsp,
    },
    // APSP with auto matmul dispatch per squaring (cubic/sparse) (CLIQUE-UCAST).
    ProtocolEntry {
        id: "apsp-fast",
        kind: InputKind::Unweighted,
        run: run_apsp_fast,
    },
    // C4 detection with degeneracy sketches, Theorem 7 (CLIQUE-BCAST).
    ProtocolEntry {
        id: "c4-turan-sketch",
        kind: InputKind::Unweighted,
        run: run_c4_turan,
    },
    // C4 detection by broadcasting all rows, Section 3.1 (CLIQUE-BCAST).
    ProtocolEntry {
        id: "c4-full-broadcast",
        kind: InputKind::Unweighted,
        run: run_c4_full_broadcast,
    },
    // Fault-tolerance probe: one-phase broadcast, deliberately panics on odd n (chaos testing).
    ProtocolEntry {
        id: "chaos-probe",
        kind: InputKind::Unweighted,
        run: run_chaos_probe,
    },
];

/// Looks up an entry by id.
pub fn find(id: &str) -> Option<&'static ProtocolEntry> {
    PROTOCOLS.iter().find(|entry| entry.id == id)
}

/// The unweighted input families [`generate_input`] accepts (the family
/// mix of the differential oracle grids).
pub const UNWEIGHTED_FAMILIES: &[&str] = &[
    "path",
    "cycle",
    "star",
    "complete",
    "erdos_renyi(p=0.15)",
    "erdos_renyi(p=0.5)",
    "random_tree",
];

/// The weighted input families [`generate_input`] accepts.
pub const WEIGHTED_FAMILIES: &[&str] = &[
    "weighted_path",
    "weighted_cycle",
    "weighted_star",
    "weighted_random_tree",
    "weighted_erdos_renyi(p=0.2)",
    "constant_weights(complete)",
];

/// The families [`generate_input`] builds without drawing from its RNG:
/// their input depends on `n` (and `max_weight`) alone, so one seed stands
/// for all.
pub const SEEDLESS_FAMILIES: &[&str] = &[
    "path",
    "cycle",
    "star",
    "complete",
    "constant_weights(complete)",
];

/// Generates the canonical input for a `(family, n, seed)` label: the RNG
/// is freshly seeded per call, so the result depends on the label alone.
/// `max_weight` is only read by weighted families (weights are uniform in
/// `1..=max_weight`). Returns `None` for an unknown family of the requested
/// kind.
pub fn generate_input(
    kind: InputKind,
    family: &str,
    n: usize,
    seed: u64,
    max_weight: u64,
) -> Option<JobInput> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    match kind {
        InputKind::Unweighted => {
            let graph = match family {
                "path" => generators::path(n),
                "cycle" => generators::cycle(n),
                "star" => generators::star(n.saturating_sub(1)),
                "complete" => generators::complete(n),
                "erdos_renyi(p=0.15)" => generators::erdos_renyi(n, 0.15, &mut rng),
                "erdos_renyi(p=0.5)" => generators::erdos_renyi(n, 0.5, &mut rng),
                "random_tree" => generators::random_tree(n, &mut rng),
                _ => return None,
            };
            Some(JobInput::Unweighted(graph))
        }
        InputKind::Weighted => {
            let graph = match family {
                "weighted_path" => weighted::weighted_path(n, max_weight, &mut rng),
                "weighted_cycle" => weighted::weighted_cycle(n, max_weight, &mut rng),
                "weighted_star" => {
                    weighted::weighted_star(n.saturating_sub(1), max_weight, &mut rng)
                }
                "weighted_random_tree" => weighted::weighted_random_tree(n, max_weight, &mut rng),
                "weighted_erdos_renyi(p=0.2)" => {
                    weighted::weighted_erdos_renyi(n, 0.2, max_weight, &mut rng)
                }
                "constant_weights(complete)" => {
                    weighted::constant_weights(&generators::complete(n), max_weight)
                }
                _ => return None,
            };
            Some(JobInput::Weighted(graph))
        }
    }
}

impl RunOptions {
    /// The one runner behind every registry entry: executes `protocol` on
    /// `model(n, b)` for the input's `n` and these options' `b`, with a
    /// [`FaultyTransport`] around the default backend when a fault plan is
    /// set, and digests its output.
    fn execute<P: Protocol>(
        &self,
        model: fn(usize, usize) -> CliqueConfig,
        input: &JobInput,
        mut protocol: P,
        digest: impl FnOnce(&P::Output) -> String,
    ) -> Result<ProtocolRun, SimError> {
        let mut runner = Runner::new(model(input.vertex_count(), self.bandwidth));
        if let Some(plan) = self.fault {
            let transport = FaultyTransport::with_default_inner(plan);
            runner = runner.with_transport(Some(Box::new(transport)));
        }
        let outcome = runner.execute(&mut protocol)?;
        Ok(ProtocolRun {
            output: digest(&outcome.output),
            metrics: outcome.metrics,
        })
    }
}

fn run_mst(input: &JobInput, options: &RunOptions) -> Result<ProtocolRun, SimError> {
    let mst = MstProtocol::new(input.weighted("mst"), MST_BASE_CAPACITY);
    options.execute(CliqueConfig::broadcast, input, mst, msf_digest)
}

fn run_triangle_count(input: &JobInput, options: &RunOptions) -> Result<ProtocolRun, SimError> {
    let count = TriangleCount::new(input.unweighted("triangle-count"));
    options.execute(CliqueConfig::unicast, input, count, triangle_digest)
}

fn run_triangle_count_fast(
    input: &JobInput,
    options: &RunOptions,
) -> Result<ProtocolRun, SimError> {
    let graph = input.unweighted("triangle-count-fast");
    let count = TriangleCount::with_schedule(graph, MatMulSchedule::Auto);
    options.execute(CliqueConfig::unicast, input, count, triangle_digest)
}

fn run_apsp(input: &JobInput, options: &RunOptions) -> Result<ProtocolRun, SimError> {
    let apsp = ApspProtocol::new(input.unweighted("apsp"));
    options.execute(CliqueConfig::unicast, input, apsp, apsp_digest)
}

fn run_apsp_fast(input: &JobInput, options: &RunOptions) -> Result<ProtocolRun, SimError> {
    let apsp = ApspProtocol::with_schedule(input.unweighted("apsp-fast"), MatMulSchedule::Auto);
    options.execute(CliqueConfig::unicast, input, apsp, apsp_digest)
}

fn run_c4_turan(input: &JobInput, options: &RunOptions) -> Result<ProtocolRun, SimError> {
    let c4 = Pattern::Cycle(4);
    let detect = TuranSketchDetection::new(input.unweighted("c4-turan-sketch"), &c4);
    options.execute(CliqueConfig::broadcast, input, detect, detection_digest)
}

fn run_c4_full_broadcast(input: &JobInput, options: &RunOptions) -> Result<ProtocolRun, SimError> {
    let c4 = Pattern::Cycle(4);
    let detect = FullBroadcastDetection::new(input.unweighted("c4-full-broadcast"), &c4);
    options.execute(CliqueConfig::broadcast, input, detect, detection_digest)
}

/// The deliberately misbehaving entry backing the serving layer's
/// panic-isolation and quarantine tests: a trivial one-phase broadcast that
/// panics (by design) whenever the input has an odd number of vertices.
/// The panic is deterministic in the job spec, so retrying it can never
/// succeed — the recovery layer must isolate it and quarantine the job.
fn run_chaos_probe(input: &JobInput, options: &RunOptions) -> Result<ProtocolRun, SimError> {
    let n = input.unweighted("chaos-probe").vertex_count();
    assert!(
        n.is_multiple_of(2),
        "chaos-probe: deliberate panic for odd n ({n})"
    );
    let probe = |session: &mut Session| {
        let rows: Vec<BitString> = (0..n)
            .map(|i| BitString::from_bits((i % 2) as u64, 1))
            .collect();
        session.broadcast_all("probe broadcast", &rows)?;
        Ok(n)
    };
    options.execute(CliqueConfig::broadcast, input, probe, |n| {
        format!("{{\"probe\":{n}}}")
    })
}

fn triangle_digest(triangles: &u64) -> String {
    format!("{{\"triangles\":{triangles}}}")
}

fn msf_digest(out: &MsfOutput) -> String {
    let edges: Vec<String> = out
        .edges
        .iter()
        .map(|(u, v, w)| format!("[{u},{v},{w}]"))
        .collect();
    format!(
        "{{\"edges\":[{}],\"total_weight\":{},\"components\":{},\"phases\":{},\"final_capacity\":{}}}",
        edges.join(","),
        out.total_weight,
        out.components,
        out.phases,
        out.final_capacity
    )
}

fn apsp_digest(dist: &IntMatrix) -> String {
    let rows: Vec<String> = (0..dist.rows())
        .map(|i| {
            let cells: Vec<String> = (0..dist.cols())
                .map(|j| {
                    let v = dist.get(i, j);
                    if v == IntMatrix::INFINITY {
                        "-1".to_owned()
                    } else {
                        v.to_string()
                    }
                })
                .collect();
            format!("[{}]", cells.join(","))
        })
        .collect();
    format!("{{\"dist\":[{}]}}", rows.join(","))
}

fn detection_digest(detection: &Detection) -> String {
    let witness = match &detection.witness {
        Some(copy) => {
            let cells: Vec<String> = copy.iter().map(usize::to_string).collect();
            format!("[{}]", cells.join(","))
        }
        None => "null".to_owned(),
    };
    format!(
        "{{\"contains\":{},\"witness\":{}}}",
        detection.contains, witness
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebraic::count_triangles;
    use crate::mst::compute_msf;
    use clique_graphs::iso;

    #[test]
    fn every_id_resolves_and_ids_are_unique() {
        for entry in PROTOCOLS {
            assert_eq!(find(entry.id).unwrap().id, entry.id);
        }
        let mut ids: Vec<&str> = PROTOCOLS.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), PROTOCOLS.len());
        assert!(find("no-such-protocol").is_none());
    }

    #[test]
    fn generated_inputs_depend_only_on_their_label() {
        for family in UNWEIGHTED_FAMILIES {
            let a = generate_input(InputKind::Unweighted, family, 9, 0xFEED, 0).unwrap();
            let b = generate_input(InputKind::Unweighted, family, 9, 0xFEED, 0).unwrap();
            assert_eq!(a, b, "family {family}");
            assert_eq!(a.vertex_count(), 9, "family {family}");
            let other = generate_input(InputKind::Unweighted, family, 9, 0xBEEF, 0).unwrap();
            assert_eq!(a == other, SEEDLESS_FAMILIES.contains(family), "{family}");
        }
        for family in WEIGHTED_FAMILIES {
            let a = generate_input(InputKind::Weighted, family, 7, 3, 5).unwrap();
            let b = generate_input(InputKind::Weighted, family, 7, 3, 5).unwrap();
            assert_eq!(a, b, "family {family}");
            let other = generate_input(InputKind::Weighted, family, 7, 4, 5).unwrap();
            assert_eq!(a == other, SEEDLESS_FAMILIES.contains(family), "{family}");
        }
        assert!(SEEDLESS_FAMILIES
            .iter()
            .all(|f| UNWEIGHTED_FAMILIES.contains(f) || WEIGHTED_FAMILIES.contains(f)));
        assert!(generate_input(InputKind::Unweighted, "hypercube", 8, 0, 0).is_none());
        assert!(generate_input(InputKind::Weighted, "path", 8, 0, 3).is_none());
    }

    #[test]
    fn registry_runs_match_direct_wrappers() {
        let input =
            generate_input(InputKind::Weighted, "weighted_random_tree", 12, 0x5EED, 7).unwrap();
        let options = RunOptions {
            bandwidth: 8,
            ..RunOptions::default()
        };
        let run = find("mst").unwrap().run(&input, &options).unwrap();
        let JobInput::Weighted(graph) = &input else {
            unreachable!()
        };
        let direct = compute_msf(graph, MST_BASE_CAPACITY, 8).unwrap();
        assert_eq!(run.output, msf_digest(&direct.output));
        assert_eq!(run.metrics, direct.metrics);
        assert_eq!(direct.forest(), iso::minimum_spanning_forest(graph));

        let input = generate_input(InputKind::Unweighted, "erdos_renyi(p=0.5)", 10, 1, 0).unwrap();
        let run = find("triangle-count")
            .unwrap()
            .run(
                &input,
                &RunOptions {
                    bandwidth: 16,
                    ..RunOptions::default()
                },
            )
            .unwrap();
        let JobInput::Unweighted(graph) = &input else {
            unreachable!()
        };
        let direct = count_triangles(graph, 16).unwrap();
        assert_eq!(run.output, format!("{{\"triangles\":{}}}", direct.output));
        assert_eq!(run.metrics, direct.metrics);
    }

    #[test]
    fn chaos_probe_runs_on_even_inputs() {
        let input = generate_input(InputKind::Unweighted, "path", 6, 0, 0).unwrap();
        let run = find("chaos-probe")
            .unwrap()
            .run(
                &input,
                &RunOptions {
                    bandwidth: 4,
                    ..RunOptions::default()
                },
            )
            .unwrap();
        assert_eq!(run.output, "{\"probe\":6}");
        assert_eq!(run.metrics.rounds, 1);
    }

    #[test]
    #[should_panic(expected = "chaos-probe: deliberate panic")]
    fn chaos_probe_panics_on_odd_inputs() {
        let input = generate_input(InputKind::Unweighted, "path", 5, 0, 0).unwrap();
        let _ = find("chaos-probe").unwrap().run(
            &input,
            &RunOptions {
                bandwidth: 4,
                ..RunOptions::default()
            },
        );
    }

    #[test]
    fn fault_plans_abort_typed_and_zero_rate_matches_fault_free() {
        use clique_sim::transport::{FaultKind, INJECTABLE_FAULTS};
        let input = generate_input(InputKind::Unweighted, "erdos_renyi(p=0.5)", 8, 2, 0).unwrap();
        let entry = find("triangle-count").unwrap();
        let clean = entry
            .run(
                &input,
                &RunOptions {
                    bandwidth: 16,
                    ..RunOptions::default()
                },
            )
            .unwrap();
        let zero_rate = entry
            .run(
                &input,
                &RunOptions {
                    bandwidth: 16,
                    fault: Some(FaultPlan::new(9, 0, &INJECTABLE_FAULTS)),
                },
            )
            .unwrap();
        assert_eq!(clean, zero_rate, "a zero-rate plan changed the transcript");
        let saturated = entry.run(
            &input,
            &RunOptions {
                bandwidth: 16,
                fault: Some(FaultPlan::new(9, 1_000_000, &[FaultKind::Truncate])),
            },
        );
        assert!(matches!(
            saturated,
            Err(SimError::TransportFault {
                kind: FaultKind::Truncate,
                ..
            })
        ));
    }

    #[test]
    #[should_panic(expected = "expects a weighted input")]
    fn kind_mismatch_panics() {
        let input = generate_input(InputKind::Unweighted, "path", 4, 0, 0).unwrap();
        let _ = find("mst").unwrap().run(
            &input,
            &RunOptions {
                bandwidth: 8,
                ..RunOptions::default()
            },
        );
    }
}
