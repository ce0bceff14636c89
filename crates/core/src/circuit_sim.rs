//! The circuit-to-clique simulation of Theorem 2.
//!
//! Given a circuit of depth `D` with `N = n²·s` wires whose gates are all
//! `b_sep`-separable, the theorem builds an `O(D)`-round protocol for
//! `CLIQUE-UCAST(n, O(b_sep + s))` computing the circuit on any reasonably
//! balanced input partition. The protocol:
//!
//! 1. assigns every *heavy* gate (weight `≥ 2·n·s`, where the weight is
//!    fan-in plus fan-out) to a distinct player and spreads the *light*
//!    gates so that no player carries more than `O(n·s)` light wires;
//! 2. routes every input bit from the player that initially holds it to the
//!    owner of the corresponding input gate;
//! 3. evaluates the circuit layer by layer; in each layer
//!    * the owners of the inputs of a heavy gate send `b_sep`-bit summaries
//!      to the gate's owner, who combines them (Definition 1),
//!    * owners of heavy gates send their (single-bit) values to the owners
//!      of light gates that read them,
//!    * the light-to-light wires form a balanced demand that is delivered by
//!      a deterministic two-phase balanced schedule (the stand-in for
//!      Lenzen's routing algorithm — see DESIGN.md);
//! 4. the owners of the output gates finally ship the outputs to player 0.
//!
//! Round and bit accounting is exact and charged to the protocol's
//! [`Session`]; because the gate assignment and the routing schedule are
//! deterministic functions of the (publicly known) circuit, no message
//! needs headers and the per-link load per layer is `O(b_sep + s)` bits,
//! matching the theorem.

use std::collections::HashMap;

use clique_circuits::{Circuit, GateId, GateKind};
use clique_routing::greedy_intermediaries;
use clique_sim::prelude::*;

use crate::outcome::{CircuitOutput, CircuitSimOutcome};

/// How the `n²`-bit circuit input is initially split among the players.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputPartition {
    /// Input bit `t` starts at player `t mod n` (balanced round-robin).
    RoundRobin,
    /// Input bit `t` starts at player `⌊t·n / #inputs⌋` (contiguous blocks).
    Blocks,
}

impl InputPartition {
    fn owner(&self, t: usize, inputs: usize, n: usize) -> usize {
        match self {
            InputPartition::RoundRobin => t % n,
            InputPartition::Blocks => (t * n) / inputs.max(1),
        }
    }
}

/// The static plan of the simulation: gate ownership and derived parameters.
#[derive(Clone, Debug)]
pub struct SimulationPlan {
    /// Wire density `s = ⌈wires/n²⌉`.
    pub wire_density: usize,
    /// The heavy-gate threshold `2·n·s`.
    pub heavy_threshold: usize,
    /// Owner of each gate.
    pub owner: Vec<usize>,
    /// Whether each gate is heavy.
    pub heavy: Vec<bool>,
    /// Number of heavy gates.
    pub heavy_count: usize,
}

/// Computes the gate-to-player assignment of Theorem 2.
///
/// # Panics
///
/// Panics if `n_players == 0`.
pub fn plan_simulation(circuit: &Circuit, n_players: usize) -> SimulationPlan {
    assert!(n_players > 0, "need at least one player");
    let s = circuit.wire_density(n_players);
    let threshold = 2 * n_players * s;
    let weights = circuit.gate_weights();
    let heavy: Vec<bool> = weights.iter().map(|&w| w >= threshold).collect();
    let heavy_count = heavy.iter().filter(|&&h| h).count();
    // Heavy gates: one per player (the counting argument in the paper
    // guarantees heavy_count <= n).
    assert!(
        heavy_count <= n_players,
        "more heavy gates ({heavy_count}) than players ({n_players}); the wire bound is violated"
    );
    let mut owner = vec![0usize; circuit.gate_count()];
    let mut next_heavy_player = 0usize;
    // Light gates: greedily to the player with the least light weight.
    let mut light_load = vec![0usize; n_players];
    for (g, &w) in weights.iter().enumerate() {
        if heavy[g] {
            owner[g] = next_heavy_player;
            next_heavy_player += 1;
        } else {
            let p = (0..n_players)
                .min_by_key(|&p| light_load[p])
                .expect("at least one player");
            owner[g] = p;
            light_load[p] += w;
        }
    }
    SimulationPlan {
        wire_density: s,
        heavy_threshold: threshold,
        owner,
        heavy,
        heavy_count,
    }
}

/// Theorem 2 as a [`Protocol`]: simulates a layered circuit of separable
/// gates on the session's (unicast) model, returning the outputs and their
/// owners. Round and bit accounting lands on the session.
#[derive(Clone, Debug)]
pub struct CircuitSimulation<'a> {
    circuit: &'a Circuit,
    input: &'a [bool],
    partition: InputPartition,
}

impl<'a> CircuitSimulation<'a> {
    /// Prepares the simulation of `circuit` on `input` under the given
    /// initial input partition.
    ///
    /// # Panics
    ///
    /// Panics if the input length does not match the circuit.
    pub fn new(circuit: &'a Circuit, input: &'a [bool], partition: InputPartition) -> Self {
        assert_eq!(
            input.len(),
            circuit.inputs().len(),
            "expected {} input bits, got {}",
            circuit.inputs().len(),
            input.len()
        );
        Self {
            circuit,
            input,
            partition,
        }
    }
}

impl Protocol for CircuitSimulation<'_> {
    type Output = CircuitOutput;

    fn run(&mut self, session: &mut Session) -> Result<CircuitOutput, SimError> {
        run_circuit_simulation(self.circuit, self.input, self.partition, session)
    }
}

/// Simulates `circuit` on `input` with `n_players` players and the given
/// link bandwidth in `CLIQUE-UCAST(n, b)`, returning the outputs and the
/// exact round/bit accounting.
///
/// # Errors
///
/// Propagates simulator errors (which cannot occur for well-formed inputs).
///
/// # Panics
///
/// Panics if the input length does not match the circuit or `n_players == 0`.
pub fn simulate_circuit(
    circuit: &Circuit,
    input: &[bool],
    n_players: usize,
    bandwidth: usize,
    partition: InputPartition,
) -> Result<CircuitSimOutcome, SimError> {
    Runner::new(CliqueConfig::unicast(n_players, bandwidth))
        .execute(&mut CircuitSimulation::new(circuit, input, partition))
}

/// The protocol body: evaluates the circuit on the session's model.
fn run_circuit_simulation(
    circuit: &Circuit,
    input: &[bool],
    partition: InputPartition,
    session: &mut Session,
) -> Result<CircuitOutput, SimError> {
    let n = session.n();
    let plan = plan_simulation(circuit, n);

    // Per-player knowledge of gate values; only ever updated from local
    // evaluation or received messages.
    let mut known: Vec<HashMap<usize, bool>> = vec![HashMap::new(); n];

    // --- Step 1: distribute input bits to the owners of the input gates. ---
    // The initial holder of bit t and the owner of input gate t are both
    // publicly known, so the exchange needs no headers: player p sends to
    // player q the values of the input bits it holds whose gate is owned by
    // q, in increasing input index order.
    {
        let inputs = circuit.inputs();
        let mut outs: Vec<PhaseOutbox> = (0..n).map(|_| PhaseOutbox::new()).collect();
        let mut per_pair: HashMap<(usize, usize), BitString> = HashMap::new();
        for (t, &gate) in inputs.iter().enumerate() {
            let holder = partition.owner(t, inputs.len(), n);
            let target = plan.owner[gate.index()];
            if holder == target {
                known[target].insert(gate.index(), input[t]);
            } else {
                per_pair
                    .entry((holder, target))
                    .or_default()
                    .push_bit(input[t]);
            }
        }
        for (&(src, dst), bits) in &per_pair {
            outs[src].send(NodeId::new(dst), bits.clone());
        }
        let inboxes = session.exchange("distribute inputs", outs)?;
        // Receivers re-derive which input gates the received bits refer to.
        for (dst, inbox) in inboxes.iter().enumerate() {
            let mut cursors: HashMap<usize, BitReader<'_>> = inbox
                .unicasts()
                .map(|(src, payload)| (src.index(), payload.reader()))
                .collect();
            for (t, &gate) in inputs.iter().enumerate() {
                let holder = partition.owner(t, inputs.len(), n);
                if plan.owner[gate.index()] == dst && holder != dst {
                    if let Some(reader) = cursors.get_mut(&holder) {
                        let bit = reader.read_bit().expect("missing routed input bit");
                        known[dst].insert(gate.index(), bit);
                    }
                }
            }
        }
    }

    // Constants are known to their owners without communication.
    for (g, gate) in circuit.gates().iter().enumerate() {
        if let GateKind::Const(value) = gate.kind {
            known[plan.owner[g]].insert(g, value);
        }
    }

    // --- Step 2: evaluate layer by layer. ---
    let layers = circuit.layers();
    // Tracks which (heavy gate value, player) and (light gate value, player)
    // pairs have already been delivered, to avoid duplicate sends.
    let mut delivered: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();

    for (layer_idx, layer) in layers.iter().enumerate().skip(1) {
        // (a) Summaries for heavy gates of this layer.
        let heavy_in_layer: Vec<GateId> = layer
            .iter()
            .copied()
            .filter(|g| plan.heavy[g.index()])
            .collect();
        if !heavy_in_layer.is_empty() {
            let mut outs: Vec<PhaseOutbox> = (0..n).map(|_| PhaseOutbox::new()).collect();
            // For positional decoding, both sides iterate heavy gates in the
            // same (ascending) order.
            for &gid in &heavy_in_layer {
                let gate = circuit.gate(gid);
                let gate_owner = plan.owner[gid.index()];
                let sep_bits = gate.kind.separability_bits(gate.inputs.len()).max(1);
                // Group the gate's inputs by the owner of the input gate.
                let mut parts: HashMap<usize, Vec<(usize, bool)>> = HashMap::new();
                for (pos, input_gate) in gate.inputs.iter().enumerate() {
                    let p = plan.owner[input_gate.index()];
                    let value = known[p]
                        .get(&input_gate.index())
                        .copied()
                        .expect("owner must know the value of its evaluated gate");
                    parts.entry(p).or_default().push((pos, value));
                }
                for (p, indexed) in parts {
                    if p == gate_owner {
                        // The owner's own part needs no message; it recomputes
                        // its local summary when combining.
                        continue;
                    }
                    let summary = gate.kind.summary(&indexed);
                    outs[p].send(
                        NodeId::new(gate_owner),
                        BitString::from_bits(summary, sep_bits),
                    );
                }
            }
            let inboxes = session.exchange(&format!("layer {layer_idx}: heavy summaries"), outs)?;
            // Combine at the owners.
            for &gid in &heavy_in_layer {
                let gate = circuit.gate(gid);
                let gate_owner = plan.owner[gid.index()];
                let sep_bits = gate.kind.separability_bits(gate.inputs.len()).max(1);
                // Recompute the (publicly known) set of contributing players
                // and read their summaries positionally.
                let mut contributing: Vec<usize> = gate
                    .inputs
                    .iter()
                    .map(|ig| plan.owner[ig.index()])
                    .collect();
                contributing.sort_unstable();
                contributing.dedup();
                let mut summaries = Vec::with_capacity(contributing.len());
                for p in contributing {
                    if p == gate_owner {
                        // Recompute the local summary directly.
                        let indexed: Vec<(usize, bool)> = gate
                            .inputs
                            .iter()
                            .enumerate()
                            .filter(|(_, ig)| plan.owner[ig.index()] == gate_owner)
                            .map(|(pos, ig)| (pos, known[gate_owner][&ig.index()]))
                            .collect();
                        summaries.push(gate.kind.summary(&indexed));
                    } else {
                        let payload = inboxes[gate_owner]
                            .unicast_from(NodeId::new(p))
                            .expect("expected a summary from this player");
                        // A player sends at most one summary per heavy gate,
                        // and owns at most one heavy gate itself, so the
                        // payload for this gate starts at the offset
                        // accumulated from earlier heavy gates of this layer
                        // owned by `gate_owner` — but there is exactly one
                        // heavy gate per owner, so the offset is 0.
                        let mut reader = payload.reader();
                        summaries.push(
                            reader
                                .read_bits(sep_bits)
                                .expect("summary payload too short"),
                        );
                    }
                }
                let value = gate.kind.combine(&summaries, gate.inputs.len());
                known[gate_owner].insert(gid.index(), value);
            }
        }

        // (b) Heavy-gate values needed by light gates of this layer.
        let light_in_layer: Vec<GateId> = layer
            .iter()
            .copied()
            .filter(|g| !plan.heavy[g.index()])
            .collect();
        {
            let mut outs: Vec<PhaseOutbox> = (0..n).map(|_| PhaseOutbox::new()).collect();
            let mut pending: Vec<(usize, usize, usize)> = Vec::new(); // (heavy gate, src, dst)
            for &gid in &light_in_layer {
                let gate_owner = plan.owner[gid.index()];
                for input_gate in &circuit.gate(gid).inputs {
                    if plan.heavy[input_gate.index()] {
                        let src = plan.owner[input_gate.index()];
                        if src != gate_owner && delivered.insert((input_gate.index(), gate_owner)) {
                            pending.push((input_gate.index(), src, gate_owner));
                        }
                    }
                }
            }
            // A heavy owner owns exactly one heavy gate, so (src, dst)
            // determines the gate; one bit per pair suffices.
            for &(gate, src, dst) in &pending {
                let value = known[src][&gate];
                outs[src].send(NodeId::new(dst), BitString::from_bits(u64::from(value), 1));
            }
            if !pending.is_empty() {
                let inboxes =
                    session.exchange(&format!("layer {layer_idx}: heavy values"), outs)?;
                for &(gate, src, dst) in &pending {
                    let payload = inboxes[dst]
                        .unicast_from(NodeId::new(src))
                        .expect("expected a heavy value");
                    known[dst].insert(gate, payload.bit(0));
                }
            }
        }

        // (c) Light-to-light wires of this layer: a balanced two-phase
        // delivery with a deterministic, publicly computable schedule.
        {
            // Canonical wire list: (source gate, destination player).
            let mut wires: Vec<(usize, usize)> = Vec::new();
            for &gid in &light_in_layer {
                let gate_owner = plan.owner[gid.index()];
                for input_gate in &circuit.gate(gid).inputs {
                    if !plan.heavy[input_gate.index()] {
                        let src_owner = plan.owner[input_gate.index()];
                        if src_owner != gate_owner {
                            wires.push((input_gate.index(), gate_owner));
                        }
                    }
                }
            }
            wires.sort_unstable();
            wires.dedup();
            let wires: Vec<(usize, usize)> = wires
                .into_iter()
                .filter(|&(gate, dst)| !known[dst].contains_key(&gate))
                .collect();
            route_bits_two_phase(
                session,
                n,
                &format!("layer {layer_idx}: light wires"),
                &wires,
                &plan,
                &mut known,
            )?;
        }

        // (d) Local evaluation of the light gates of this layer.
        for &gid in &light_in_layer {
            let gate = circuit.gate(gid);
            let p = plan.owner[gid.index()];
            if matches!(gate.kind, GateKind::Input | GateKind::Const(_)) {
                continue;
            }
            let value = gate.kind.eval_iter(gate.inputs.iter().map(|ig| {
                known[p]
                    .get(&ig.index())
                    .copied()
                    .expect("light gate input value must have been delivered")
            }));
            known[p].insert(gid.index(), value);
        }
    }

    // --- Step 3: collect the outputs at player 0. ---
    let outputs = {
        let mut outs: Vec<PhaseOutbox> = (0..n).map(|_| PhaseOutbox::new()).collect();
        let mut per_sender: HashMap<usize, BitString> = HashMap::new();
        for gid in circuit.outputs() {
            let p = plan.owner[gid.index()];
            let value = known[p][&gid.index()];
            if p != 0 {
                per_sender.entry(p).or_default().push_bit(value);
            }
        }
        for (&p, bits) in &per_sender {
            outs[p].send(NodeId::new(0), bits.clone());
        }
        let inboxes = session.exchange("collect outputs", outs)?;
        let mut cursors: HashMap<usize, BitReader<'_>> = inboxes[0]
            .unicasts()
            .map(|(src, payload)| (src.index(), payload.reader()))
            .collect();
        circuit
            .outputs()
            .iter()
            .map(|gid| {
                let p = plan.owner[gid.index()];
                if p == 0 {
                    known[0][&gid.index()]
                } else {
                    cursors
                        .get_mut(&p)
                        .and_then(BitReader::read_bit)
                        .expect("missing output bit")
                }
            })
            .collect::<Vec<bool>>()
    };

    let output_owners = circuit
        .outputs()
        .iter()
        .map(|gid| plan.owner[gid.index()])
        .collect();
    Ok(CircuitOutput {
        outputs,
        output_owners,
        depth: circuit.depth(),
    })
}

/// Delivers one bit per `(source gate, destination player)` wire using the
/// deterministic two-phase balanced schedule. Both endpoints (and the
/// intermediaries) recompute the schedule from the public wire list, so the
/// payloads carry no headers.
fn route_bits_two_phase(
    session: &mut Session,
    n: usize,
    label: &str,
    wires: &[(usize, usize)],
    plan: &SimulationPlan,
    known: &mut [HashMap<usize, bool>],
) -> Result<(), SimError> {
    if wires.is_empty() {
        return Ok(());
    }
    // The balanced router's greedy intermediary assignment, one bit per
    // wire (identical for every player because the wire list and iteration
    // order are canonical).
    let hops: Vec<_> = wires
        .iter()
        .map(|&(gate, dst)| (plan.owner[gate], dst, 1))
        .collect();
    let assignment = greedy_intermediaries(n, &hops);

    // Phase 1: src -> intermediary, bits in canonical wire order.
    let mut outs: Vec<PhaseOutbox> = (0..n).map(|_| PhaseOutbox::new()).collect();
    let mut phase1: HashMap<(usize, usize), BitString> = HashMap::new();
    for (&(gate, _dst), &w) in wires.iter().zip(&assignment) {
        let src = plan.owner[gate];
        let value = known[src][&gate];
        if src == w {
            continue; // the intermediary already holds the value
        }
        phase1.entry((src, w)).or_default().push_bit(value);
    }
    for (&(src, w), bits) in &phase1 {
        outs[src].send(NodeId::new(w), bits.clone());
    }
    let inboxes = session.exchange(&format!("{label} (phase 1)"), outs)?;
    // Intermediaries reconstruct the values they must forward.
    let mut relay_value: HashMap<(usize, usize, usize), bool> = HashMap::new(); // (w, gate, dst)
    {
        let mut cursors: Vec<HashMap<usize, BitReader<'_>>> = inboxes
            .iter()
            .map(|inbox| {
                inbox
                    .unicasts()
                    .map(|(src, payload)| (src.index(), payload.reader()))
                    .collect()
            })
            .collect();
        for (&(gate, dst), &w) in wires.iter().zip(&assignment) {
            let src = plan.owner[gate];
            let value = if src == w {
                known[src][&gate]
            } else {
                cursors[w]
                    .get_mut(&src)
                    .and_then(BitReader::read_bit)
                    .expect("missing phase-1 bit")
            };
            relay_value.insert((w, gate, dst), value);
        }
    }

    // Phase 2: intermediary -> destination, bits in canonical wire order.
    let mut outs: Vec<PhaseOutbox> = (0..n).map(|_| PhaseOutbox::new()).collect();
    let mut phase2: HashMap<(usize, usize), BitString> = HashMap::new();
    for (&(gate, dst), &w) in wires.iter().zip(&assignment) {
        let value = relay_value[&(w, gate, dst)];
        if w == dst {
            known[dst].insert(gate, value);
            continue;
        }
        phase2.entry((w, dst)).or_default().push_bit(value);
    }
    for (&(w, dst), bits) in &phase2 {
        outs[w].send(NodeId::new(dst), bits.clone());
    }
    let inboxes = session.exchange(&format!("{label} (phase 2)"), outs)?;
    let mut cursors: Vec<HashMap<usize, BitReader<'_>>> = inboxes
        .iter()
        .map(|inbox| {
            inbox
                .unicasts()
                .map(|(src, payload)| (src.index(), payload.reader()))
                .collect()
        })
        .collect();
    for (&(gate, dst), &w) in wires.iter().zip(&assignment) {
        if w == dst {
            continue;
        }
        let bit = cursors[dst]
            .get_mut(&w)
            .and_then(BitReader::read_bit)
            .expect("missing phase-2 bit");
        known[dst].insert(gate, bit);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use clique_circuits::builders;
    use clique_circuits::matmul::matmul_f2_naive;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_input(rng: &mut impl Rng, len: usize) -> Vec<bool> {
        (0..len).map(|_| rng.gen_bool(0.5)).collect()
    }

    fn check_simulation(circuit: &Circuit, n: usize, bandwidth: usize, trials: usize, seed: u64) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for partition in [InputPartition::RoundRobin, InputPartition::Blocks] {
            for _ in 0..trials {
                let input = random_input(&mut rng, circuit.inputs().len());
                let expected = circuit.evaluate(&input);
                let outcome = simulate_circuit(circuit, &input, n, bandwidth, partition)
                    .expect("simulation failed");
                assert_eq!(
                    outcome.outputs, expected,
                    "simulation disagrees with direct evaluation"
                );
            }
        }
    }

    #[test]
    fn parity_circuits_simulate_correctly() {
        check_simulation(&builders::parity(36), 6, 4, 4, 1);
        check_simulation(&builders::parity_tree(36, 3), 6, 4, 4, 2);
    }

    #[test]
    fn threshold_and_mod_circuits_simulate_correctly() {
        check_simulation(&builders::majority(25), 5, 6, 4, 3);
        check_simulation(&builders::mod_m(25, 3), 5, 6, 4, 4);
        check_simulation(&builders::exactly_k(25, 3), 5, 6, 4, 5);
        check_simulation(&builders::mod_of_mods(24, 6, 4), 6, 6, 4, 6);
        check_simulation(&builders::inner_product_mod2(18), 6, 6, 4, 7);
    }

    #[test]
    fn matmul_circuit_simulates_correctly() {
        let mm = matmul_f2_naive(4);
        check_simulation(&mm.circuit, 4, 16, 3, 8);
    }

    #[test]
    fn rounds_scale_with_depth_not_size() {
        // With ample bandwidth, the simulation should take O(depth) phases,
        // i.e. O(1) rounds per phase.
        let deep = builders::parity_tree(64, 2); // depth 6
        let shallow = builders::parity(64); // depth 1
        let n = 8;
        let bandwidth = 64;
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let input = random_input(&mut rng, 64);
        let deep_out =
            simulate_circuit(&deep, &input, n, bandwidth, InputPartition::RoundRobin).unwrap();
        let shallow_out =
            simulate_circuit(&shallow, &input, n, bandwidth, InputPartition::RoundRobin).unwrap();
        assert!(deep_out.rounds() > shallow_out.rounds());
        assert!(
            deep_out.max_phase_rounds() <= 2,
            "phases should be O(1) rounds"
        );
        assert!(shallow_out.max_phase_rounds() <= 2);
        // O(D) with a small constant: at most ~5 phases per layer.
        assert!(deep_out.rounds() <= 5 * (deep_out.depth as u64 + 1) + 2);
    }

    #[test]
    fn plan_respects_heavy_gate_limits() {
        let circuit = builders::parity(100);
        let plan = plan_simulation(&circuit, 10);
        assert!(plan.heavy_count <= 10);
        // The single wide XOR gate has weight 101 > 2·n·s = 2·10·1 = 20.
        assert_eq!(plan.heavy_count, 1);
        assert_eq!(plan.owner.len(), circuit.gate_count());
        // Heavy gates get distinct players.
        let heavy_owners: Vec<usize> = (0..circuit.gate_count())
            .filter(|&g| plan.heavy[g])
            .map(|g| plan.owner[g])
            .collect();
        let mut deduped = heavy_owners.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), heavy_owners.len());
    }

    #[test]
    fn single_player_simulation_works() {
        let circuit = builders::exactly_k(9, 2);
        check_simulation(&circuit, 1, 4, 3, 10);
    }

    #[test]
    #[should_panic(expected = "expected 16 input bits")]
    fn wrong_input_length_panics() {
        let circuit = builders::parity(16);
        let _ = simulate_circuit(&circuit, &[true; 4], 4, 4, InputPartition::RoundRobin);
    }
}
