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
//!    * the light-to-light wires form a balanced demand, relayed in two hops
//!      through the balanced router's greedy intermediaries (the stand-in
//!      for Lenzen's routing algorithm — see DESIGN.md);
//! 4. the owners of the output gates finally ship the outputs to player 0.
//!
//! Every one of these phases is one *headerless exchange*: a list of
//! `(src, dst, value, width)` fields whose order and layout both ends derive
//! from the public circuit and gate assignment. All fields from `src` to
//! `dst` travel as one payload in list order, a field a player sends to
//! itself stays in place, and receivers read their payloads front to back,
//! so a missing or short payload is a [`SimError::MalformedPayload`] naming
//! its sender. No message needs a header and the per-link load per layer is
//! `O(b_sep + s)` bits, matching the theorem. Round and bit accounting is
//! exact and charged to the protocol's [`Session`].

use std::collections::{BTreeMap, HashMap};

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

/// The static plan of the simulation: gate ownership and heaviness.
#[derive(Clone, Debug)]
pub(crate) struct SimulationPlan {
    /// Owner of each gate.
    pub(crate) owner: Vec<usize>,
    /// Whether each gate is heavy (weight at least `2·n·s`, where
    /// `s = ⌈wires/n²⌉` is the wire density).
    pub(crate) heavy: Vec<bool>,
}

/// Computes the gate-to-player assignment of Theorem 2.
///
/// # Panics
///
/// Panics if `n_players == 0`.
pub(crate) fn plan_simulation(circuit: &Circuit, n_players: usize) -> SimulationPlan {
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
    SimulationPlan { owner, heavy }
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
        let (circuit, input, partition) = (self.circuit, self.input, self.partition);
        let n = session.n();
        let plan = plan_simulation(circuit, n);

        // Per-player knowledge of gate values; only ever updated from local
        // evaluation or received messages.
        let mut known: Vec<HashMap<usize, bool>> = vec![HashMap::new(); n];

        // --- Step 1: distribute input bits to the owners of the input
        // gates, in increasing input index order. ---
        let inputs = circuit.inputs();
        let holder = |t| partition.owner(t, inputs.len(), n);
        let fields: Vec<Field> = (0..inputs.len())
            .map(|t| Field::bit(holder(t), plan.owner[inputs[t].index()], input[t]))
            .collect();
        let values = exchange_fields(session, "distribute inputs", &fields)?;
        for ((gate, field), value) in inputs.iter().zip(&fields).zip(values) {
            known[field.dst].insert(gate.index(), value != 0);
        }

        // Constants are known to their owners without communication.
        for (g, gate) in circuit.gates().iter().enumerate() {
            if let GateKind::Const(value) = gate.kind {
                known[plan.owner[g]].insert(g, value);
            }
        }

        // --- Step 2: evaluate layer by layer. ---
        for (layer_idx, layer) in circuit.layers().iter().enumerate().skip(1) {
            let (heavy_in_layer, light_in_layer): (Vec<GateId>, Vec<GateId>) =
                layer.iter().partition(|g| plan.heavy[g.index()]);

            // (a) Every player owning inputs of a heavy gate sends the summary
            // of its part to the gate's owner, gates ascending and players
            // ascending within a gate.
            if !heavy_in_layer.is_empty() {
                let (mut fields, mut spans) = (Vec::new(), Vec::new());
                for &gid in &heavy_in_layer {
                    let gate = circuit.gate(gid);
                    let mut parts: BTreeMap<usize, Vec<(usize, bool)>> = BTreeMap::new();
                    for (pos, input_gate) in gate.inputs.iter().enumerate() {
                        let p = plan.owner[input_gate.index()];
                        let value = known[p][&input_gate.index()];
                        parts.entry(p).or_default().push((pos, value));
                    }
                    let (dst, start) = (plan.owner[gid.index()], fields.len());
                    let width = gate.kind.separability_bits(gate.inputs.len()).max(1);
                    for (src, part) in parts {
                        fields.push(Field::new(src, dst, gate.kind.summary(&part), width));
                    }
                    spans.push(start..fields.len());
                }
                let label = format!("layer {layer_idx}: heavy summaries");
                let summaries = exchange_fields(session, &label, &fields)?;
                for (&gid, span) in heavy_in_layer.iter().zip(spans) {
                    let gate = circuit.gate(gid);
                    let value = gate.kind.combine(&summaries[span], gate.inputs.len());
                    known[plan.owner[gid.index()]].insert(gid.index(), value);
                }
            }

            // The values light gates of this layer read from other players and
            // do not hold yet: one bit per (input gate, reader) wire, sorted.
            let mut wires: Vec<(usize, usize)> = Vec::new();
            for &gid in &light_in_layer {
                let dst = plan.owner[gid.index()];
                for input_gate in &circuit.gate(gid).inputs {
                    let gate = input_gate.index();
                    if plan.owner[gate] != dst && !known[dst].contains_key(&gate) {
                        wires.push((gate, dst));
                    }
                }
            }
            wires.sort_unstable();
            wires.dedup();
            let (heavy_wires, light_wires): (Vec<_>, Vec<_>) =
                wires.into_iter().partition(|&(gate, _)| plan.heavy[gate]);

            // (b) Heavy owners send their values straight to the readers. A
            // heavy owner owns one heavy gate, so each pair carries one bit.
            if !heavy_wires.is_empty() {
                let fields: Vec<Field> = heavy_wires
                    .iter()
                    .map(|&(gate, dst)| {
                        let src = plan.owner[gate];
                        Field::bit(src, dst, known[src][&gate])
                    })
                    .collect();
                let label = format!("layer {layer_idx}: heavy values");
                let values = exchange_fields(session, &label, &fields)?;
                for (&(gate, dst), value) in heavy_wires.iter().zip(values) {
                    known[dst].insert(gate, value != 0);
                }
            }

            // (c) Light wires take two hops, through the balanced router's
            // greedy intermediaries for the public wire list.
            if !light_wires.is_empty() {
                let label = format!("layer {layer_idx}: light wires");
                let hops: Vec<_> = light_wires
                    .iter()
                    .map(|&(gate, dst)| (plan.owner[gate], dst, 1))
                    .collect();
                let relays = greedy_intermediaries(n, &hops);
                let first: Vec<Field> = light_wires
                    .iter()
                    .zip(&relays)
                    .map(|(&(gate, _), &w)| {
                        let src = plan.owner[gate];
                        Field::bit(src, w, known[src][&gate])
                    })
                    .collect();
                let relayed = exchange_fields(session, &format!("{label} (phase 1)"), &first)?;
                let second: Vec<Field> = light_wires
                    .iter()
                    .zip(&relays)
                    .zip(relayed)
                    .map(|((&(_, dst), &w), value)| Field::bit(w, dst, value != 0))
                    .collect();
                let values = exchange_fields(session, &format!("{label} (phase 2)"), &second)?;
                for (&(gate, dst), value) in light_wires.iter().zip(values) {
                    known[dst].insert(gate, value != 0);
                }
            }

            // (d) Local evaluation of the light gates, whose input values (b)
            // and (c) delivered (input and constant gates sit in layer 0).
            for &gid in &light_in_layer {
                let gate = circuit.gate(gid);
                let p = plan.owner[gid.index()];
                let value = gate
                    .kind
                    .eval_iter(gate.inputs.iter().map(|ig| known[p][&ig.index()]));
                known[p].insert(gid.index(), value);
            }
        }

        // --- Step 3: collect the outputs at player 0, in output order. ---
        let fields: Vec<Field> = circuit
            .outputs()
            .iter()
            .map(|gid| {
                let p = plan.owner[gid.index()];
                Field::bit(p, 0, known[p][&gid.index()])
            })
            .collect();
        let values = exchange_fields(session, "collect outputs", &fields)?;
        Ok(CircuitOutput {
            outputs: values.iter().map(|&value| value != 0).collect(),
            output_owners: fields.iter().map(|f| f.src).collect(),
            depth: circuit.depth(),
        })
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

/// One field of a headerless phase: the low `width` bits of `value`, which
/// player `src` holds and player `dst` needs.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Field {
    pub(crate) src: usize,
    pub(crate) dst: usize,
    pub(crate) value: u64,
    pub(crate) width: usize,
}

impl Field {
    fn new(src: usize, dst: usize, value: u64, width: usize) -> Self {
        Self {
            src,
            dst,
            value,
            width,
        }
    }

    /// A one-bit field.
    pub(crate) fn bit(src: usize, dst: usize, value: bool) -> Self {
        Self::new(src, dst, u64::from(value), 1)
    }
}

/// Runs one headerless phase labelled `label` and returns, in list order,
/// the value each field's `dst` holds afterwards: one payload per
/// `(src, dst)` pair, its fields in list order, and no payload for a field
/// with `src == dst`.
///
/// # Errors
///
/// [`SimError::MalformedPayload`] naming the sender of a missing or short
/// payload, and whatever [`Session::exchange`] reports.
fn exchange_fields(
    session: &mut Session,
    label: &str,
    fields: &[Field],
) -> Result<Vec<u64>, SimError> {
    let mut payloads: BTreeMap<(usize, usize), BitString> = BTreeMap::new();
    for f in fields.iter().filter(|f| f.src != f.dst) {
        let payload = payloads.entry((f.src, f.dst)).or_default();
        payload.push_bits(f.value, f.width);
    }
    let mut outs: Vec<PhaseOutbox> = (0..session.n()).map(|_| PhaseOutbox::new()).collect();
    for ((src, dst), payload) in payloads {
        outs[src].send(NodeId::new(dst), payload);
    }
    let inboxes = session.exchange(label, outs)?;
    read_fields(label, fields, &inboxes)
}

/// The receiving half of [`exchange_fields`], also used by the Section 2.1
/// follow-up: each field's `dst` reads it from the front of what remains of
/// `src`'s payload.
///
/// # Errors
///
/// [`SimError::MalformedPayload`] naming `src` when its payload is missing
/// or ends before the field does.
pub(crate) fn read_fields(
    label: &str,
    fields: &[Field],
    inboxes: &[PhaseInbox],
) -> Result<Vec<u64>, SimError> {
    let mut readers: HashMap<(usize, usize), Option<BitReader<'_>>> = HashMap::new();
    fields
        .iter()
        .map(|f| {
            if f.src == f.dst {
                return Ok(f.value);
            }
            let sender = NodeId::new(f.src);
            let reader = readers
                .entry((f.src, f.dst))
                .or_insert_with(|| inboxes[f.dst].unicast_from(sender).map(BitString::reader));
            let value = reader.as_mut().and_then(|r| r.read_bits(f.width));
            value.ok_or_else(|| SimError::MalformedPayload {
                sender,
                phase: label.to_owned(),
            })
        })
        .collect()
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
        // The single wide XOR gate has weight 101 > 2·n·s = 2·10·1 = 20.
        assert_eq!(plan.heavy.iter().filter(|&&h| h).count(), 1);
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
    fn missing_or_short_payloads_name_their_sender() {
        // Player 0 reads a 3-bit field from player 1 and two one-bit fields
        // from player 2; its own field stays in place.
        let fields = [
            Field::new(1, 0, 0b101, 3),
            Field::bit(2, 0, true),
            Field::bit(0, 0, true),
            Field::bit(2, 0, false),
        ];
        let read = |from_1: Option<BitString>, from_2: BitString| {
            let mut outs: Vec<PhaseOutbox> = (0..3).map(|_| PhaseOutbox::new()).collect();
            if let Some(payload) = from_1 {
                outs[1].send(NodeId::new(0), payload);
            }
            outs[2].send(NodeId::new(0), from_2);
            let mut session = Session::new(CliqueConfig::unicast(3, 4));
            read_fields("test", &fields, &session.exchange("test", outs).unwrap())
        };
        let one = BitString::from_bits(0b101, 3);
        let full = read(Some(one.clone()), BitString::from_bits(0b01, 2));
        assert_eq!(full, Ok(vec![0b101, 1, 1, 0]));
        let malformed = |sender| {
            Err(SimError::MalformedPayload {
                sender: NodeId::new(sender),
                phase: "test".into(),
            })
        };
        // Player 1 sends nothing; player 2 sends one bit short.
        assert_eq!(read(None, BitString::from_bits(0b01, 2)), malformed(1));
        assert_eq!(read(Some(one), BitString::from_bits(1, 1)), malformed(2));
    }

    #[test]
    #[should_panic(expected = "expected 16 input bits")]
    fn wrong_input_length_panics() {
        let circuit = builders::parity(16);
        let _ = simulate_circuit(&circuit, &[true; 4], 4, 4, InputPartition::RoundRobin);
    }
}
