//! Circuits as DAGs of unbounded fan-in, unbounded fan-out gates.
//!
//! The complexity measures relevant to Theorem 2 are the *depth* (number of
//! layers `L_0, …, L_D` in the paper's layering) and the *number of wires*
//! (edges of the DAG); [`Circuit`] tracks both and provides the layering
//! used by the simulation.

use crate::gate::GateKind;

/// Identifier of a gate within a [`Circuit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub usize);

impl GateId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for GateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// A single gate: its function and its ordered list of input gates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Gate {
    /// The Boolean function computed by the gate.
    pub kind: GateKind,
    /// The gates feeding this gate (the wires `in(G)`).
    pub inputs: Vec<GateId>,
}

/// A Boolean circuit: a DAG of gates with designated inputs and outputs.
///
/// Gates must be added in topological order (every input of a gate must
/// already exist), which makes the structure acyclic by construction.
///
/// # Examples
///
/// ```
/// use clique_circuits::builders;
///
/// // One XOR gate over three inputs.
/// let c = builders::parity(3);
/// assert_eq!(c.evaluate(&[true, true, false]), vec![false]);
/// assert_eq!(c.evaluate(&[true, true, true]), vec![true]);
/// assert_eq!(c.depth(), 1);
/// assert_eq!(c.wire_count(), 3);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Circuit {
    gates: Vec<Gate>,
    inputs: Vec<GateId>,
    outputs: Vec<GateId>,
}

impl Circuit {
    /// Creates an empty circuit.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds an input gate and returns its id.
    pub(crate) fn add_input(&mut self) -> GateId {
        let id = GateId(self.gates.len());
        self.gates.push(Gate {
            kind: GateKind::Input,
            inputs: Vec::new(),
        });
        self.inputs.push(id);
        id
    }

    /// Adds `count` input gates and returns their ids.
    pub(crate) fn add_inputs(&mut self, count: usize) -> Vec<GateId> {
        (0..count).map(|_| self.add_input()).collect()
    }

    /// Adds a gate computing `kind` over the given (already existing) gates.
    ///
    /// # Panics
    ///
    /// Panics if an input id does not exist yet, or the fan-in is invalid for
    /// the gate kind.
    pub(crate) fn add_gate(&mut self, kind: GateKind, inputs: &[GateId]) -> GateId {
        let id = GateId(self.gates.len());
        for input in inputs {
            assert!(
                input.index() < id.index(),
                "gate input {input} must be added before the gate using it"
            );
        }
        assert!(
            kind.validate_fan_in(inputs.len()),
            "fan-in {} invalid for gate {}",
            inputs.len(),
            kind.name()
        );
        assert!(
            !matches!(kind, GateKind::Input),
            "use add_input() to add inputs"
        );
        self.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
        });
        id
    }

    /// Marks a gate as a circuit output.
    ///
    /// # Panics
    ///
    /// Panics if the gate does not exist.
    pub(crate) fn mark_output(&mut self, id: GateId) {
        assert!(id.index() < self.gates.len(), "unknown gate {id}");
        self.outputs.push(id);
    }

    /// The gates, indexed by [`GateId`].
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The gate with the given id.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// The circuit inputs in creation order.
    pub fn inputs(&self) -> &[GateId] {
        &self.inputs
    }

    /// The circuit outputs in the order they were marked.
    pub fn outputs(&self) -> &[GateId] {
        &self.outputs
    }

    /// Number of gates (including inputs).
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of wires (edges of the DAG), the measure `N = n²·s` of
    /// Theorem 2.
    pub fn wire_count(&self) -> usize {
        self.gates.iter().map(|g| g.inputs.len()).sum()
    }

    /// The fan-out of every gate.
    pub(crate) fn fan_outs(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.gates.len()];
        for gate in &self.gates {
            for input in &gate.inputs {
                out[input.index()] += 1;
            }
        }
        out
    }

    /// The weight `w(G) = |in(G)| + |out(G)|` of every gate, as used by the
    /// heavy/light classification in the proof of Theorem 2.
    pub fn gate_weights(&self) -> Vec<usize> {
        let fan_outs = self.fan_outs();
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| g.inputs.len() + fan_outs[i])
            .collect()
    }

    /// The layering `L_0, …, L_D` of the paper: `L_0` are the gates with no
    /// inputs, and `L_r` are the gates all of whose inputs lie in strictly
    /// smaller layers.
    pub fn layers(&self) -> Vec<Vec<GateId>> {
        let n = self.gates.len();
        let mut layer_of = vec![0usize; n];
        let mut max_layer = 0usize;
        for (i, gate) in self.gates.iter().enumerate() {
            let layer = gate
                .inputs
                .iter()
                .map(|input| layer_of[input.index()] + 1)
                .max()
                .unwrap_or(0);
            layer_of[i] = layer;
            max_layer = max_layer.max(layer);
        }
        let mut layers = vec![Vec::new(); max_layer + 1];
        for i in 0..n {
            layers[layer_of[i]].push(GateId(i));
        }
        layers
    }

    /// The depth `D`: the index of the last layer (0 for an input-only
    /// circuit).
    pub fn depth(&self) -> usize {
        self.layers().len().saturating_sub(1)
    }

    /// The maximum separability bit budget over all gates — the `b` for which
    /// every gate of the circuit is `b`-separable.
    pub fn max_separability_bits(&self) -> usize {
        self.gates
            .iter()
            .map(|g| g.kind.separability_bits(g.inputs.len()))
            .max()
            .unwrap_or(0)
    }

    /// The wire density `s = ⌈wires / n²⌉` for a given player count `n`
    /// (at least 1), as used to size messages in Theorem 2.
    pub fn wire_density(&self, n: usize) -> usize {
        if n == 0 {
            return 1;
        }
        self.wire_count().div_ceil(n * n).max(1)
    }

    /// Evaluates every gate of the circuit on the given input assignment and
    /// returns all gate values.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len()` differs from the number of inputs.
    pub(crate) fn evaluate_all(&self, assignment: &[bool]) -> Vec<bool> {
        let mut values = vec![false; self.gates.len()];
        self.evaluate_all_into(assignment, &mut values);
        values
    }

    /// Evaluates every gate into the caller-provided scratch buffer, so
    /// repeated evaluations allocate nothing: the buffer is resized once and
    /// the per-gate input values are streamed straight out of it (no
    /// per-gate `Vec`).
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len()` differs from the number of inputs.
    pub(crate) fn evaluate_all_into(&self, assignment: &[bool], values: &mut Vec<bool>) {
        assert_eq!(
            assignment.len(),
            self.inputs.len(),
            "expected {} input bits, got {}",
            self.inputs.len(),
            assignment.len()
        );
        values.clear();
        values.resize(self.gates.len(), false);
        let mut next_input = 0usize;
        for i in 0..self.gates.len() {
            let gate = &self.gates[i];
            values[i] = match gate.kind {
                GateKind::Input => {
                    let v = assignment[next_input];
                    next_input += 1;
                    v
                }
                _ => gate
                    .kind
                    .eval_iter(gate.inputs.iter().map(|id| values[id.index()])),
            };
        }
    }

    /// Evaluates the circuit and returns the output values in output order.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len()` differs from the number of inputs.
    pub fn evaluate(&self, assignment: &[bool]) -> Vec<bool> {
        let values = self.evaluate_all(assignment);
        self.outputs.iter().map(|id| values[id.index()]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor3_circuit() -> Circuit {
        let mut c = Circuit::new();
        let xs = c.add_inputs(3);
        let x01 = c.add_gate(GateKind::Xor, &[xs[0], xs[1]]);
        let out = c.add_gate(GateKind::Xor, &[x01, xs[2]]);
        c.mark_output(out);
        c
    }

    #[test]
    fn basic_accounting() {
        let c = xor3_circuit();
        assert_eq!(c.gate_count(), 5);
        assert_eq!(c.wire_count(), 4);
        assert_eq!(c.depth(), 2);
        assert_eq!(c.inputs().len(), 3);
        assert_eq!(c.outputs().len(), 1);
        assert_eq!(c.max_separability_bits(), 1);
        assert_eq!(c.wire_density(2), 1);
        assert_eq!(c.wire_density(0), 1);
    }

    #[test]
    fn evaluation_matches_parity() {
        let c = xor3_circuit();
        for mask in 0..8u32 {
            let bits: Vec<bool> = (0..3).map(|i| mask >> i & 1 == 1).collect();
            let expected = bits.iter().filter(|&&b| b).count() % 2 == 1;
            assert_eq!(c.evaluate(&bits), vec![expected]);
        }
    }

    #[test]
    fn layers_respect_dependencies() {
        let c = xor3_circuit();
        let layers = c.layers();
        assert_eq!(layers.len(), 3);
        assert_eq!(layers[0].len(), 3); // inputs
        assert_eq!(layers[1].len(), 1);
        assert_eq!(layers[2].len(), 1);
        // Every gate's inputs lie in strictly earlier layers.
        let mut layer_of = vec![0usize; c.gate_count()];
        for (r, layer) in layers.iter().enumerate() {
            for id in layer {
                layer_of[id.index()] = r;
            }
        }
        for (i, gate) in c.gates().iter().enumerate() {
            for input in &gate.inputs {
                assert!(layer_of[input.index()] < layer_of[i]);
            }
        }
    }

    #[test]
    fn fan_outs_and_weights() {
        let mut c = Circuit::new();
        let xs = c.add_inputs(2);
        let a = c.add_gate(GateKind::And, &[xs[0], xs[1]]);
        let o = c.add_gate(GateKind::Or, &[xs[0], a]);
        c.mark_output(o);
        let fan_outs = c.fan_outs();
        assert_eq!(fan_outs[xs[0].index()], 2);
        assert_eq!(fan_outs[xs[1].index()], 1);
        assert_eq!(fan_outs[a.index()], 1);
        assert_eq!(fan_outs[o.index()], 0);
        let weights = c.gate_weights();
        assert_eq!(weights[a.index()], 3);
        assert_eq!(weights[o.index()], 2);
    }

    #[test]
    fn constants_and_outputs() {
        let mut c = Circuit::new();
        let t = c.add_gate(GateKind::Const(true), &[]);
        let x = c.add_input();
        let and = c.add_gate(GateKind::And, &[t, x]);
        c.mark_output(and);
        c.mark_output(t);
        assert_eq!(c.evaluate(&[true]), vec![true, true]);
        assert_eq!(c.evaluate(&[false]), vec![false, true]);
    }

    #[test]
    #[should_panic(expected = "must be added before")]
    fn forward_references_rejected() {
        let mut c = Circuit::new();
        let x = c.add_input();
        let _ = c.add_gate(GateKind::And, &[x, GateId(10)]);
    }

    #[test]
    #[should_panic(expected = "fan-in 2 invalid")]
    fn invalid_fan_in_rejected() {
        let mut c = Circuit::new();
        let xs = c.add_inputs(2);
        let _ = c.add_gate(GateKind::Not, &xs);
    }

    #[test]
    #[should_panic(expected = "expected 3 input bits")]
    fn wrong_assignment_length_panics() {
        let c = xor3_circuit();
        let _ = c.evaluate(&[true]);
    }

    #[test]
    fn evaluate_all_into_reuses_the_buffer() {
        let c = xor3_circuit();
        let mut scratch = Vec::new();
        c.evaluate_all_into(&[true, false, false], &mut scratch);
        let first = scratch.clone();
        assert_eq!(first, c.evaluate_all(&[true, false, false]));
        c.evaluate_all_into(&[true, true, true], &mut scratch);
        assert_eq!(scratch, c.evaluate_all(&[true, true, true]));
    }

    #[test]
    fn input_only_circuit_has_depth_zero() {
        let mut c = Circuit::new();
        let xs = c.add_inputs(4);
        for x in xs {
            c.mark_output(x);
        }
        assert_eq!(c.depth(), 0);
        assert_eq!(
            c.evaluate(&[true, false, true, false]),
            vec![true, false, true, false]
        );
    }
}
