//! The [`Simulator`] trait: backend-agnostic circuit verification.
//!
//! Three implementations ship:
//!
//! | backend | engine | width | gate set |
//! |---|---|---|---|
//! | [`DenseSimulator`] | statevector ([`State`]) | ≤ [`MAX_QUBITS`] | any unitary |
//! | [`StabilizerSimulator`] | CHP tableau ([`Tableau`]) | hundreds of qubits | Clifford |
//! | [`SparseSimulator`] | flat term list ([`SparseState`]; permutation and diagonal gates in place) | ≤ [`SPARSE_MAX_QUBITS`] (more via compaction) | any unitary, ≤ `max_terms` amplitudes |
//!
//! The fuzz harness asks [`auto_backend`] to pick per cell: stabilizer
//! whenever the pair is all-Clifford (exact and effectively free at any
//! width), dense while the device fits under the dense cap (exhaustive
//! gate coverage), and sparse for non-Clifford circuits on wide devices —
//! which is exactly the situation for routed Toffoli networks on the
//! 20-qubit Johannesburg device or 127-qubit-class heavy-hex grids. Only
//! a sparse budget blow-up leaves a cell unverified.
//!
//! [`SparseState`]: crate::SparseState
//! [`SPARSE_MAX_QUBITS`]: crate::SPARSE_MAX_QUBITS

use crate::sparse::SparseSimulator;
use crate::state::SplitMix64;
use crate::tableau::first_non_clifford;
use crate::{SimError, Tableau, MAX_QUBITS};
use trios_ir::Circuit;

/// What a backend can simulate, for selection and reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capability {
    /// Backend name used in reports and error messages.
    pub name: &'static str,
    /// Hard width limit, or `None` when width is memory-bound only.
    pub max_qubits: Option<usize>,
    /// Human description of the supported gate set.
    pub gate_set: &'static str,
}

/// Which simulation backend to use for equivalence checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Pick per circuit: stabilizer for all-Clifford pairs, dense when
    /// the register fits, sparse for non-Clifford circuits on wide
    /// registers, skip only on a sparse budget blow-up.
    #[default]
    Auto,
    /// Dense statevector only.
    Dense,
    /// Stabilizer tableau only.
    Stabilizer,
    /// Sparse term-map statevector only.
    Sparse,
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(Backend::Auto),
            "dense" => Ok(Backend::Dense),
            "stabilizer" => Ok(Backend::Stabilizer),
            "sparse" => Ok(Backend::Sparse),
            other => Err(format!(
                "unknown backend '{other}' (expected auto, dense, stabilizer, or sparse)"
            )),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Auto => "auto",
            Backend::Dense => "dense",
            Backend::Stabilizer => "stabilizer",
            Backend::Sparse => "sparse",
        })
    }
}

/// A verification backend: reports its capability and checks compiled
/// circuits against originals.
pub trait Simulator {
    /// Width and gate-set limits of this backend.
    fn capability(&self) -> Capability;

    /// `Ok` if this backend can simulate `circuit` (width and gate set).
    ///
    /// # Errors
    ///
    /// [`SimError::TooManyQubits`] or [`SimError::UnsupportedGate`]
    /// explaining the first obstacle.
    fn supports_circuit(&self, circuit: &Circuit) -> Result<(), SimError>;

    /// Probabilistic unitary-equivalence check on `trials` random inputs
    /// (global phase ignored).
    ///
    /// # Errors
    ///
    /// [`SimError::WidthMismatch`] if widths differ, plus anything
    /// [`Simulator::supports_circuit`] reports.
    fn circuits_equivalent(
        &self,
        a: &Circuit,
        b: &Circuit,
        trials: usize,
        seed: u64,
    ) -> Result<bool, SimError>;

    /// Verifies a routed physical-register circuit against the original
    /// logical circuit through its initial/final layouts, on `trials`
    /// random logical inputs.
    ///
    /// # Errors
    ///
    /// [`SimError::WidthMismatch`] for bad layouts, plus anything
    /// [`Simulator::supports_circuit`] reports.
    fn compiled_equivalent(
        &self,
        original: &Circuit,
        compiled: &Circuit,
        initial_layout: &[usize],
        final_layout: &[usize],
        trials: usize,
        seed: u64,
    ) -> Result<bool, SimError>;
}

/// Dense statevector backend (any unitary gate, ≤ [`MAX_QUBITS`]).
#[derive(Debug, Clone, Copy)]
pub struct DenseSimulator {
    /// Amplitude tolerance for equivalence comparisons.
    pub eps: f64,
}

impl Default for DenseSimulator {
    fn default() -> Self {
        DenseSimulator { eps: 1e-7 }
    }
}

impl DenseSimulator {
    /// A dense backend with the given amplitude tolerance.
    pub fn new(eps: f64) -> Self {
        DenseSimulator { eps }
    }
}

impl Simulator for DenseSimulator {
    fn capability(&self) -> Capability {
        Capability {
            name: "dense",
            max_qubits: Some(MAX_QUBITS),
            gate_set: "any unitary gate",
        }
    }

    fn supports_circuit(&self, circuit: &Circuit) -> Result<(), SimError> {
        if circuit.num_qubits() > MAX_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: circuit.num_qubits(),
                max: MAX_QUBITS,
            });
        }
        Ok(())
    }

    fn circuits_equivalent(
        &self,
        a: &Circuit,
        b: &Circuit,
        trials: usize,
        seed: u64,
    ) -> Result<bool, SimError> {
        crate::circuits_equivalent_sampled(a, b, trials, seed, self.eps)
    }

    fn compiled_equivalent(
        &self,
        original: &Circuit,
        compiled: &Circuit,
        initial_layout: &[usize],
        final_layout: &[usize],
        trials: usize,
        seed: u64,
    ) -> Result<bool, SimError> {
        crate::compiled_equivalent(
            original,
            compiled,
            initial_layout,
            final_layout,
            trials,
            seed,
            self.eps,
        )
    }
}

/// Stabilizer tableau backend (Clifford gates, hundreds of qubits).
///
/// Equivalence trials prepare seeded random *stabilizer* states (a random
/// word of H/S/CX gates on the logical register), push them through both
/// sides, and compare canonical stabilizer groups exactly — no floating
/// point in the comparison.
#[derive(Debug, Clone, Copy, Default)]
pub struct StabilizerSimulator;

impl StabilizerSimulator {
    /// The stabilizer backend.
    pub fn new() -> Self {
        StabilizerSimulator
    }
}

/// A seeded random Clifford word (H/S/CX) on `n` qubits, used to prepare
/// random stabilizer states for equivalence trials.
fn random_clifford_prep(n: usize, seed: u64) -> Circuit {
    let mut rng = SplitMix64::new(seed);
    let mut c = Circuit::new(n);
    let gates = 3 * n + 2;
    for _ in 0..gates {
        let q = (rng.next_u64() % n as u64) as usize;
        match rng.next_u64() % 10 {
            0..=3 => {
                c.h(q);
            }
            4..=6 => {
                c.s(q);
            }
            _ if n >= 2 => {
                let mut t = (rng.next_u64() % (n as u64 - 1)) as usize;
                if t >= q {
                    t += 1;
                }
                c.cx(q, t);
            }
            _ => {
                c.h(q);
            }
        }
    }
    c
}

impl Simulator for StabilizerSimulator {
    fn capability(&self) -> Capability {
        Capability {
            name: "stabilizer",
            max_qubits: None,
            gate_set: "Clifford gates (H, S, Paulis, CX, CZ, SWAP, and any 1q Clifford unitary)",
        }
    }

    fn supports_circuit(&self, circuit: &Circuit) -> Result<(), SimError> {
        match first_non_clifford(circuit) {
            None => Ok(()),
            Some(gate) => Err(SimError::UnsupportedGate {
                gate: gate.to_string(),
                backend: "stabilizer",
            }),
        }
    }

    fn circuits_equivalent(
        &self,
        a: &Circuit,
        b: &Circuit,
        trials: usize,
        seed: u64,
    ) -> Result<bool, SimError> {
        if a.num_qubits() != b.num_qubits() {
            return Err(SimError::WidthMismatch {
                expected: a.num_qubits(),
                actual: b.num_qubits(),
            });
        }
        let identity: Vec<usize> = (0..a.num_qubits()).collect();
        self.compiled_equivalent(a, b, &identity, &identity, trials, seed)
    }

    fn compiled_equivalent(
        &self,
        original: &Circuit,
        compiled: &Circuit,
        initial_layout: &[usize],
        final_layout: &[usize],
        trials: usize,
        seed: u64,
    ) -> Result<bool, SimError> {
        let n_log = original.num_qubits();
        let n_phys = compiled.num_qubits();
        for layout in [initial_layout, final_layout] {
            if layout.len() != n_log {
                return Err(SimError::WidthMismatch {
                    expected: n_log,
                    actual: layout.len(),
                });
            }
            if layout.iter().any(|&p| p >= n_phys) {
                return Err(SimError::WidthMismatch {
                    expected: n_phys,
                    actual: layout.iter().copied().max().unwrap_or(0) + 1,
                });
            }
        }
        self.supports_circuit(original)?;
        self.supports_circuit(compiled)?;

        for t in 0..trials.max(1) {
            let prep = random_clifford_prep(n_log, seed.wrapping_add(t as u64));

            // Compiled side: prep embedded through the initial layout,
            // then the physical circuit verbatim.
            let mut got = Tableau::new(n_phys);
            got.apply_circuit_mapped(&prep, initial_layout)?;
            got.apply_circuit(compiled)?;

            // Reference side: prep and original both embedded through the
            // final layout (embedding commutes with circuit application;
            // unmapped physical qubits stay |0⟩ on both sides).
            let mut expected = Tableau::new(n_phys);
            expected.apply_circuit_mapped(&prep, final_layout)?;
            expected.apply_circuit_mapped(original, final_layout)?;

            if !got.state_eq(&expected) {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// Picks a backend for verifying `circuits` on a `width`-qubit register:
/// stabilizer when every circuit is Clifford (exact and effectively free
/// at any width), else dense while `width ≤ max_dense_qubits`, else
/// sparse with the given `max_terms` budget, else `None` (equivalence
/// must be skipped). A sparse pick can still abort mid-check with
/// [`SimError::StateTooDense`] if the circuits entangle past the budget.
pub fn auto_backend(
    width: usize,
    circuits: &[&Circuit],
    max_dense_qubits: usize,
    max_terms: usize,
) -> Option<Box<dyn Simulator>> {
    let stab = StabilizerSimulator::new();
    if circuits.iter().all(|c| stab.supports_circuit(c).is_ok()) {
        return Some(Box::new(stab));
    }
    if width <= max_dense_qubits.min(MAX_QUBITS) {
        return Some(Box::new(DenseSimulator::default()));
    }
    let sparse = SparseSimulator::with_max_terms(max_terms);
    if circuits.iter().all(|c| sparse.supports_circuit(c).is_ok()) {
        return Some(Box::new(sparse));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parses_and_displays() {
        for (s, b) in [
            ("auto", Backend::Auto),
            ("dense", Backend::Dense),
            ("stabilizer", Backend::Stabilizer),
            ("sparse", Backend::Sparse),
        ] {
            assert_eq!(s.parse::<Backend>().unwrap(), b);
            assert_eq!(b.to_string(), s);
        }
        assert!("statevector".parse::<Backend>().is_err());
    }

    #[test]
    fn capabilities_describe_backends() {
        assert_eq!(DenseSimulator::default().capability().name, "dense");
        assert_eq!(
            DenseSimulator::default().capability().max_qubits,
            Some(MAX_QUBITS)
        );
        assert_eq!(StabilizerSimulator::new().capability().max_qubits, None);
    }

    #[test]
    fn support_checks_report_the_obstacle() {
        let mut t_circ = Circuit::new(2);
        t_circ.h(0).t(0).cx(0, 1);
        assert!(DenseSimulator::default().supports_circuit(&t_circ).is_ok());
        assert!(matches!(
            StabilizerSimulator::new().supports_circuit(&t_circ),
            Err(SimError::UnsupportedGate { .. })
        ));
        let wide = Circuit::new(MAX_QUBITS + 4);
        assert!(matches!(
            DenseSimulator::default().supports_circuit(&wide),
            Err(SimError::TooManyQubits { .. })
        ));
        assert!(StabilizerSimulator::new().supports_circuit(&wide).is_ok());
    }

    #[test]
    fn both_backends_agree_on_a_clifford_pair() {
        // CZ = H(t)·CX·H(t): equivalent; CZ vs CX: not.
        let mut cz = Circuit::new(2);
        cz.cz(0, 1);
        let mut hch = Circuit::new(2);
        hch.h(1).cx(0, 1).h(1);
        let mut cx = Circuit::new(2);
        cx.cx(0, 1);
        for sim in [
            Box::new(DenseSimulator::default()) as Box<dyn Simulator>,
            Box::new(StabilizerSimulator::new()),
        ] {
            let name = sim.capability().name;
            assert!(
                sim.circuits_equivalent(&cz, &hch, 4, 11).unwrap(),
                "{name} rejected an equivalent pair"
            );
            assert!(
                !sim.circuits_equivalent(&cz, &cx, 4, 11).unwrap(),
                "{name} accepted an inequivalent pair"
            );
        }
    }

    #[test]
    fn stabilizer_compiled_equivalence_handles_routing_swaps() {
        // Same scenario the dense tests pin: CX(0,1) compiled with a SWAP
        // that moves logical 1 from phys 2 to phys 1.
        let mut original = Circuit::new(2);
        original.cx(0, 1);
        let mut compiled = Circuit::new(3);
        compiled.swap(2, 1).cx(0, 1);
        let sim = StabilizerSimulator::new();
        assert!(sim
            .compiled_equivalent(&original, &compiled, &[0, 2], &[0, 1], 4, 5)
            .unwrap());
        // Claiming data did not move must fail.
        assert!(!sim
            .compiled_equivalent(&original, &compiled, &[0, 2], &[0, 2], 4, 5)
            .unwrap());
    }

    #[test]
    fn stabilizer_detects_a_dropped_gate_at_scale() {
        // 60-qubit line-routed GHZ-ish circuit with one CX removed: the
        // tableau check must notice, far beyond dense reach.
        let n = 60;
        let mut full = Circuit::new(n);
        full.h(0);
        for q in 1..n {
            full.cx(q - 1, q);
        }
        let missing_instrs: Vec<_> = full.iter().take(n - 1).cloned().collect();
        let missing = Circuit::from_instructions(n, missing_instrs).unwrap();
        let identity: Vec<usize> = (0..n).collect();
        let sim = StabilizerSimulator::new();
        assert!(sim
            .compiled_equivalent(&full, &full, &identity, &identity, 2, 3)
            .unwrap());
        assert!(!sim
            .compiled_equivalent(&full, &missing, &identity, &identity, 4, 3)
            .unwrap());
    }

    #[test]
    fn auto_backend_picks_by_gate_set_then_width() {
        let mut cliff = Circuit::new(20);
        cliff.h(0).cx(0, 1);
        let mut t_circ = Circuit::new(20);
        t_circ.h(0).t(0);
        let mut small_t = Circuit::new(4);
        small_t.t(0);
        let budget = crate::DEFAULT_MAX_TERMS;

        // All-Clifford pairs go to the stabilizer at *any* width — even
        // ones a dense simulation could also handle.
        let stab = auto_backend(20, &[&cliff], 8, budget).unwrap();
        assert_eq!(stab.capability().name, "stabilizer");
        let stab_small = auto_backend(4, &[&Circuit::new(4)], 8, budget).unwrap();
        assert_eq!(stab_small.capability().name, "stabilizer");

        // Non-Clifford under the dense cap: dense.
        let dense = auto_backend(4, &[&small_t], 8, budget).unwrap();
        assert_eq!(dense.capability().name, "dense");

        // Non-Clifford past the dense cap: sparse, not a skip.
        let sparse = auto_backend(20, &[&cliff, &t_circ], 8, budget).unwrap();
        assert_eq!(sparse.capability().name, "sparse");
    }

    #[test]
    fn random_prep_is_deterministic_per_seed() {
        let a = random_clifford_prep(6, 9);
        let b = random_clifford_prep(6, 9);
        let c = random_clifford_prep(6, 10);
        assert_eq!(a.instructions(), b.instructions());
        assert_ne!(a.instructions(), c.instructions());
        assert!(first_non_clifford(&a).is_none());
    }

    #[test]
    fn single_qubit_prep_avoids_cx() {
        let c = random_clifford_prep(1, 4);
        assert!(c.iter().all(|i| i.qubits().len() == 1));
    }
}
