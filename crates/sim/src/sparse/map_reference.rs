//! The hash-map kernel [`SparseState`](super::SparseState) replaced,
//! kept verbatim as a test-only reference: every permutation gate
//! rebuilt a fresh `HashMap<Key, C64>`, every superposing gate walked
//! pairs into a second one. The differential tests in `super::tests`
//! pin the flat term list to it bit for bit.

use super::{
    key_bit, key_flip, FxHasher, Key, DEFAULT_MAX_TERMS, PRUNE_NORM_SQR, SPARSE_MAX_QUBITS,
    ZERO_KEY,
};
use crate::{single_qubit_matrix, xpow_matrix, Mat2, SimError, C64};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use trios_ir::{Circuit, Gate, Instruction, Qubit};

type FxBuildHasher = BuildHasherDefault<FxHasher>;
type TermMap = HashMap<Key, C64, FxBuildHasher>;

fn term_map(capacity: usize) -> TermMap {
    TermMap::with_capacity_and_hasher(capacity, FxBuildHasher::default())
}

/// A statevector stored as a map from basis index to nonzero amplitude.
#[derive(Debug, Clone)]
pub struct MapState {
    num_qubits: usize,
    terms: TermMap,
    max_terms: usize,
}

impl MapState {
    /// The all-zeros computational basis state |0…0⟩ on `num_qubits`
    /// qubits, with the default term budget.
    ///
    /// # Errors
    ///
    /// [`SimError::TooManyQubits`] past [`SPARSE_MAX_QUBITS`].
    pub fn zero(num_qubits: usize) -> Result<Self, SimError> {
        if num_qubits > SPARSE_MAX_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: num_qubits,
                max: SPARSE_MAX_QUBITS,
            });
        }
        let mut terms = term_map(1);
        terms.insert(ZERO_KEY, C64::ONE);
        Ok(MapState {
            num_qubits,
            terms,
            max_terms: DEFAULT_MAX_TERMS,
        })
    }

    /// Replaces the nonzero-amplitude budget.
    #[must_use]
    pub fn with_max_terms(mut self, max_terms: usize) -> Self {
        self.max_terms = max_terms.max(1);
        self
    }

    /// Current number of stored nonzero amplitudes.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// The dense amplitude vector, for cross-checking against [`State`]
    /// in tests and benches.
    ///
    /// [`State`]: crate::State
    ///
    /// # Errors
    ///
    /// [`SimError::TooManyQubits`] when 2^n does not fit in memory
    /// (width over [`MAX_QUBITS`](crate::MAX_QUBITS)).
    pub fn dense_amplitudes(&self) -> Result<Vec<C64>, SimError> {
        if self.num_qubits > crate::MAX_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: self.num_qubits,
                max: crate::MAX_QUBITS,
            });
        }
        let mut amps = vec![C64::ZERO; 1usize << self.num_qubits];
        for (key, &amp) in &self.terms {
            amps[key[0] as usize] = amp;
        }
        Ok(amps)
    }

    /// Applies all unitary instructions of `circuit`, skipping
    /// measurements (mirroring [`State::apply_circuit`]).
    ///
    /// [`State::apply_circuit`]: crate::State::apply_circuit
    ///
    /// # Errors
    ///
    /// [`SimError::WidthMismatch`] if the circuit is wider than the state,
    /// [`SimError::StateTooDense`] when a gate pushes the nonzero-term
    /// count past the budget, [`SimError::UnsupportedGate`] for gates
    /// without a unitary action.
    pub fn apply_circuit(&mut self, circuit: &Circuit) -> Result<(), SimError> {
        if circuit.num_qubits() > self.num_qubits {
            return Err(SimError::WidthMismatch {
                expected: self.num_qubits,
                actual: circuit.num_qubits(),
            });
        }
        for instr in circuit.iter() {
            if instr.gate().is_measurement() {
                continue;
            }
            self.try_apply(instr)?;
        }
        Ok(())
    }

    /// Applies `circuit` with logical qubit `q` acting on physical qubit
    /// `map[q]`, skipping measurements. Mirrors
    /// [`Tableau::apply_circuit_mapped`](crate::Tableau::apply_circuit_mapped).
    ///
    /// # Errors
    ///
    /// [`SimError::WidthMismatch`] for a short or out-of-range map, plus
    /// anything [`MapState::try_apply`] reports.
    pub fn apply_circuit_mapped(
        &mut self,
        circuit: &Circuit,
        map: &[usize],
    ) -> Result<(), SimError> {
        if map.len() < circuit.num_qubits() {
            return Err(SimError::WidthMismatch {
                expected: circuit.num_qubits(),
                actual: map.len(),
            });
        }
        if map.iter().any(|&p| p >= self.num_qubits) {
            return Err(SimError::WidthMismatch {
                expected: self.num_qubits,
                actual: map.iter().copied().max().unwrap_or(0) + 1,
            });
        }
        for instr in circuit.iter() {
            if instr.gate().is_measurement() {
                continue;
            }
            let mapped: Vec<Qubit> = instr
                .qubits()
                .iter()
                .map(|q| Qubit::new(map[q.index()]))
                .collect();
            self.try_apply(&Instruction::new(instr.gate(), &mapped))?;
        }
        Ok(())
    }

    /// Applies one unitary instruction.
    ///
    /// Diagonal and permutation gates (the bulk of routed Toffoli
    /// networks) never grow the term count; superposing gates (H, Y, √X,
    /// rotations, controlled powers) at most double it and are followed by
    /// a budget check.
    ///
    /// # Errors
    ///
    /// [`SimError::WidthMismatch`] for out-of-range qubits,
    /// [`SimError::UnsupportedGate`] for measurements or gates without a
    /// matrix, [`SimError::StateTooDense`] past the term budget.
    pub fn try_apply(&mut self, instr: &Instruction) -> Result<(), SimError> {
        let qs = instr.qubits();
        for q in qs {
            if q.index() >= self.num_qubits {
                return Err(SimError::WidthMismatch {
                    expected: self.num_qubits,
                    actual: q.index() + 1,
                });
            }
        }
        let q = |i: usize| qs[i].index();
        match instr.gate() {
            Gate::Measure => Err(SimError::UnsupportedGate {
                gate: instr.gate().to_string(),
                backend: "sparse",
            }),
            Gate::I => Ok(()),
            Gate::X => {
                self.permute(|key| key_flip(key, q(0)));
                Ok(())
            }
            Gate::Cx => {
                let (c, t) = (q(0), q(1));
                self.permute(|key| {
                    if key_bit(&key, c) {
                        key_flip(key, t)
                    } else {
                        key
                    }
                });
                Ok(())
            }
            Gate::Ccx => {
                let (c1, c2, t) = (q(0), q(1), q(2));
                self.permute(|key| {
                    if key_bit(&key, c1) && key_bit(&key, c2) {
                        key_flip(key, t)
                    } else {
                        key
                    }
                });
                Ok(())
            }
            Gate::Swap => {
                let (a, b) = (q(0), q(1));
                self.permute(|key| {
                    if key_bit(&key, a) != key_bit(&key, b) {
                        key_flip(key_flip(key, a), b)
                    } else {
                        key
                    }
                });
                Ok(())
            }
            Gate::Cswap => {
                let (c, a, b) = (q(0), q(1), q(2));
                self.permute(|key| {
                    if key_bit(&key, c) && key_bit(&key, a) != key_bit(&key, b) {
                        key_flip(key_flip(key, a), b)
                    } else {
                        key
                    }
                });
                Ok(())
            }
            Gate::Z => {
                self.phase_where(&[q(0)], -C64::ONE);
                Ok(())
            }
            Gate::S => {
                self.phase_where(&[q(0)], C64::I);
                Ok(())
            }
            Gate::Sdg => {
                self.phase_where(&[q(0)], -C64::I);
                Ok(())
            }
            Gate::T => {
                self.phase_where(&[q(0)], C64::cis(std::f64::consts::FRAC_PI_4));
                Ok(())
            }
            Gate::Tdg => {
                self.phase_where(&[q(0)], C64::cis(-std::f64::consts::FRAC_PI_4));
                Ok(())
            }
            Gate::U1(l) => {
                self.phase_where(&[q(0)], C64::cis(l));
                Ok(())
            }
            Gate::Cz => {
                self.phase_where(&[q(0), q(1)], -C64::ONE);
                Ok(())
            }
            Gate::Cp(l) => {
                self.phase_where(&[q(0), q(1)], C64::cis(l));
                Ok(())
            }
            Gate::Ccz => {
                self.phase_where(&[q(0), q(1), q(2)], -C64::ONE);
                Ok(())
            }
            Gate::Cxpow(t) => {
                let m = xpow_matrix(t);
                self.apply_controlled_1q(q(0), q(1), &m)
            }
            g => match single_qubit_matrix(g) {
                Some(m) => self.apply_1q(q(0), &m),
                None => Err(SimError::UnsupportedGate {
                    gate: g.to_string(),
                    backend: "sparse",
                }),
            },
        }
    }

    /// Rewrites every basis index through the bijection `f` (X/CX/CCX/
    /// SWAP/CSWAP). Term count is preserved exactly.
    fn permute(&mut self, f: impl Fn(Key) -> Key) {
        let mut out = term_map(self.terms.len());
        for (key, amp) in self.terms.drain() {
            out.insert(f(key), amp);
        }
        self.terms = out;
    }

    /// Multiplies the amplitude of every basis state with all of `qubits`
    /// set by `phase` (Z/S/T/U1/CZ/CP/CCZ). Term count is preserved.
    fn phase_where(&mut self, qubits: &[usize], phase: C64) {
        for (key, amp) in self.terms.iter_mut() {
            if qubits.iter().all(|&q| key_bit(key, q)) {
                *amp *= phase;
            }
        }
    }

    /// General single-qubit gate: walks each touched |…0…⟩/|…1…⟩ pair
    /// once and rebuilds the map. A diagonal matrix short-circuits to an
    /// in-place scale.
    fn apply_1q(&mut self, q: usize, m: &Mat2) -> Result<(), SimError> {
        if m[0][1].norm_sqr() < PRUNE_NORM_SQR && m[1][0].norm_sqr() < PRUNE_NORM_SQR {
            let (m00, m11) = (m[0][0], m[1][1]);
            for (key, amp) in self.terms.iter_mut() {
                *amp *= if key_bit(key, q) { m11 } else { m00 };
            }
            return Ok(());
        }
        let mut out = term_map(self.terms.len().saturating_mul(2));
        for (&key, &amp) in &self.terms {
            let set = key_bit(&key, q);
            let lo = if set { key_flip(key, q) } else { key };
            if set && self.terms.contains_key(&lo) {
                continue; // this pair is handled from its |…0…⟩ member
            }
            let hi = key_flip(lo, q);
            let (a0, a1) = if set {
                (C64::ZERO, amp)
            } else {
                (amp, self.terms.get(&hi).copied().unwrap_or(C64::ZERO))
            };
            let n0 = m[0][0] * a0 + m[0][1] * a1;
            let n1 = m[1][0] * a0 + m[1][1] * a1;
            if n0.norm_sqr() >= PRUNE_NORM_SQR {
                out.insert(lo, n0);
            }
            if n1.norm_sqr() >= PRUNE_NORM_SQR {
                out.insert(hi, n1);
            }
        }
        self.terms = out;
        self.check_budget()
    }

    /// Controlled general single-qubit gate on target `t`: terms with the
    /// control clear pass through; the control-set subspace gets the pair
    /// walk of [`MapState::apply_1q`].
    fn apply_controlled_1q(&mut self, c: usize, t: usize, m: &Mat2) -> Result<(), SimError> {
        let mut out = term_map(self.terms.len().saturating_mul(2));
        for (&key, &amp) in &self.terms {
            if !key_bit(&key, c) {
                out.insert(key, amp);
                continue;
            }
            let set = key_bit(&key, t);
            let lo = if set { key_flip(key, t) } else { key };
            if set && self.terms.contains_key(&lo) {
                continue; // lo also has the control set: handled there
            }
            let hi = key_flip(lo, t);
            let (a0, a1) = if set {
                (C64::ZERO, amp)
            } else {
                (amp, self.terms.get(&hi).copied().unwrap_or(C64::ZERO))
            };
            let n0 = m[0][0] * a0 + m[0][1] * a1;
            let n1 = m[1][0] * a0 + m[1][1] * a1;
            if n0.norm_sqr() >= PRUNE_NORM_SQR {
                out.insert(lo, n0);
            }
            if n1.norm_sqr() >= PRUNE_NORM_SQR {
                out.insert(hi, n1);
            }
        }
        self.terms = out;
        self.check_budget()
    }

    fn check_budget(&self) -> Result<(), SimError> {
        if self.terms.len() > self.max_terms {
            Err(SimError::StateTooDense {
                terms: self.terms.len(),
                max_terms: self.max_terms,
            })
        } else {
            Ok(())
        }
    }

    /// `true` when the two states are equal up to a global phase, with
    /// per-amplitude tolerance `eps`. The reference phase comes from
    /// `other`'s largest amplitude (ties broken by smallest basis index),
    /// so the verdict does not depend on hash-map iteration order.
    pub fn approx_eq_up_to_phase(&self, other: &MapState, eps: f64) -> bool {
        if self.num_qubits != other.num_qubits {
            return false;
        }
        let mut reference: Option<(&Key, C64)> = None;
        for (key, &amp) in &other.terms {
            reference = match reference {
                None => Some((key, amp)),
                Some((bk, ba)) => {
                    let d = amp.norm_sqr() - ba.norm_sqr();
                    if d > 0.0 || (d == 0.0 && key < bk) {
                        Some((key, amp))
                    } else {
                        Some((bk, ba))
                    }
                }
            };
        }
        let Some((rk, ra)) = reference else {
            // `other` is (numerically) the zero vector: equal only if we
            // are too.
            return self.terms.values().all(|a| a.abs() < eps);
        };
        let ours = self.terms.get(rk).copied().unwrap_or(C64::ZERO);
        let phase = ours / ra;
        if (phase.abs() - 1.0).abs() > eps {
            return false;
        }
        for (key, &amp) in &self.terms {
            let theirs = other.terms.get(key).copied().unwrap_or(C64::ZERO);
            if !(amp - theirs * phase).abs().is_finite() || (amp - theirs * phase).abs() > eps {
                return false;
            }
        }
        for (key, &amp) in &other.terms {
            if !self.terms.contains_key(key) && amp.abs() > eps {
                return false;
            }
        }
        true
    }
}
