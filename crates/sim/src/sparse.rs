//! Sparse statevector simulation: a flat list of nonzero amplitudes.
//!
//! The dense backend caps out at [`MAX_QUBITS`](crate::MAX_QUBITS) because
//! it materializes all 2^n amplitudes; the stabilizer backend scales to
//! hundreds of qubits but only speaks Clifford. The paper's workloads —
//! ripple-carry adders, Toffoli networks, CnX ladders — are non-Clifford
//! yet *low-entanglement*: pushed through from a basis-ish input they keep
//! a tiny number of nonzero amplitudes at any register width. This module
//! exploits that: [`SparseState`] stores only the nonzero terms, as a flat
//! list of (basis index, amplitude) pairs, and [`SparseSimulator`]
//! verifies compiled circuits exactly at full device width (Johannesburg's
//! 20 qubits, 127-qubit heavy-hex) as long as the term count stays under
//! a [`max_terms`] budget. When a circuit *does* entangle past the budget
//! the simulator reports [`SimError::StateTooDense`] instead of thrashing
//! — never a wrong verdict.
//!
//! Gates run by class. Permutation gates (X, CX, CCX, SWAP, CSWAP)
//! rewrite basis indices in place: a bijection keeps them unique.
//! Diagonal gates (Z, S, T, U1, CZ, CP, CCZ, diagonal single-qubit
//! matrices) scale amplitudes in place. Neither hashes nor allocates, and
//! together they are the bulk of a routed Toffoli network. Only
//! superposing gates (general single-qubit matrices, controlled powers)
//! pair each |…0…⟩ term with its |…1…⟩ partner, through a scratch index
//! the state reuses from gate to gate.
//!
//! Keys are 256-bit basis indices (`[u64; 4]`), hashed with a vendored
//! Fx-style multiply hasher so behaviour is fully deterministic for a
//! given seed; registers wider than [`SPARSE_MAX_QUBITS`] are handled by
//! compacting onto the qubits a cell actually touches (routed circuits on
//! kiloqubit devices use a small fraction of the register).
//!
//! [`max_terms`]: SparseState::max_terms

use crate::state::SplitMix64;
use crate::{single_qubit_matrix, xpow_matrix, Capability, Mat2, SimError, Simulator, C64};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use trios_ir::{Circuit, Gate, Instruction, Qubit};

#[cfg(test)]
mod map_reference;

/// Widest register a [`SparseState`] can hold directly (the basis-index
/// key is 4×64 bits). [`SparseSimulator`] stretches past this for routed
/// circuits by compacting onto the touched qubits.
pub const SPARSE_MAX_QUBITS: usize = KEY_WORDS * 64;

/// Default nonzero-amplitude budget (~one million terms, comparable in
/// memory to a 20-qubit dense state).
pub const DEFAULT_MAX_TERMS: usize = 1 << 20;

const KEY_WORDS: usize = 4;

/// A 256-bit basis index, little-endian in both words and bits.
type Key = [u64; KEY_WORDS];

const ZERO_KEY: Key = [0; KEY_WORDS];

/// Amplitudes with squared magnitude below this are dropped after each
/// non-permutation gate; interference residue (e.g. the re-merged branches
/// of a decomposed Toffoli's H…H sandwich) sits at ~1e-16, far below any
/// comparison tolerance.
const PRUNE_NORM_SQR: f64 = 1e-28;

/// Partner slot of a term whose pair has only one member present.
const UNPAIRED: usize = usize::MAX;

#[inline]
fn key_bit(key: &Key, q: usize) -> bool {
    key[q / 64] >> (q % 64) & 1 == 1
}

#[inline]
fn key_flip(mut key: Key, q: usize) -> Key {
    key[q / 64] ^= 1 << (q % 64);
    key
}

#[inline]
fn key_clear(mut key: Key, q: usize) -> Key {
    key[q / 64] &= !(1 << (q % 64));
    key
}

/// FxHash-style multiply hasher (vendored: the crate is dependency-free).
/// Unlike `RandomState` it is *deterministic*, so sparse-state behaviour
/// is byte-identical across runs for a given seed.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    /// Whole 8-byte words at a time (a `[u64; 4]` key arrives here as one
    /// 32-byte slice), then any tail byte by byte.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

type FxHashMap<V> = HashMap<Key, V, BuildHasherDefault<FxHasher>>;

/// A statevector stored as a flat list of its nonzero amplitudes.
#[derive(Debug, Clone)]
pub struct SparseState {
    num_qubits: usize,
    /// Nonzero terms, unique by basis index, in no meaningful order.
    terms: Vec<(Key, C64)>,
    max_terms: usize,
    /// Superposing-gate scratch, reused from gate to gate: the first
    /// position in `terms` seen for each |…0…⟩ pair key …
    pair_index: FxHashMap<usize>,
    /// … and each term's partner position, or [`UNPAIRED`].
    partner: Vec<usize>,
}

impl SparseState {
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
        Ok(SparseState {
            num_qubits,
            terms: vec![(ZERO_KEY, C64::ONE)],
            max_terms: DEFAULT_MAX_TERMS,
            pair_index: FxHashMap::default(),
            partner: Vec::new(),
        })
    }

    /// Replaces the nonzero-amplitude budget.
    #[must_use]
    pub fn with_max_terms(mut self, max_terms: usize) -> Self {
        self.max_terms = max_terms.max(1);
        self
    }

    /// Register width.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Current number of stored nonzero amplitudes.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// The nonzero-amplitude budget.
    pub fn max_terms(&self) -> usize {
        self.max_terms
    }

    /// The amplitude of basis state `index` (zero when absent). Only the
    /// low 64 bits of the basis index are addressable through this
    /// convenience form; it exists for tests and benches on ≤64 qubits.
    pub fn amplitude(&self, index: u64) -> C64 {
        let mut key = ZERO_KEY;
        key[0] = index;
        self.amplitude_at(&key)
    }

    /// The amplitude stored for `key`, by linear scan (zero when absent).
    fn amplitude_at(&self, key: &Key) -> C64 {
        self.terms
            .iter()
            .find(|(k, _)| k == key)
            .map_or(C64::ZERO, |&(_, amp)| amp)
    }

    /// The ℓ² norm (1 for any valid quantum state, up to pruning residue).
    pub fn norm(&self) -> f64 {
        self.terms
            .iter()
            .map(|(_, a)| a.norm_sqr())
            .sum::<f64>()
            .sqrt()
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
        for &(key, amp) in &self.terms {
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
    /// anything [`SparseState::try_apply`] reports.
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
            self.try_apply(&instr.map_qubits(|q| Qubit::new(map[q.index()])))?;
        }
        Ok(())
    }

    /// Applies one unitary instruction.
    ///
    /// Diagonal and permutation gates (the bulk of routed Toffoli
    /// networks) run in place and never change the term count;
    /// superposing gates (H, Y, √X, rotations, controlled powers) at most
    /// double it and are followed by a budget check.
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
                let (c, target) = (q(0), q(1));
                self.pair_walk(target, &xpow_matrix(t), |key| key_bit(key, c))
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
    /// SWAP/CSWAP), in place: a bijection keeps the keys unique, so the
    /// term count is preserved exactly.
    fn permute(&mut self, f: impl Fn(Key) -> Key) {
        for (key, _) in &mut self.terms {
            *key = f(*key);
        }
    }

    /// Multiplies the amplitude of every basis state with all of `qubits`
    /// set by `phase` (Z/S/T/U1/CZ/CP/CCZ). Term count is preserved.
    fn phase_where(&mut self, qubits: &[usize], phase: C64) {
        for (key, amp) in &mut self.terms {
            if qubits.iter().all(|&q| key_bit(key, q)) {
                *amp *= phase;
            }
        }
    }

    /// General single-qubit gate. A diagonal matrix short-circuits to an
    /// in-place scale; anything else pair-walks every term.
    fn apply_1q(&mut self, q: usize, m: &Mat2) -> Result<(), SimError> {
        if m[0][1].norm_sqr() < PRUNE_NORM_SQR && m[1][0].norm_sqr() < PRUNE_NORM_SQR {
            let (m00, m11) = (m[0][0], m[1][1]);
            for (key, amp) in &mut self.terms {
                *amp *= if key_bit(key, q) { m11 } else { m00 };
            }
            return Ok(());
        }
        self.pair_walk(q, m, |_| true)
    }

    /// Applies `m` on qubit `q` to the terms `in_scope` selects (all of
    /// them, or a controlled gate's control-set subspace; flipping `q`
    /// never leaves it). Each |…0…⟩/|…1…⟩ pair is updated once, in place;
    /// a missing partner is appended. Touched terms that cancel below the
    /// prune threshold are dropped, then the budget is checked.
    fn pair_walk(
        &mut self,
        q: usize,
        m: &Mat2,
        in_scope: impl Fn(&Key) -> bool,
    ) -> Result<(), SimError> {
        let n = self.terms.len();
        self.pair_index.clear();
        self.partner.clear();
        self.partner.resize(n, UNPAIRED);
        for (i, (key, _)) in self.terms.iter().enumerate() {
            if !in_scope(key) {
                continue;
            }
            match self.pair_index.entry(key_clear(*key, q)) {
                Entry::Vacant(slot) => {
                    slot.insert(i);
                }
                Entry::Occupied(slot) => {
                    let j = *slot.get();
                    self.partner[i] = j;
                    self.partner[j] = i;
                }
            }
        }
        for i in 0..n {
            let (key, amp) = self.terms[i];
            if !in_scope(&key) {
                continue;
            }
            let set = key_bit(&key, q);
            let j = self.partner[i];
            if set && j != UNPAIRED {
                continue; // this pair is handled from its |…0…⟩ member
            }
            let (a0, a1) = match (set, j) {
                (true, _) => (C64::ZERO, amp),
                (false, UNPAIRED) => (amp, C64::ZERO),
                (false, j) => (amp, self.terms[j].1),
            };
            let n0 = m[0][0] * a0 + m[0][1] * a1;
            let n1 = m[1][0] * a0 + m[1][1] * a1;
            let (here, there) = if set { (n1, n0) } else { (n0, n1) };
            self.terms[i].1 = here;
            if j == UNPAIRED {
                self.terms.push((key_flip(key, q), there));
            } else {
                self.terms[j].1 = there;
            }
        }
        self.terms
            .retain(|(key, amp)| !in_scope(key) || amp.norm_sqr() >= PRUNE_NORM_SQR);
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
    /// so the verdict does not depend on either list's term order.
    pub fn approx_eq_up_to_phase(&self, other: &SparseState, eps: f64) -> bool {
        if self.num_qubits != other.num_qubits {
            return false;
        }
        let mut reference: Option<(&Key, C64)> = None;
        for (key, amp) in &other.terms {
            reference = match reference {
                None => Some((key, *amp)),
                Some((bk, ba)) => {
                    let d = amp.norm_sqr() - ba.norm_sqr();
                    if d > 0.0 || (d == 0.0 && key < bk) {
                        Some((key, *amp))
                    } else {
                        Some((bk, ba))
                    }
                }
            };
        }
        let Some((rk, ra)) = reference else {
            // `other` is (numerically) the zero vector: equal only if we
            // are too.
            return self.terms.iter().all(|(_, a)| a.abs() < eps);
        };
        let phase = self.amplitude_at(rk) / ra;
        if (phase.abs() - 1.0).abs() > eps {
            return false;
        }
        let mut theirs_at: FxHashMap<usize> =
            FxHashMap::with_capacity_and_hasher(other.terms.len(), Default::default());
        theirs_at.extend(other.terms.iter().enumerate().map(|(j, (k, _))| (*k, j)));
        let mut matched = vec![false; other.terms.len()];
        for (key, amp) in &self.terms {
            let theirs = match theirs_at.get(key) {
                Some(&j) => {
                    matched[j] = true;
                    other.terms[j].1
                }
                None => C64::ZERO,
            };
            let diff = (*amp - theirs * phase).abs();
            if !diff.is_finite() || diff > eps {
                return false;
            }
        }
        other
            .terms
            .iter()
            .zip(&matched)
            .all(|((_, amp), &seen)| seen || amp.abs() <= eps)
    }
}

/// Sparse-statevector backend: any unitary gate, any width up to
/// [`SPARSE_MAX_QUBITS`] (and wider routed registers via compaction onto
/// the touched qubits), as long as the nonzero-amplitude count stays
/// under [`SparseSimulator::max_terms`].
///
/// Equivalence trials prepare a seeded low-entanglement input — random
/// bit flips, H on a handful of qubits, then a random word of
/// term-preserving S/T/CX mixing — so superpositions and relative phases
/// are both exercised while the input itself stays at ≤ 256 terms.
#[derive(Debug, Clone, Copy)]
pub struct SparseSimulator {
    /// Amplitude tolerance for equivalence comparisons.
    pub eps: f64,
    /// Nonzero-amplitude budget per simulated state.
    pub max_terms: usize,
}

impl Default for SparseSimulator {
    fn default() -> Self {
        SparseSimulator {
            eps: 1e-9,
            max_terms: DEFAULT_MAX_TERMS,
        }
    }
}

impl SparseSimulator {
    /// A sparse backend with the given tolerance and term budget.
    pub fn new(eps: f64, max_terms: usize) -> Self {
        SparseSimulator { eps, max_terms }
    }

    /// A sparse backend with the default tolerance and the given budget.
    pub fn with_max_terms(max_terms: usize) -> Self {
        SparseSimulator {
            max_terms,
            ..SparseSimulator::default()
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the Simulator::compiled_equivalent shape
    fn run_layout_trials(
        &self,
        original: &Circuit,
        compiled: &Circuit,
        initial_layout: &[usize],
        final_layout: &[usize],
        n_phys: usize,
        trials: usize,
        seed: u64,
    ) -> Result<bool, SimError> {
        let n_log = original.num_qubits();
        for t in 0..trials.max(1) {
            let prep = random_sparse_prep(n_log, seed.wrapping_add(t as u64));

            // Compiled side: prep embedded through the initial layout,
            // then the physical circuit verbatim.
            let mut got = SparseState::zero(n_phys)?.with_max_terms(self.max_terms);
            got.apply_circuit_mapped(&prep, initial_layout)?;
            got.apply_circuit(compiled)?;

            // Reference side: prep and original both embedded through the
            // final layout (embedding commutes with circuit application;
            // unmapped physical qubits stay |0⟩ on both sides).
            let mut expected = SparseState::zero(n_phys)?.with_max_terms(self.max_terms);
            expected.apply_circuit_mapped(&prep, final_layout)?;
            expected.apply_circuit_mapped(original, final_layout)?;

            if !got.approx_eq_up_to_phase(&expected, self.eps) {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

impl Simulator for SparseSimulator {
    fn capability(&self) -> Capability {
        Capability {
            name: "sparse",
            max_qubits: None,
            gate_set: "any unitary gate, while nonzero amplitudes stay under the term budget",
        }
    }

    fn supports_circuit(&self, circuit: &Circuit) -> Result<(), SimError> {
        if circuit.num_qubits() <= SPARSE_MAX_QUBITS {
            return Ok(());
        }
        // Wider registers are fine as long as the circuit touches few
        // enough qubits to compact onto a direct sparse register.
        let active = circuit.active_qubits().len();
        if active <= SPARSE_MAX_QUBITS {
            Ok(())
        } else {
            Err(SimError::TooManyQubits {
                requested: active,
                max: SPARSE_MAX_QUBITS,
            })
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
        let n = a.num_qubits();
        if n <= SPARSE_MAX_QUBITS {
            let identity: Vec<usize> = (0..n).collect();
            return self.run_layout_trials(a, b, &identity, &identity, n, trials, seed);
        }
        // Compact onto the union of touched qubits; both circuits act as
        // the identity on the rest.
        let mut used = vec![false; n];
        for circuit in [a, b] {
            for q in circuit.active_qubits() {
                used[q] = true;
            }
        }
        let (active, compact) = compaction(&used);
        if active.len() > SPARSE_MAX_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: active.len(),
                max: SPARSE_MAX_QUBITS,
            });
        }
        let a_c = remap_for_compaction(a, active.len(), &compact)?;
        let b_c = remap_for_compaction(b, active.len(), &compact)?;
        let identity: Vec<usize> = (0..active.len()).collect();
        self.run_layout_trials(&a_c, &b_c, &identity, &identity, active.len(), trials, seed)
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
        if n_log > SPARSE_MAX_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: n_log,
                max: SPARSE_MAX_QUBITS,
            });
        }
        if n_phys <= SPARSE_MAX_QUBITS {
            return self.run_layout_trials(
                original,
                compiled,
                initial_layout,
                final_layout,
                n_phys,
                trials,
                seed,
            );
        }
        // Kiloqubit devices: compact the physical register onto the
        // qubits the cell actually touches (routed gates plus both layout
        // images); untouched physical qubits stay |0⟩ on both sides and
        // cannot distinguish the states.
        let mut used = vec![false; n_phys];
        for q in compiled.active_qubits() {
            used[q] = true;
        }
        for layout in [initial_layout, final_layout] {
            for &p in layout {
                used[p] = true;
            }
        }
        let (active, compact) = compaction(&used);
        if active.len() > SPARSE_MAX_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: active.len(),
                max: SPARSE_MAX_QUBITS,
            });
        }
        let compiled_c = remap_for_compaction(compiled, active.len(), &compact)?;
        let init_c: Vec<usize> = initial_layout.iter().map(|&p| compact[p]).collect();
        let fin_c: Vec<usize> = final_layout.iter().map(|&p| compact[p]).collect();
        self.run_layout_trials(
            original,
            &compiled_c,
            &init_c,
            &fin_c,
            active.len(),
            trials,
            seed,
        )
    }
}

/// Sorted active qubit list and the old→new index map for compaction.
fn compaction(used: &[bool]) -> (Vec<usize>, Vec<usize>) {
    let active: Vec<usize> = used
        .iter()
        .enumerate()
        .filter_map(|(i, &u)| u.then_some(i))
        .collect();
    let mut compact = vec![0usize; used.len()];
    for (new, &old) in active.iter().enumerate() {
        compact[old] = new;
    }
    (active, compact)
}

fn remap_for_compaction(
    circuit: &Circuit,
    new_width: usize,
    map: &[usize],
) -> Result<Circuit, SimError> {
    circuit.remapped(new_width, map).map_err(|_| {
        // Unreachable for maps built by `compaction`, but surfaced as a
        // width problem rather than a panic if the IR ever rejects one.
        SimError::WidthMismatch {
            expected: new_width,
            actual: circuit.num_qubits(),
        }
    })
}

/// Most superposed qubits in a trial input: the prep contributes at most
/// 2^8 = 256 nonzero terms, leaving the whole budget for the circuits
/// under test.
const MAX_PREP_SUPERPOSED: usize = 8;

/// A seeded low-entanglement trial input on `n` qubits: random X flips,
/// H on the first `min(n, 8)` qubits, then a random word of S/T/CX — all
/// term-count-preserving, so the result has ≤ 256 terms but rich relative
/// phases (a basis state alone cannot distinguish e.g. CZ from identity).
fn random_sparse_prep(n: usize, seed: u64) -> Circuit {
    let mut rng = SplitMix64::new(seed);
    let mut c = Circuit::new(n);
    for q in 0..n {
        if rng.next_u64() & 1 == 1 {
            c.x(q);
        }
    }
    for q in 0..n.min(MAX_PREP_SUPERPOSED) {
        c.h(q);
    }
    let words = 3 * n + 2;
    for _ in 0..words {
        let q = (rng.next_u64() % n.max(1) as u64) as usize;
        match rng.next_u64() % 8 {
            0 | 1 => {
                c.s(q);
            }
            2 | 3 => {
                c.t(q);
            }
            4 => {
                c.z(q);
            }
            _ if n >= 2 => {
                let mut t = (rng.next_u64() % (n as u64 - 1)) as usize;
                if t >= q {
                    t += 1;
                }
                c.cx(q, t);
            }
            _ => {
                c.t(q);
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::State;

    fn assert_matches_dense(circuit: &Circuit, eps: f64) {
        let mut sparse = SparseState::zero(circuit.num_qubits()).unwrap();
        sparse.apply_circuit(circuit).unwrap();
        let mut dense = State::zero(circuit.num_qubits()).unwrap();
        dense.apply_circuit(circuit).unwrap();
        let amps = sparse.dense_amplitudes().unwrap();
        for (i, (s, d)) in amps.iter().zip(dense.amplitudes()).enumerate() {
            assert!(
                s.approx_eq(*d, eps),
                "amplitude {i}: sparse {s} vs dense {d} for\n{circuit}"
            );
        }
    }

    #[test]
    fn matches_dense_on_every_gate_kind() {
        let mut c = Circuit::new(4);
        c.h(0)
            .x(1)
            .y(2)
            .z(3)
            .s(0)
            .sdg(1)
            .t(2)
            .tdg(3)
            .sx(0)
            .rx(0.3, 1)
            .ry(1.1, 2)
            .rz(-0.7, 3)
            .u1(0.25, 0)
            .u2(0.1, 0.2, 1)
            .u3(0.4, 0.5, 0.6, 2)
            .cx(0, 1)
            .cz(1, 2)
            .cp(0.9, 2, 3)
            .swap(0, 3)
            .ccx(0, 1, 2)
            .ccz(1, 2, 3)
            .cswap(0, 1, 3)
            .cxpow(0.5, 2, 0)
            .h(3);
        assert_matches_dense(&c, 1e-12);
    }

    #[test]
    fn ghz_has_two_terms() {
        let mut c = Circuit::new(12);
        c.h(0);
        for q in 1..12 {
            c.cx(q - 1, q);
        }
        let mut s = SparseState::zero(12).unwrap();
        s.apply_circuit(&c).unwrap();
        assert_eq!(s.num_terms(), 2);
        assert!(s
            .amplitude(0)
            .approx_eq(C64::real(1.0 / 2f64.sqrt()), 1e-12));
        assert!(s
            .amplitude((1 << 12) - 1)
            .approx_eq(C64::real(1.0 / 2f64.sqrt()), 1e-12));
        assert!((s.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn toffoli_network_stays_sparse_at_width_100() {
        // A 100-qubit ripple of CCX/CX/X on a 4-term input: far beyond
        // dense reach, term count pinned.
        let n = 100;
        let mut c = Circuit::new(n);
        c.h(0).h(1);
        for q in 0..n - 2 {
            c.ccx(q, q + 1, q + 2);
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        let mut s = SparseState::zero(n).unwrap();
        s.apply_circuit(&c).unwrap();
        assert!(s.num_terms() <= 4, "{} terms", s.num_terms());
        assert!((s.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn interference_prunes_cancelled_terms() {
        // H·H = I: the doubled terms must recombine to a single one.
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2).h(0).h(1).h(2);
        let mut s = SparseState::zero(3).unwrap();
        s.apply_circuit(&c).unwrap();
        assert_eq!(s.num_terms(), 1);
        assert!(s.amplitude(0).approx_eq(C64::ONE, 1e-12));
    }

    #[test]
    fn budget_blowup_reports_state_too_dense() {
        let mut c = Circuit::new(6);
        for q in 0..6 {
            c.h(q);
        }
        let mut s = SparseState::zero(6).unwrap().with_max_terms(16);
        let err = s.apply_circuit(&c).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::StateTooDense {
                    terms: 32,
                    max_terms: 16
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn measurement_is_unsupported_but_skipped_in_circuits() {
        let mut c = Circuit::new(2);
        c.h(0).measure(0).cx(0, 1);
        let mut s = SparseState::zero(2).unwrap();
        s.apply_circuit(&c).unwrap();
        assert_eq!(s.num_terms(), 2);
        let measure = *c.iter().find(|i| i.gate().is_measurement()).unwrap();
        assert!(matches!(
            s.try_apply(&measure),
            Err(SimError::UnsupportedGate {
                backend: "sparse",
                ..
            })
        ));
    }

    #[test]
    fn equivalence_agrees_with_dense_verdicts() {
        let sim = SparseSimulator::default();
        // CZ = H(t)·CX·H(t): equivalent; CZ vs CX: not; CZ vs I: not —
        // the last needs superposed trial inputs, a basis state cannot
        // tell them apart.
        let mut cz = Circuit::new(2);
        cz.cz(0, 1);
        let mut hch = Circuit::new(2);
        hch.h(1).cx(0, 1).h(1);
        let mut cx = Circuit::new(2);
        cx.cx(0, 1);
        let nothing = Circuit::new(2);
        assert!(sim.circuits_equivalent(&cz, &hch, 4, 11).unwrap());
        assert!(!sim.circuits_equivalent(&cz, &cx, 4, 11).unwrap());
        assert!(!sim.circuits_equivalent(&cz, &nothing, 4, 11).unwrap());
    }

    #[test]
    fn detects_a_phase_only_difference_at_width_60() {
        // Identical permutation action, one stray T: only relative phase
        // distinguishes them, far beyond dense reach.
        let n = 60;
        let mut a = Circuit::new(n);
        let mut b = Circuit::new(n);
        for q in 0..n - 1 {
            a.cx(q, q + 1);
            b.cx(q, q + 1);
        }
        b.t(30);
        let sim = SparseSimulator::default();
        assert!(sim.circuits_equivalent(&a, &a, 2, 9).unwrap());
        assert!(!sim.circuits_equivalent(&a, &b, 4, 9).unwrap());
    }

    #[test]
    fn compiled_equivalence_handles_routing_swaps() {
        // Same scenario the dense and stabilizer tests pin: CX(0,1)
        // compiled with a SWAP moving logical 1 from phys 2 to phys 1.
        let mut original = Circuit::new(2);
        original.cx(0, 1);
        let mut compiled = Circuit::new(3);
        compiled.swap(2, 1).cx(0, 1);
        let sim = SparseSimulator::default();
        assert!(sim
            .compiled_equivalent(&original, &compiled, &[0, 2], &[0, 1], 4, 5)
            .unwrap());
        assert!(!sim
            .compiled_equivalent(&original, &compiled, &[0, 2], &[0, 2], 4, 5)
            .unwrap());
    }

    #[test]
    fn kiloqubit_registers_compact_onto_touched_qubits() {
        // A 1121-qubit register whose circuit only touches a 40-qubit
        // stretch: compaction keeps the state at 40 qubits.
        let n = 1121;
        let mut original = Circuit::new(8);
        original.h(0);
        for q in 0..7 {
            original.ccx(q, (q + 1) % 8, (q + 2) % 8);
        }
        let base = 500;
        let layout: Vec<usize> = (0..8).map(|q| base + 2 * q).collect();
        let mut compiled = Circuit::new(n);
        compiled.h(base);
        for q in 0..7 {
            compiled.ccx(
                base + 2 * q,
                base + 2 * ((q + 1) % 8),
                base + 2 * ((q + 2) % 8),
            );
        }
        let sim = SparseSimulator::default();
        assert!(sim.supports_circuit(&compiled).is_ok());
        assert!(sim
            .compiled_equivalent(&original, &compiled, &layout, &layout, 2, 3)
            .unwrap());
        // Drop one CCX: must be detected even through compaction.
        let missing: Vec<_> = compiled.iter().take(compiled.len() - 1).cloned().collect();
        let missing = Circuit::from_instructions(n, missing).unwrap();
        assert!(!sim
            .compiled_equivalent(&original, &missing, &layout, &layout, 4, 3)
            .unwrap());
    }

    #[test]
    fn prep_is_deterministic_and_low_entanglement() {
        let a = random_sparse_prep(20, 7);
        let b = random_sparse_prep(20, 7);
        let c = random_sparse_prep(20, 8);
        assert_eq!(a.instructions(), b.instructions());
        assert_ne!(a.instructions(), c.instructions());
        let mut s = SparseState::zero(20).unwrap();
        s.apply_circuit(&a).unwrap();
        assert!(s.num_terms() <= 1 << MAX_PREP_SUPERPOSED);
        assert!((s.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trials_are_byte_deterministic() {
        // Same seed → identical dense projections, run to run.
        let prep = random_sparse_prep(10, 21);
        let run = || {
            let mut s = SparseState::zero(10).unwrap();
            s.apply_circuit(&prep).unwrap();
            s.dense_amplitudes().unwrap()
        };
        let (a, b) = (run(), run());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    /// Every `Gate` kind the differential tests draw from.
    const GATE_KINDS: usize = 28;

    /// Gate kind `k` (of [`GATE_KINDS`]), with seeded angles.
    fn gate_of_kind(k: usize, rng: &mut SplitMix64) -> Gate {
        let mut angle = || (rng.next_unit() - 0.5) * 4.0 * std::f64::consts::PI;
        match k {
            0 => Gate::I,
            1 => Gate::H,
            2 => Gate::X,
            3 => Gate::Y,
            4 => Gate::Z,
            5 => Gate::S,
            6 => Gate::Sdg,
            7 => Gate::T,
            8 => Gate::Tdg,
            9 => Gate::Sx,
            10 => Gate::Sxdg,
            11 => Gate::Rx(angle()),
            12 => Gate::Ry(angle()),
            13 => Gate::Rz(angle()),
            14 => Gate::U1(angle()),
            15 => Gate::U2(angle(), angle()),
            16 => Gate::U3(angle(), angle(), angle()),
            17 => Gate::Xpow(angle()),
            18 => Gate::Cxpow(angle()),
            19 => Gate::Cx,
            20 => Gate::Cz,
            21 => Gate::Cp(angle()),
            22 => Gate::Swap,
            23 => Gate::Ccx,
            24 => Gate::Ccz,
            25 => Gate::Cswap,
            26 => Gate::Measure,
            // A diagonal u3 takes the in-place scale path of `apply_1q`.
            _ => Gate::U3(0.0, angle(), angle()),
        }
    }

    /// A seeded random circuit on `n ≥ 3` qubits drawing uniformly from
    /// every gate kind on distinct random operands; `seen[k]` records
    /// which kinds it used.
    fn random_every_gate_circuit(
        n: usize,
        len: usize,
        rng: &mut SplitMix64,
        seen: &mut [bool; GATE_KINDS],
    ) -> Circuit {
        let mut c = Circuit::new(n);
        for _ in 0..len {
            let k = (rng.next_u64() % GATE_KINDS as u64) as usize;
            seen[k] = true;
            let gate = gate_of_kind(k, rng);
            let mut qs: Vec<Qubit> = Vec::with_capacity(3);
            while qs.len() < gate.arity() {
                let q = Qubit::new((rng.next_u64() % n as u64) as usize);
                if !qs.contains(&q) {
                    qs.push(q);
                }
            }
            c.push(Instruction::new(gate, &qs));
        }
        c
    }

    fn assert_bitwise_equal(new: &SparseState, old: &map_reference::MapState, what: &str) {
        assert_eq!(new.num_terms(), old.num_terms(), "term count: {what}");
        let (a, b) = (
            new.dense_amplitudes().unwrap(),
            old.dense_amplitudes().unwrap(),
        );
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "amplitude {i}: flat list {x} vs map {y}: {what}"
            );
        }
    }

    #[test]
    fn flat_list_matches_the_map_kernel_bit_for_bit() {
        let mut rng = SplitMix64::new(0x5eed);
        let mut seen = [false; GATE_KINDS];
        for case in 0..240 {
            let n = 3 + case % 12;
            let circuit = random_every_gate_circuit(n, 20 + case % 41, &mut rng, &mut seen);
            let mut new = SparseState::zero(n).unwrap();
            let mut old = map_reference::MapState::zero(n).unwrap();
            new.apply_circuit(&circuit).unwrap();
            old.apply_circuit(&circuit).unwrap();
            assert_bitwise_equal(&new, &old, &format!("case {case}\n{circuit}"));
        }
        assert!(seen.iter().all(|&s| s), "gate kinds drawn: {seen:?}");
    }

    #[test]
    fn mapped_application_matches_the_map_kernel_bit_for_bit() {
        // Logical circuits embedded through a random injective map into a
        // wider register, as the layout trials do.
        let mut rng = SplitMix64::new(0xa11);
        let mut seen = [false; GATE_KINDS];
        for case in 0..120 {
            let n_log = 3 + case % 8;
            let n_phys = n_log + case % 5;
            let mut phys: Vec<usize> = (0..n_phys).collect();
            for i in (1..n_phys).rev() {
                phys.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
            let map = &phys[..n_log];
            let circuit = random_every_gate_circuit(n_log, 30, &mut rng, &mut seen);
            let mut new = SparseState::zero(n_phys).unwrap();
            let mut old = map_reference::MapState::zero(n_phys).unwrap();
            new.apply_circuit_mapped(&circuit, map).unwrap();
            old.apply_circuit_mapped(&circuit, map).unwrap();
            assert_bitwise_equal(&new, &old, &format!("case {case}, map {map:?}"));
        }
    }

    #[test]
    fn budget_errors_match_the_map_kernel() {
        // Same outcome under a tight budget: the same gate trips it, with
        // the same term count in the error.
        let mut rng = SplitMix64::new(0xb0d9e7);
        let mut seen = [false; GATE_KINDS];
        for case in 0..120 {
            let n = 3 + case % 10;
            let budget = 1 + (rng.next_u64() % 64) as usize;
            let circuit = random_every_gate_circuit(n, 40, &mut rng, &mut seen);
            let mut new = SparseState::zero(n).unwrap().with_max_terms(budget);
            let mut old = map_reference::MapState::zero(n)
                .unwrap()
                .with_max_terms(budget);
            let (a, b) = (new.apply_circuit(&circuit), old.apply_circuit(&circuit));
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "case {case}");
            if a.is_ok() {
                assert_bitwise_equal(&new, &old, &format!("case {case}"));
            }
        }
    }

    #[test]
    fn phase_verdicts_match_the_map_kernel() {
        // Equal states, states off by a global phase, and states off by
        // one random extra gate: both comparisons give the same verdict.
        let mut rng = SplitMix64::new(0xfa5e);
        let mut seen = [false; GATE_KINDS];
        let mut verdicts = [0usize; 2];
        for case in 0..160 {
            let n = 3 + case % 8;
            let circuit = random_every_gate_circuit(n, 20, &mut rng, &mut seen);
            let mut other = circuit.clone();
            match case % 3 {
                0 => {}
                1 => {
                    other.u1(1.0, 0).x(0).u1(1.0, 0).x(0);
                }
                _ => {
                    other.append(&random_every_gate_circuit(n, 1, &mut rng, &mut seen));
                }
            }
            let run_new = |c: &Circuit| {
                let mut s = SparseState::zero(n).unwrap();
                s.apply_circuit(c).unwrap();
                s
            };
            let run_old = |c: &Circuit| {
                let mut s = map_reference::MapState::zero(n).unwrap();
                s.apply_circuit(c).unwrap();
                s
            };
            let new = run_new(&circuit).approx_eq_up_to_phase(&run_new(&other), 1e-9);
            let old = run_old(&circuit).approx_eq_up_to_phase(&run_old(&other), 1e-9);
            assert_eq!(new, old, "case {case}");
            verdicts[usize::from(new)] += 1;
        }
        assert!(verdicts[0] > 0 && verdicts[1] > 0, "{verdicts:?}");
    }

    #[test]
    fn comparison_sees_terms_only_the_other_side_has() {
        // Not reachable from unit-norm states, but the verdict must not
        // depend on which side carries the extra term.
        let one = |terms: Vec<(Key, C64)>| SparseState {
            terms,
            ..SparseState::zero(2).unwrap()
        };
        let a = one(vec![(ZERO_KEY, C64::ONE)]);
        let b = one(vec![(ZERO_KEY, C64::ONE), ([1, 0, 0, 0], C64::real(0.5))]);
        assert!(a.approx_eq_up_to_phase(&a, 1e-9));
        assert!(!a.approx_eq_up_to_phase(&b, 1e-9));
        assert!(!b.approx_eq_up_to_phase(&a, 1e-9));
    }

    #[test]
    fn width_guards_report_errors() {
        assert!(matches!(
            SparseState::zero(SPARSE_MAX_QUBITS + 1),
            Err(SimError::TooManyQubits { .. })
        ));
        let mut narrow = SparseState::zero(2).unwrap();
        let wide = {
            let mut c = Circuit::new(3);
            c.h(2);
            c
        };
        assert!(matches!(
            narrow.apply_circuit(&wide),
            Err(SimError::WidthMismatch { .. })
        ));
    }
}
