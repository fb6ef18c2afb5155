//! `verify-width`: equivalence checks of original/compiled pairs built
//! during set-up, under the `trios fuzz` default policy.
//!
//! One op is `auto_backend(width, pair, 8, DEFAULT_MAX_TERMS)` followed
//! by `compiled_equivalent(.., trials 2)`. One client, closed loop. Two
//! slices of pairs:
//! - seeded generator cases compiled onto `line:8` (dense, or stabilizer
//!   for Clifford pairs), Johannesburg and heavy-hex:127 (sparse, or
//!   stabilizer);
//! - a dense-favoured slice: a Toffoli-free QFT whose states fill a
//!   12-qubit register, compiled under many seeds. The policy sends it
//!   to the sparse backend, where it costs the most.

use crate::stats::geomean;
use crate::trace::{trace_path, Tracer, OP};
use crate::{closed_loop, record_samples, trace_overhead_ms, Bench, Report, RunConfig, SplitMix64};
use std::time::Instant;
use trios_core::{Circuit, CompiledProgram, Compiler};
use trios_gen::{Family, Params};
use trios_noise::Calibration;
use trios_sim::{auto_backend, DEFAULT_MAX_TERMS};
use trios_topology::parse_spec;

/// Dense cap of the `trios fuzz` default policy.
const MAX_DENSE_QUBITS: usize = 8;
/// Random-state trials per check, as `trios fuzz` runs them.
const TRIALS: usize = 2;
/// Devices of the generator slice.
const GEN_DEVICES: [&str; 3] = ["line:8", "johannesburg", "heavy-hex:127"];
/// Device of the dense-favoured slice.
const DENSE_DEVICE: &str = "grid:4x3";
/// Generator cases per grid entry and device. The median op falls among
/// generator pairs of very different cost; with several cases per entry
/// it moves little from one seed's circuits to the next.
const CASES_PER_ENTRY: usize = 4;
/// The dense-favoured slice: QFT on this many qubits, compiled under this
/// many seeds. An eighth of all pairs, so that the p90 tail falls inside
/// the slice.
const DENSE_QFT_QUBITS: usize = 10;
const DENSE_PAIRS: usize = 80;

const LAYERS: [(&str, &str); 4] = [
    ("sim.select", "sim.select_ms"),
    ("sim.dense.verify", "sim.dense.verify_ms"),
    ("sim.sparse.verify", "sim.sparse.verify_ms"),
    ("sim.stabilizer.verify", "sim.stabilizer.verify_ms"),
];

/// One original/compiled pair.
#[derive(Debug)]
struct Pair {
    label: String,
    device: &'static str,
    original: Circuit,
    compiled: CompiledProgram,
    initial: Vec<usize>,
    final_: Vec<usize>,
    trial_seed: u64,
}

/// `verify-width` after set-up.
#[derive(Debug)]
pub struct VerifyBench {
    pairs: Vec<Pair>,
}

impl VerifyBench {
    /// Generates and compiles the pairs for `seed`, in seeded order, and
    /// warms the backends on pairs the run does not check.
    ///
    /// # Panics
    ///
    /// If a generated circuit does not compile.
    pub fn new(seed: u64) -> VerifyBench {
        let mut rng = SplitMix64::new(seed);
        let mut pairs = Vec::new();
        // Every grid entry of every family that fits the device, so that
        // seeds change circuit content but never the mix of sizes.
        for device in GEN_DEVICES {
            let width = parse_spec(device).expect("known device").num_qubits();
            for family in Family::ALL {
                for params in family.grid() {
                    if params.qubits > width {
                        continue;
                    }
                    for _ in 0..CASES_PER_ENTRY {
                        let case_seed = rng.next_u64() % 100_000;
                        let circuit = family.generate(&params, case_seed);
                        let label = family.instance_name(&params, case_seed);
                        pairs.push(compile_pair(label, device, circuit, &mut rng));
                    }
                }
            }
        }
        let qft = Family::Qft.generate(&Params::new(DENSE_QFT_QUBITS, 0), 0);
        for _ in 0..DENSE_PAIRS {
            pairs.push(compile_pair(
                qft.name().to_string(),
                DENSE_DEVICE,
                qft.clone(),
                &mut rng,
            ));
        }
        rng.shuffle(&mut pairs);
        // Warm-up: one check per device, on a pair compiled for it alone.
        for device in GEN_DEVICES.into_iter().chain([DENSE_DEVICE]) {
            let circuit = Family::Qft.generate(&Params::new(6, 0), 0);
            let warm = compile_pair("warm-up".into(), device, circuit, &mut rng);
            let mut off = Tracer::new(Instant::now(), 0);
            std::hint::black_box(verify_op(&warm, &mut off).ok());
        }
        VerifyBench { pairs }
    }
}

fn compile_pair(
    label: String,
    device: &'static str,
    original: Circuit,
    rng: &mut SplitMix64,
) -> Pair {
    let topology = parse_spec(device).expect("known device");
    let compiled = Compiler::builder()
        .router("trios")
        .seed(rng.next_u64() % 1000)
        .build()
        .compile(&original, &topology)
        .unwrap_or_else(|d| panic!("{label} on {device}: {d}"));
    Pair {
        label: format!("{label} on {device}"),
        device,
        initial: compiled.initial_layout.to_mapping(),
        final_: compiled.final_layout.to_mapping(),
        original,
        compiled,
        trial_seed: rng.next_u64(),
    }
}

/// The op: pick a backend, then check the pair. Returns the backend's
/// name and the verdict.
fn verify_op(pair: &Pair, tracer: &mut Tracer) -> Result<&'static str, String> {
    tracer.span(OP, |t| {
        let compiled = &pair.compiled.circuit;
        let sim = t
            .span("sim.select", |_| {
                auto_backend(
                    compiled.num_qubits(),
                    &[&pair.original, compiled],
                    MAX_DENSE_QUBITS,
                    DEFAULT_MAX_TERMS,
                )
            })
            .ok_or_else(|| format!("{}: no backend can check it", pair.label))?;
        let backend = sim.capability().name;
        let span = match backend {
            "dense" => "sim.dense.verify",
            "sparse" => "sim.sparse.verify",
            "stabilizer" => "sim.stabilizer.verify",
            _ => "sim.other.verify",
        };
        let verdict = t.span(span, |_| {
            sim.compiled_equivalent(
                &pair.original,
                compiled,
                &pair.initial,
                &pair.final_,
                TRIALS,
                pair.trial_seed,
            )
        });
        match verdict {
            Ok(true) => Ok(backend),
            Ok(false) => Err(format!(
                "{}: {backend} finds them not equivalent",
                pair.label
            )),
            Err(e) => Err(format!("{}: {backend}: {e}", pair.label)),
        }
    })
}

impl Bench for VerifyBench {
    fn measure(self, config: &RunConfig) -> Report {
        let mut tracer = Tracer::new(Instant::now(), 0);
        let mut backends: Vec<Option<&'static str>> = vec![None; self.pairs.len()];
        let mut report = Report::default();
        let (samples, wall_s) = closed_loop(config, self.pairs.len(), |input, traced| {
            tracer.set_enabled(traced);
            let start = Instant::now();
            let verdict = verify_op(&self.pairs[input], &mut tracer);
            let elapsed = start.elapsed();
            let ok = match verdict {
                Ok(backend) => match backends[input] {
                    None => {
                        backends[input] = Some(backend);
                        true
                    }
                    Some(first) if first == backend => true,
                    Some(first) => {
                        let label = &self.pairs[input].label;
                        report.fail(
                            0,
                            format!("{label}: backend changed from {first} to {backend}"),
                        );
                        false
                    }
                },
                Err(message) => {
                    report.fail(0, message);
                    false
                }
            };
            (elapsed, ok)
        });
        record_samples(&mut report, &samples, wall_s);

        let calibration = Calibration::near_future();
        let mut probabilities = Vec::new();
        for (input, pair) in self.pairs.iter().enumerate() {
            let topology = parse_spec(pair.device).expect("known device");
            if let Err(e) = trios_route::verify_legal(&pair.compiled.circuit, &topology) {
                let ops = samples.iter().filter(|s| s.input == input && s.ok).count() as u64;
                report.fail(ops, format!("{}: illegal output: {e}", pair.label));
            }
            let stats = &pair.compiled.stats;
            let c = &mut report.counts;
            c.two_qubit_gates += stats.two_qubit_gates as u64;
            c.swaps += stats.swap_count as u64;
            c.depth += stats.depth as u64;
            match backends[input] {
                Some("dense") => c.dense_verdicts += 1,
                Some("sparse") => c.sparse_verdicts += 1,
                Some("stabilizer") => c.stabilizer_verdicts += 1,
                _ => {}
            }
            probabilities.push(pair.compiled.estimate_success(&calibration).probability());
        }
        report.counts.success_geomean = geomean(&probabilities);

        if config.trace {
            let summary = tracer.summary();
            summary.fill(&LAYERS, &mut report.layers);
            if let Some(ms) = trace_overhead_ms(&samples) {
                report.layers.insert("trace.overhead_ms", ms);
            }
            let path = trace_path("verify-width", config.seed);
            match tracer.write_jsonl(&path) {
                Ok(()) => report
                    .notes
                    .push(format!("spans written to {}", path.display())),
                Err(e) => report.fail(0, format!("cannot write {}: {e}", path.display())),
            }
        }
        let slice_median = |dense_favoured: bool| {
            let ms: Vec<f64> = samples
                .iter()
                .filter(|s| {
                    !s.traced && (self.pairs[s.input].device == DENSE_DEVICE) == dense_favoured
                })
                .map(|s| s.elapsed.as_secs_f64() * 1e3)
                .collect();
            crate::stats::median(&ms)
        };
        report.notes.push(format!(
            "median op: {:.3} ms on the generator slice, {:.3} ms on the dense-favoured slice",
            slice_median(false),
            slice_median(true)
        ));
        report
    }
}
