//! `paper-compile` and `kiloqubit-compile`: what `trios compile` does,
//! minus process start.
//!
//! One op takes a device spec and OpenQASM text and runs
//! `parse_spec` → `trios_qasm::parse` → `compile_with_report` →
//! `estimate_success` (near-future calibration) → `trios_qasm::emit`.
//! One client, closed loop: the next op starts when the last one ends.

use crate::stats::{fingerprint, geomean, mean};
use crate::trace::{trace_path, Tracer, OP};
use crate::{
    check_emitted, closed_loop, record_samples, trace_overhead_ms, Bench, Report, RunConfig,
    SplitMix64,
};
use std::rc::Rc;
use std::time::Instant;
use trios_benchmarks::Benchmark;
use trios_core::{CompileReport, CompiledProgram, Compiler};
use trios_gen::{Family, Params};
use trios_noise::Calibration;
use trios_topology::parse_spec;

/// Router × decomposer grid of `paper-compile`: every router with the
/// standard lowering, and `trios` with every other executable lowering.
const PAPER_CONFIGS: [(&str, &str); 8] = [
    ("baseline", "standard"),
    ("trios", "standard"),
    ("trios-lookahead", "standard"),
    ("trios-noise", "standard"),
    ("trios", "six"),
    ("trios", "eight"),
    ("trios", "tdepth"),
    ("trios", "relative-phase"),
];

/// `kiloqubit-compile` devices: two 1121-qubit-class lattices whose
/// construction dominates the op.
const KILOQUBIT_DEVICES: [&str; 2] = ["heavy-hex:1121", "grid:34x33"];

/// Compile seeds per paper benchmark and configuration. The stochastic
/// routers move gate counts with the seed; several seeds per input keep
/// the sums and the success geomean steady from one workload seed to
/// the next.
const PAPER_COMPILE_SEEDS: usize = 8;

/// `kiloqubit-compile` ripples: (qubits, generator seed). 52 and 102
/// qubits at depth 2 give 100 and 200 Toffolis. These inputs and their
/// compile seed are fixed: at this size one compile seed moves the
/// baseline's two-qubit count by a quarter and the success estimate by
/// orders of magnitude, so the workload seed sets only the op order.
const KILOQUBIT_RIPPLES: [(usize, u64); 4] = [(52, 7), (52, 8), (102, 7), (102, 8)];

/// Span names of the layers an op calls, with their metric names.
const LAYERS: [(&str, &str); 11] = [
    ("topology.parse_spec", "topology.parse_spec_ms"),
    ("qasm.parse", "qasm.parse_ms"),
    ("qasm.emit", "qasm.emit_ms"),
    ("noise.estimate", "noise.estimate_ms"),
    ("core.pass.initial-mapping", "core.pass.initial-mapping_ms"),
    (
        "core.pass.decompose-toffolis",
        "core.pass.decompose-toffolis_ms",
    ),
    ("core.pass.route", "core.pass.route_ms"),
    ("core.pass.lower", "core.pass.lower_ms"),
    ("core.pass.optimize", "core.pass.optimize_ms"),
    ("core.pass.validate", "core.pass.validate_ms"),
    ("core.pass.schedule", "core.pass.schedule_ms"),
];

/// One input of a compile workload: what a user hands `trios compile`.
#[derive(Debug, Clone)]
pub struct CompileItem {
    /// Human-readable name for failure messages.
    pub label: String,
    /// Device spec text.
    pub device: String,
    /// The program, as OpenQASM text (shared by the inputs that compile
    /// the same program).
    pub qasm: Rc<str>,
    /// Router name.
    pub router: &'static str,
    /// Toffoli decomposer name.
    pub decomposer: &'static str,
    /// Compile seed.
    pub seed: u64,
}

/// What one op produced.
#[derive(Debug, Clone)]
struct Output {
    program: CompiledProgram,
    report: CompileReport,
    probability: f64,
    qasm: String,
}

impl Output {
    /// Everything an op returns, as one number: equal outputs of one
    /// input must have equal fingerprints.
    fn fingerprint(&self) -> u64 {
        fingerprint(&[&self.qasm]) ^ self.probability.to_bits().rotate_left(17)
    }
}

/// A compile workload after set-up.
#[derive(Debug)]
pub struct CompileBench {
    name: &'static str,
    items: Vec<CompileItem>,
    calibration: Calibration,
}

impl CompileBench {
    /// `paper-compile`: Table 1's 11 benchmarks on Johannesburg, through
    /// the 8 router/decomposer configurations, each under seeded compile
    /// seeds, in seeded order.
    pub fn paper(seed: u64) -> CompileBench {
        let mut rng = SplitMix64::new(seed);
        let mut items = Vec::new();
        for benchmark in Benchmark::ALL {
            let qasm: Rc<str> = trios_qasm::emit(&benchmark.build()).into();
            for (router, decomposer) in PAPER_CONFIGS {
                for _ in 0..PAPER_COMPILE_SEEDS {
                    let compile_seed = rng.next_u64() % 1_000_000;
                    items.push(CompileItem {
                        label: format!(
                            "{} {router}/{decomposer} seed {compile_seed} on johannesburg",
                            benchmark.name()
                        ),
                        device: "johannesburg".to_string(),
                        qasm: qasm.clone(),
                        router,
                        decomposer,
                        seed: compile_seed,
                    });
                }
            }
        }
        let mut bench = CompileBench {
            name: "paper-compile",
            items,
            calibration: Calibration::near_future(),
        };
        // Warm-up: every benchmark and configuration once, under a
        // compile seed the run does not use.
        for item in bench.items.iter().step_by(PAPER_COMPILE_SEEDS) {
            bench.warm_up(item);
        }
        rng.shuffle(&mut bench.items);
        bench
    }

    /// `kiloqubit-compile`: Toffoli ripples on two 1121-qubit-class
    /// devices through `trios` and `baseline`, in seeded order.
    pub fn kiloqubit(seed: u64) -> CompileBench {
        let mut items = Vec::new();
        for (qubits, ripple_seed) in KILOQUBIT_RIPPLES {
            let circuit = Family::ToffoliRipple.generate(&Params::new(qubits, 2), ripple_seed);
            let qasm: Rc<str> = trios_qasm::emit(&circuit).into();
            for device in KILOQUBIT_DEVICES {
                for router in ["trios", "baseline"] {
                    items.push(CompileItem {
                        label: format!("{} {router} on {device}", circuit.name()),
                        device: device.to_string(),
                        qasm: qasm.clone(),
                        router,
                        decomposer: "standard",
                        seed: 0,
                    });
                }
            }
        }
        SplitMix64::new(seed).shuffle(&mut items);
        let bench = CompileBench {
            name: "kiloqubit-compile",
            items,
            calibration: Calibration::near_future(),
        };
        // Warm-up: one input per device, under another compile seed.
        for device in KILOQUBIT_DEVICES {
            let item = bench.items.iter().find(|i| i.device == device);
            bench.warm_up(item.expect("every device has inputs"));
        }
        bench
    }

    fn warm_up(&self, item: &CompileItem) {
        let other_seed = CompileItem {
            seed: item.seed ^ 0x5eed,
            ..item.clone()
        };
        let mut off = Tracer::new(Instant::now(), 0);
        std::hint::black_box(compile_op(&other_seed, &self.calibration, &mut off).ok());
    }
}

/// The op: device spec and QASM text in, compiled QASM text out.
fn compile_op(
    item: &CompileItem,
    calibration: &Calibration,
    tracer: &mut Tracer,
) -> Result<Output, String> {
    tracer.span(OP, |t| {
        let device = t
            .span("topology.parse_spec", |_| parse_spec(&item.device))
            .map_err(|e| format!("{}: device: {e}", item.label))?;
        let circuit = t
            .span("qasm.parse", |_| trios_qasm::parse(&item.qasm))
            .map_err(|e| format!("{}: qasm: {e}", item.label))?;
        let (program, report) = t
            .span("core.compile", |t| {
                let compiler = Compiler::builder()
                    .router(item.router)
                    .decomposer(item.decomposer)
                    .seed(item.seed)
                    .build();
                let compiled = compiler.compile_with_report(&circuit, &device);
                if let Ok((_, report)) = &compiled {
                    record_passes(t, report);
                }
                compiled
            })
            .map_err(|d| format!("{}: {d}", item.label))?;
        let probability = t.span("noise.estimate", |_| {
            program.estimate_success(calibration).probability()
        });
        let qasm = t.span("qasm.emit", |_| trios_qasm::emit(&program.circuit));
        Ok(Output {
            program,
            report,
            probability,
            qasm,
        })
    })
}

/// Records the report's passes as children of the open compile span,
/// laid back to back so that they end when the compile returned.
fn record_passes(tracer: &mut Tracer, report: &CompileReport) {
    let mut end = tracer.now_ns();
    for pass in report.passes.iter().rev() {
        let start = end.saturating_sub(pass.wall_time.as_nanos() as u64);
        tracer.record(pass_span(pass.pass), start, end);
        end = start;
    }
}

/// The span name of a pass; every routing strategy's pass is `route`.
fn pass_span(pass: &str) -> &'static str {
    match pass {
        "initial-mapping" => "core.pass.initial-mapping",
        "decompose-toffolis" => "core.pass.decompose-toffolis",
        "lower" => "core.pass.lower",
        "optimize" => "core.pass.optimize",
        "validate" => "core.pass.validate",
        "schedule" => "core.pass.schedule",
        route if route.starts_with("route") => "core.pass.route",
        _ => "core.pass.other",
    }
}

impl Bench for CompileBench {
    fn measure(self, config: &RunConfig) -> Report {
        let n = self.items.len();
        let mut tracer = Tracer::new(Instant::now(), 0);
        let mut reference: Vec<Option<(Output, u64)>> = vec![None; n];
        let mut report = Report::default();
        let (samples, wall_s) = closed_loop(config, n, |input, traced| {
            tracer.set_enabled(traced);
            let start = Instant::now();
            let outcome = compile_op(&self.items[input], &self.calibration, &mut tracer);
            let elapsed = start.elapsed();
            let ok = match outcome {
                Err(message) => {
                    report.fail(0, message);
                    false
                }
                Ok(output) => {
                    let print = output.fingerprint();
                    match &reference[input] {
                        None => {
                            reference[input] = Some((output, print));
                            true
                        }
                        Some((_, expected)) if *expected == print => true,
                        Some(_) => {
                            let label = &self.items[input].label;
                            report.fail(0, format!("{label}: output differs between ops"));
                            false
                        }
                    }
                }
            };
            (elapsed, ok)
        });
        record_samples(&mut report, &samples, wall_s);

        // Output checks, once per input, on the output every later op of
        // that input reproduced exactly.
        let mut probabilities = Vec::new();
        let mut gather = Vec::new();
        let mut emitted_bytes = Vec::new();
        for (input, (item, slot)) in self.items.iter().zip(&reference).enumerate() {
            let Some((output, _)) = slot else {
                continue; // its failure is already recorded
            };
            if let Err(message) = check_emitted(&output.qasm, &output.program.circuit, &item.device)
            {
                let ops = samples.iter().filter(|s| s.input == input && s.ok).count();
                report.fail(ops as u64, format!("{}: {message}", item.label));
            }
            let stats = &output.program.stats;
            let c = &mut report.counts;
            c.two_qubit_gates += stats.two_qubit_gates as u64;
            c.swaps += stats.swap_count as u64;
            c.depth += stats.depth as u64;
            for pass in &output.report.passes {
                if pass.pass.starts_with("route") {
                    c.route_gates_out += pass.gates_after.total as u64;
                } else if pass.pass == "optimize" {
                    c.optimize_gates_out += pass.gates_after.total as u64;
                }
            }
            gather.extend(stats.mean_gather_distance);
            probabilities.push(output.probability);
            emitted_bytes.push(output.qasm.len() as f64);
        }
        report.counts.success_geomean = geomean(&probabilities);
        report.counts.gather_distance_mean = if gather.is_empty() {
            0.0
        } else {
            mean(&gather)
        };

        if config.trace {
            let summary = tracer.summary();
            summary.fill(&LAYERS, &mut report.layers);
            if let Some(ms) = summary.total_ms("core.compile") {
                report.layers.insert("core.compile_ms", ms);
            }
            report
                .layers
                .insert("qasm.emit_bytes", mean(&emitted_bytes));
            if let Some(ms) = trace_overhead_ms(&samples) {
                report.layers.insert("trace.overhead_ms", ms);
            }
            let path = trace_path(self.name, config.seed);
            match tracer.write_jsonl(&path) {
                Ok(()) => report
                    .notes
                    .push(format!("spans written to {}", path.display())),
                Err(e) => report.fail(0, format!("cannot write {}: {e}", path.display())),
            }
        }
        report
    }
}
