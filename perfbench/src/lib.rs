//! End-to-end benchmark of the trios compiler.
//!
//! Three closed-loop workloads (and a fourth run by name), each timed
//! per op with tracing off, plus a traced mode that splits the op into
//! the crates it calls. The spans are recorded here, around calls into
//! each crate's public functions; the program itself carries no tracing. See `README.md` for the workload
//! definitions and the table of layer metric → end-to-end metric.

pub mod compile;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod verify;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of tuning, so a later claim can be re-checked on
/// inputs nobody looked at while making it.
pub const HELD_OUT_SEED: u64 = 7919;

/// How often set-up runs per process; `setup_s` is the median.
const SETUP_REPS: usize = 15;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 1 on Johannesburg through every router and decomposer.
    PaperCompile,
    /// Toffoli ripples on 1121-qubit-class devices.
    KiloqubitCompile,
    /// An in-process server under two closed-loop clients.
    ServeMix,
    /// Equivalence checks of original/compiled pairs.
    VerifyWidth,
}

impl Workload {
    /// The benchmark's workloads, as `BENCHMARK.json` lists them and in
    /// the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperCompile,
        Workload::ServeMix,
        Workload::VerifyWidth,
    ];

    /// Workloads run only by name. `kiloqubit-compile`'s timings spread
    /// by up to the 0.25 bound from one run to the next on a shared
    /// 2-vCPU host, so it is kept out of the benchmark's gate.
    pub const EXTRA: [Workload; 1] = [Workload::KiloqubitCompile];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCompile => "paper-compile",
            Workload::KiloqubitCompile => "kiloqubit-compile",
            Workload::ServeMix => "serve-mix",
            Workload::VerifyWidth => "verify-width",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL
            .into_iter()
            .chain(Workload::EXTRA)
            .find(|w| w.name() == name)
    }

    /// The percentile `latency_ms.tail` reports. It is fixed per workload
    /// (not chosen from the sample count of each run) so that runs stay
    /// comparable; [`Workload::min_ops`] guarantees at least ten samples
    /// beyond it.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::PaperCompile | Workload::ServeMix => 0.99,
            Workload::KiloqubitCompile | Workload::VerifyWidth => 0.9,
        }
    }

    /// Ops a run completes even when `--seconds` has passed: ten samples
    /// beyond the tail percentile.
    pub fn min_ops(self) -> usize {
        (10.0 / (1.0 - self.tail_percentile())).round() as usize
    }
}

/// What one run does.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run: per-layer numbers instead of end-to-end ones.
    pub trace: bool,
    /// Ops to complete regardless of `seconds` ([`Workload::min_ops`]).
    /// Every input is always run at least once.
    pub min_ops: usize,
}

impl RunConfig {
    /// The configuration the command line asks for.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> RunConfig {
        RunConfig {
            seed,
            seconds,
            trace,
            min_ops: workload.min_ops(),
        }
    }
}

/// Counts that depend only on the seed: two runs at one seed must agree
/// on every field exactly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Counts {
    /// Two-qubit gates summed over the distinct compiled outputs.
    pub two_qubit_gates: u64,
    /// SWAPs summed over the distinct compiled outputs.
    pub swaps: u64,
    /// Depth summed over the distinct compiled outputs.
    pub depth: u64,
    /// Geometric mean of the near-future success estimate.
    pub success_geomean: f64,
    /// Gates leaving the route pass, summed over distinct compiles.
    pub route_gates_out: u64,
    /// Gates leaving the optimize pass, summed over distinct compiles.
    pub optimize_gates_out: u64,
    /// Mean over distinct compiles of the router's mean gather distance.
    pub gather_distance_mean: f64,
    /// Distinct pairs verified by the dense backend.
    pub dense_verdicts: u64,
    /// Distinct pairs verified by the sparse backend.
    pub sparse_verdicts: u64,
    /// Distinct pairs verified by the stabilizer backend.
    pub stabilizer_verdicts: u64,
}

/// One timed op.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Which input (index into the workload's input list).
    pub input: usize,
    /// Wall time of the op.
    pub elapsed: Duration,
    /// Whether tracing was on for this op.
    pub traced: bool,
    /// Whether the op succeeded.
    pub ok: bool,
}

/// Everything a run measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Ops that failed: an error, a `busy`, a verdict other than
    /// `Ok(true)`, or a failed output check.
    pub failed: u64,
    /// One line per distinct failure.
    pub failures: Vec<String>,
    /// Per-op latencies of the untraced ops, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the timed phase.
    pub wall_s: f64,
    /// Median set-up time.
    pub setup_s: f64,
    /// Peak resident set of the process, up to the end of the timed
    /// phase.
    pub peak_rss_mb: f64,
    /// Seed-determined counts.
    pub counts: Counts,
    /// Layer metrics the workload measured (others read 0).
    pub layers: BTreeMap<&'static str, f64>,
    /// Lines worth printing that are not metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a failed output check against `ops` ops.
    pub fn fail(&mut self, ops: u64, message: String) {
        self.failed += ops;
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
    }

    /// `true` when every op succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn metric(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// The end-to-end metrics every untraced run prints.
pub const END_TO_END: &[MetricDef] = &[
    metric("latency_ms.p50", "ms", "lower"),
    metric("latency_ms.tail", "ms", "lower"),
    metric("throughput_per_s", "1/s", "higher"),
    metric("peak_rss_mb", "MB", "lower"),
    metric("two_qubit_gates", "count", "lower"),
    metric("swaps", "count", "lower"),
    metric("depth", "count", "lower"),
    metric("success_geomean", "probability", "higher"),
    metric("setup_s", "s", "lower"),
];

/// The per-layer metrics every traced run prints. A layer the workload
/// does not call reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    metric("topology.parse_spec_ms", "ms", "lower"),
    metric("qasm.parse_ms", "ms", "lower"),
    metric("qasm.emit_ms", "ms", "lower"),
    metric("qasm.emit_bytes", "bytes", "lower"),
    metric("core.compile_ms", "ms", "lower"),
    metric("core.pass.initial-mapping_ms", "ms", "lower"),
    metric("core.pass.decompose-toffolis_ms", "ms", "lower"),
    metric("core.pass.route_ms", "ms", "lower"),
    metric("core.pass.lower_ms", "ms", "lower"),
    metric("core.pass.optimize_ms", "ms", "lower"),
    metric("core.pass.validate_ms", "ms", "lower"),
    metric("core.pass.schedule_ms", "ms", "lower"),
    metric("core.pass.route.gates_out", "count", "lower"),
    metric("core.pass.optimize.gates_out", "count", "lower"),
    metric("route.gather_distance_mean", "hops", "lower"),
    metric("noise.estimate_ms", "ms", "lower"),
    metric("core.cache.hit_ratio", "ratio", "higher"),
    metric("core.cache.evictions", "count", "lower"),
    metric("server.rtt_hit_ms", "ms", "lower"),
    metric("server.rtt_miss_ms", "ms", "lower"),
    metric("server.rtt_hit_kiloqubit_ms", "ms", "lower"),
    metric("server.queue_high_water", "count", "lower"),
    metric("server.busy", "count", "lower"),
    metric("sim.select_ms", "ms", "lower"),
    metric("sim.dense.verify_ms", "ms", "lower"),
    metric("sim.sparse.verify_ms", "ms", "lower"),
    metric("sim.stabilizer.verify_ms", "ms", "lower"),
    metric("sim.dense.verdicts", "count", "higher"),
    metric("sim.sparse.verdicts", "count", "higher"),
    metric("sim.stabilizer.verdicts", "count", "higher"),
    metric("trace.op_ms", "ms", "lower"),
    metric("trace.unattributed_ms", "ms", "lower"),
    metric("trace.overhead_ms", "ms", "lower"),
];

/// The metric values a run prints: the end-to-end set for an untraced
/// run, the per-layer set for a traced one, in table order.
pub fn metric_values(workload: Workload, report: &Report, trace: bool) -> Vec<(MetricDef, f64)> {
    if trace {
        let c = &report.counts;
        let counted = [
            ("core.pass.route.gates_out", c.route_gates_out as f64),
            ("core.pass.optimize.gates_out", c.optimize_gates_out as f64),
            ("route.gather_distance_mean", c.gather_distance_mean),
            ("sim.dense.verdicts", c.dense_verdicts as f64),
            ("sim.sparse.verdicts", c.sparse_verdicts as f64),
            ("sim.stabilizer.verdicts", c.stabilizer_verdicts as f64),
        ];
        return PER_LAYER
            .iter()
            .map(|def| {
                let value = counted
                    .iter()
                    .find(|(name, _)| *name == def.name)
                    .map(|&(_, v)| v)
                    .or_else(|| report.layers.get(def.name).copied())
                    .unwrap_or(0.0);
                (*def, value)
            })
            .collect();
    }
    let mut sorted = report.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let c = &report.counts;
    let values = [
        stats::percentile(&sorted, 0.5),
        stats::percentile(&sorted, workload.tail_percentile()),
        report.latencies_ms.len() as f64 / report.wall_s,
        report.peak_rss_mb,
        c.two_qubit_gates as f64,
        c.swaps as f64,
        c.depth as f64,
        c.success_geomean,
        report.setup_s,
    ];
    END_TO_END.iter().copied().zip(values).collect()
}

/// Runs one workload: set-up, the timed phase, the output checks, then
/// the set-up again until it has run [`SETUP_REPS`] times (median
/// reported).
pub fn run(workload: Workload, config: &RunConfig) -> Report {
    match workload {
        Workload::PaperCompile => run_with_setup(config, compile::CompileBench::paper),
        Workload::KiloqubitCompile => run_with_setup(config, compile::CompileBench::kiloqubit),
        Workload::ServeMix => run_with_setup(config, serve::ServeBench::new),
        Workload::VerifyWidth => run_with_setup(config, verify::VerifyBench::new),
    }
}

/// A workload after set-up: ready to run its timed phase.
pub trait Bench {
    /// Runs the timed phase and the output checks.
    fn measure(self, config: &RunConfig) -> Report;
}

/// The timed phase follows the first set-up and the other set-ups follow
/// it, timed only: their freed memory would otherwise still be resident
/// when the timed phase's memory peak is measured, in amounts that vary
/// from run to run.
fn run_with_setup<B: Bench>(config: &RunConfig, setup: impl Fn(u64) -> B) -> Report {
    let timed_setup = || {
        let start = Instant::now();
        let bench = setup(config.seed);
        (bench, start.elapsed().as_secs_f64())
    };
    let (bench, first) = timed_setup();
    let mut report = bench.measure(config);
    let mut times = vec![first];
    for _ in 1..SETUP_REPS {
        let (bench, time) = timed_setup();
        // Torn down (a server, for serve-mix) before the next is timed.
        drop(bench);
        times.push(time);
    }
    report.setup_s = stats::median(&times);
    report
}

/// The output check shared by every workload that emits QASM: `qasm`
/// re-parses to `compiled`, which is legal on the device `spec` names.
pub fn check_emitted(qasm: &str, compiled: &trios_core::Circuit, spec: &str) -> Result<(), String> {
    let reparsed =
        trios_qasm::parse(qasm).map_err(|e| format!("emitted QASM does not parse: {e}"))?;
    if reparsed.num_qubits() != compiled.num_qubits()
        || reparsed.instructions() != compiled.instructions()
    {
        return Err("emitted QASM re-parses to another circuit".into());
    }
    let device = trios_topology::parse_spec(spec).map_err(|e| e.to_string())?;
    trios_route::verify_legal(compiled, &device).map_err(|e| format!("illegal output: {e}"))
}

/// A small deterministic generator for the benchmark's own choices
/// (input order, traffic draws), independent of the program's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Runs `op` over `inputs` (in the given order) in whole cycles until
/// `config.seconds` have passed and `config.min_ops` ops are done. A
/// traced run alternates untraced and traced cycles, so both see the
/// same inputs; the traced ones feed the per-layer numbers. `op` times
/// itself (so its bookkeeping stays outside the op) and reports whether
/// it succeeded.
pub fn closed_loop(
    config: &RunConfig,
    inputs: usize,
    mut op: impl FnMut(usize, bool) -> (Duration, bool),
) -> (Vec<OpSample>, f64) {
    let mut samples = Vec::new();
    let start = Instant::now();
    let mut cycle = 0usize;
    loop {
        let traced = config.trace && cycle % 2 == 1;
        for input in 0..inputs {
            let (elapsed, ok) = op(input, traced);
            samples.push(OpSample {
                input,
                elapsed,
                traced,
                ok,
            });
        }
        cycle += 1;
        let untraced = samples.iter().filter(|s| !s.traced).count();
        if start.elapsed().as_secs_f64() >= config.seconds
            && untraced >= config.min_ops
            && (!config.trace || cycle >= 2)
        {
            break;
        }
    }
    (samples, start.elapsed().as_secs_f64())
}

/// Fills the op counts and untraced latencies of `report` from `samples`,
/// and the memory peak so far. Called right after the timed phase, so
/// the output checks that follow do not count towards the peak.
pub fn record_samples(report: &mut Report, samples: &[OpSample], wall_s: f64) {
    report.peak_rss_mb = stats::peak_rss_mb();
    report.attempted = samples.len() as u64;
    report.failed += samples.iter().filter(|s| !s.ok).count() as u64;
    report.latencies_ms = samples
        .iter()
        .filter(|s| !s.traced)
        .map(|s| s.elapsed.as_secs_f64() * 1e3)
        .collect();
    report.wall_s = wall_s;
}

/// Tracing overhead in ms: for every input run both traced and untraced,
/// the difference of its mean op times, averaged over those inputs.
pub fn trace_overhead_ms(samples: &[OpSample]) -> Option<f64> {
    let mut sums: BTreeMap<usize, [(f64, u32); 2]> = BTreeMap::new();
    for s in samples {
        let slot = &mut sums.entry(s.input).or_default()[usize::from(s.traced)];
        slot.0 += s.elapsed.as_secs_f64() * 1e3;
        slot.1 += 1;
    }
    let diffs: Vec<f64> = sums
        .values()
        .filter(|[untraced, traced]| untraced.1 > 0 && traced.1 > 0)
        .map(|[untraced, traced]| {
            traced.0 / f64::from(traced.1) - untraced.0 / f64::from(untraced.1)
        })
        .collect();
    (!diffs.is_empty()).then(|| stats::mean(&diffs))
}
