//! `serve-mix`: an in-process `Server` (2 workers, default cache) under
//! two closed-loop client connections replaying seeded request streams.
//!
//! The traffic is mostly `compile`, with some `estimate`, some
//! `emit-qasm` and some inline `qasm`, on Johannesburg and heavy-hex:127
//! with about a tenth on heavy-hex:1121. Cache keys are drawn with a
//! Zipf skew over more distinct keys than the cache holds, so hits,
//! misses and evictions all occur. One op is one request: the time from
//! writing its line to reading the response line.

use crate::stats::{fingerprint, geomean, mean, median};
use crate::trace::{trace_path, Tracer, OP};
use crate::{Bench, OpSample, Report, RunConfig, SplitMix64};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use trios_benchmarks::Benchmark;
use trios_core::{Circuit, CompiledProgram, Compiler};
use trios_gen::Family;
use trios_noise::Calibration;
use trios_server::{Client, Server, ServerConfig};
use trios_topology::parse_spec;

/// Client connections, and server workers: the host's two cores.
const CLIENTS: usize = 2;
/// Requests per client stream; a stream is replayed from its start when
/// a run outlasts it.
const STREAM_LEN: usize = 4000;
/// Devices and their share of every ten requests. Fixed shares (not
/// independent draws) keep the traffic mix, and so the median, the same
/// from one seed to the next.
const DEVICE_MIX: [(&str, usize); 3] = [
    ("johannesburg", 7),
    ("heavy-hex:127", 2),
    ("heavy-hex:1121", 1),
];
/// Methods and their share of every twenty requests.
const METHOD_MIX: [(Method, usize); 3] = [
    (Method::Compile, 14),
    (Method::CompileEmit, 3),
    (Method::Estimate, 3),
];
/// Routers requested on the small devices; the kiloqubit device gets
/// `trios` only.
const SMALL_ROUTERS: [&str; 3] = ["trios", "baseline", "trios-lookahead"];
const KILOQUBIT_DEVICE: &str = "heavy-hex:1121";
/// Zipf exponent over a small device's keys: mild, so no single hot key sets the median.
const ZIPF_S: f64 = 0.7;
/// `gen:<family>:<seed>` references per family, spread over its grid.
const GEN_CASES: usize = 6;
/// Circuits per family sent as inline QASM, spread over its grid.
const INLINE_CASES: usize = 4;
/// Families whose first reference is also requested on the kiloqubit
/// device.
const KILOQUBIT_FAMILIES: [Family; 4] = [
    Family::Qft,
    Family::Qaoa,
    Family::CliffordT,
    Family::ToffoliRipple,
];
/// Length of the alternating untraced/traced slices of a traced run.
const TRACE_SLICE: Duration = Duration::from_millis(250);

/// The circuit a request names.
#[derive(Debug, Clone)]
enum Program {
    /// A paper benchmark or `gen:<family>:<seed>` reference.
    Named(String),
    /// Inline OpenQASM text.
    Inline(String),
}

/// One distinct cache key: circuit, device and compiler options.
#[derive(Debug, Clone)]
struct Key {
    program: Program,
    device: &'static str,
    router: &'static str,
    seed: u64,
}

/// What a request asks for on top of the compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Method {
    Compile,
    CompileEmit,
    Estimate,
}

/// One distinct request: a key and a method.
#[derive(Debug, Clone)]
struct Template {
    key: usize,
    method: Method,
    /// The request line minus its id: `,"method":...}`.
    tail: String,
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// `print` fingerprints the response after its id without the name
    /// comment of emitted QASM; `raw` fingerprints it with the comment.
    Ok {
        cached: bool,
        print: u64,
        raw: u64,
    },
    Busy,
    Error,
}

/// One request as the client saw it.
#[derive(Debug, Clone, Copy)]
struct Record {
    template: usize,
    elapsed: Duration,
    traced: bool,
    outcome: Outcome,
}

/// `serve-mix` after set-up: a warm server and connected clients.
#[derive(Debug)]
pub struct ServeBench {
    server: Option<Server>,
    clients: Vec<Client>,
    keys: Vec<Key>,
    templates: Vec<Template>,
    streams: Vec<Vec<usize>>,
}

impl Drop for ServeBench {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }
}

impl ServeBench {
    /// Builds the key universe and client streams from `seed`, starts
    /// the server, and warms it with keys the streams never use.
    ///
    /// # Panics
    ///
    /// If the server cannot start or a warm-up request fails.
    pub fn new(seed: u64) -> ServeBench {
        let mut rng = SplitMix64::new(seed);
        let compile_seed = seed % 1000;
        let (keys, classes) = key_universe(&mut rng, compile_seed);
        let zipf: Vec<ZipfTable> = classes
            .iter()
            .map(|c| ZipfTable::new(c.len(), ZIPF_S))
            .collect();
        let mut templates = Vec::new();
        let mut index = HashMap::new();
        let mut streams = Vec::new();
        for _ in 0..CLIENTS {
            let mut stream = Vec::with_capacity(STREAM_LEN);
            while stream.len() < STREAM_LEN {
                // Twenty requests: two blocks of the device mix, one of
                // the method mix.
                let devices = shuffled_block(&DEVICE_MIX.map(|(_, n)| n), 2, &mut rng);
                let methods = shuffled_block(&METHOD_MIX.map(|(_, n)| n), 1, &mut rng);
                for (class, method) in devices.into_iter().zip(methods) {
                    let method = METHOD_MIX[method].0;
                    let key = if DEVICE_MIX[class].0 == KILOQUBIT_DEVICE {
                        classes[class][rng.below(classes[class].len())]
                    } else {
                        classes[class][zipf[class].sample(&mut rng)]
                    };
                    stream.push(*index.entry((key, method)).or_insert_with(|| {
                        templates.push(Template {
                            key,
                            method,
                            tail: request_tail(&keys[key], method),
                        });
                        templates.len() - 1
                    }));
                }
            }
            streams.push(stream);
        }

        let server = Server::start(ServerConfig {
            workers: CLIENTS,
            ..ServerConfig::default()
        })
        .expect("an ephemeral localhost port is free");
        let mut clients: Vec<Client> = (0..CLIENTS)
            .map(|_| Client::connect(server.local_addr()).expect("the server accepts"))
            .collect();
        // Warm-up on every device and method, with a compile seed the
        // streams never use, so no timed key is cached before the run.
        let warm_keys: Vec<Key> = classes
            .iter()
            .map(|class| Key {
                seed: compile_seed + 1000,
                ..keys[class[0]].clone()
            })
            .collect();
        for (i, key) in warm_keys.iter().enumerate() {
            for method in [Method::Compile, Method::CompileEmit, Method::Estimate] {
                let client = &mut clients[i % CLIENTS];
                let line = format!("{{\"id\":0{}", request_tail(key, method));
                client.send_raw(&line).expect("warm-up request is sent");
                let response = client.read_line().expect("warm-up response arrives");
                assert!(
                    response.starts_with("{\"id\":0,\"ok\":true"),
                    "warm-up failed: {response}"
                );
            }
        }
        ServeBench {
            server: Some(server),
            clients,
            keys,
            templates,
            streams,
        }
    }
}

/// The distinct keys, and per device of [`DEVICE_MIX`] its keys in Zipf
/// rank order. The ranks interleave paper benchmarks, generator
/// references and inline circuits, so the hottest keys have the same mix
/// of kinds for every seed; generator cases are spread over each
/// family's parameter grid, so seeds change circuits but not their sizes.
fn key_universe(rng: &mut SplitMix64, compile_seed: u64) -> (Vec<Key>, Vec<Vec<usize>>) {
    let paper: Vec<Program> = Benchmark::ALL
        .iter()
        .map(|b| Program::Named(b.name().to_string()))
        .collect();
    let mut gen_refs = Vec::new();
    let mut inline = Vec::new();
    for family in Family::ALL {
        let grid = family.grid();
        for j in 0..GEN_CASES {
            let params = grid[j * grid.len() / GEN_CASES];
            // A reference names only a seed; find one whose case has these
            // parameters.
            let seed = std::iter::repeat_with(|| rng.below(100_000) as u64)
                .find(|&s| family.generate_case(s).params == params)
                .expect("every grid entry is reachable");
            gen_refs.push(Program::Named(format!("gen:{}:{seed}", family.name())));
        }
        for j in 0..INLINE_CASES {
            let params = grid[j * grid.len() / INLINE_CASES];
            let circuit = family.generate(&params, 100_000 + rng.below(100_000) as u64);
            inline.push(Program::Inline(trios_qasm::emit(&circuit)));
        }
    }
    let mut keys = Vec::new();
    let mut classes = Vec::new();
    for (device, _) in DEVICE_MIX {
        if device == KILOQUBIT_DEVICE {
            let refs = KILOQUBIT_FAMILIES.map(|f| {
                let at = Family::ALL
                    .iter()
                    .position(|&g| g == f)
                    .expect("listed family");
                gen_refs[at * GEN_CASES].clone()
            });
            classes.push(push_keys(
                &mut keys,
                &refs,
                device,
                &["trios"],
                compile_seed,
            ));
            continue;
        }
        let mut kinds: Vec<Vec<usize>> = [&paper, &gen_refs, &inline]
            .into_iter()
            .map(|programs| {
                let mut ranked =
                    push_keys(&mut keys, programs, device, &SMALL_ROUTERS, compile_seed);
                rng.shuffle(&mut ranked);
                ranked
            })
            .collect();
        let mut ranked = Vec::new();
        while kinds.iter().any(|k| !k.is_empty()) {
            for kind in &mut kinds {
                ranked.extend(kind.pop());
            }
        }
        classes.push(ranked);
    }
    (keys, classes)
}

/// Appends a key per program and router on `device`; returns their indices.
fn push_keys(
    keys: &mut Vec<Key>,
    programs: &[Program],
    device: &'static str,
    routers: &[&'static str],
    seed: u64,
) -> Vec<usize> {
    let start = keys.len();
    for program in programs {
        for &router in routers {
            keys.push(Key {
                program: program.clone(),
                device,
                router,
                seed,
            });
        }
    }
    (start..keys.len()).collect()
}

/// Indices `0..counts.len()`, index `i` repeated `counts[i] * times`
/// times, in shuffled order.
fn shuffled_block(counts: &[usize], times: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut block: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(i, &n)| std::iter::repeat_n(i, n * times))
        .collect();
    rng.shuffle(&mut block);
    block
}

/// The request line of `key` and `method`, minus the leading `{"id":N`.
fn request_tail(key: &Key, method: Method) -> String {
    let mut params = match &key.program {
        Program::Named(name) => format!("\"benchmark\":{}", json_string(name)),
        Program::Inline(qasm) => format!("\"qasm\":{}", json_string(qasm)),
    };
    params.push_str(&format!(
        ",\"device\":\"{}\",\"router\":\"{}\",\"seed\":{}",
        key.device, key.router, key.seed
    ));
    let name = match method {
        Method::Compile => "compile",
        Method::CompileEmit => {
            params.push_str(",\"emit-qasm\":true");
            "compile"
        }
        Method::Estimate => {
            params.push_str(",\"calibration\":\"future\"");
            "estimate"
        }
    };
    format!(",\"method\":\"{name}\",\"params\":{{{params}}}}}")
}

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Cumulative Zipf weights over ranks `0..n`.
struct ZipfTable(Vec<f64>);

impl ZipfTable {
    fn new(n: usize, s: f64) -> ZipfTable {
        let mut total = 0.0;
        ZipfTable(
            (1..=n)
                .map(|rank| {
                    total += (rank as f64).powf(-s);
                    total
                })
                .collect(),
        )
    }

    fn sample(&self, rng: &mut SplitMix64) -> usize {
        let target = rng.next_f64() * self.0.last().expect("non-empty table");
        self.0
            .partition_point(|&c| c <= target)
            .min(self.0.len() - 1)
    }
}

/// One client's closed loop over its stream.
fn client_loop(
    client: &mut Client,
    stream: &[usize],
    templates: &[Template],
    config: &RunConfig,
    start: Instant,
    done: &AtomicUsize,
    tracer: &mut Tracer,
) -> (Vec<Record>, HashMap<(usize, bool), String>) {
    let mut records = Vec::new();
    let mut kept = HashMap::new();
    let mut line = String::new();
    for (id, &template) in stream.iter().cycle().enumerate() {
        let elapsed = start.elapsed();
        if elapsed.as_secs_f64() >= config.seconds && done.load(Ordering::Relaxed) >= config.min_ops
        {
            break;
        }
        let traced = config.trace && (elapsed.as_nanos() / TRACE_SLICE.as_nanos()) % 2 == 1;
        tracer.set_enabled(traced);
        line.clear();
        line.push_str("{\"id\":");
        line.push_str(&id.to_string());
        line.push_str(&templates[template].tail);
        let t0 = Instant::now();
        let response = tracer.span(OP, |t| {
            t.span("server.call", |_| {
                client.send_raw(&line)?;
                client.read_line()
            })
        });
        let elapsed = t0.elapsed();
        let outcome = match response {
            Err(_) => Outcome::Error,
            Ok(text) => classify(&text, &mut kept, template),
        };
        records.push(Record {
            template,
            elapsed,
            traced,
            outcome,
        });
        if !traced {
            done.fetch_add(1, Ordering::Relaxed);
        }
    }
    (records, kept)
}

/// Reads a response: ok or not, cache hit or miss, and fingerprints of
/// everything after the id. The first response per (request, hit/miss)
/// is kept whole for the output checks.
fn classify(text: &str, kept: &mut HashMap<(usize, bool), String>, template: usize) -> Outcome {
    let body = text.find(",\"ok\":").map_or(text, |at| &text[at..]);
    if !body.starts_with(",\"ok\":true") {
        return if body.contains("\"kind\":\"busy\"") {
            Outcome::Busy
        } else {
            Outcome::Error
        };
    }
    let cached = body.contains("\"cached\":true");
    kept.entry((template, cached))
        .or_insert_with(|| text.to_string());
    let raw = fingerprint(&[body]);
    let print = strip_qasm_name(body).map_or(raw, |(head, tail)| fingerprint(&[head, tail]));
    Outcome::Ok { cached, print, raw }
}

/// Splits `body` around the `// <name>` line that heads emitted QASM
/// (JSON-escaped, so it ends in a literal `\n`), if there is one. The
/// cache keys a compile by circuit structure, not name, so a hit can
/// carry the name of whichever request filled the entry.
fn strip_qasm_name(body: &str) -> Option<(&str, &str)> {
    const HEAD: &str = "\"qasm\":\"";
    let start = body.find(HEAD)? + HEAD.len();
    if !body[start..].starts_with("// ") {
        return None;
    }
    let end = start + body[start..].find("\\n")? + 2;
    Some((&body[..start], &body[end..]))
}

impl Bench for ServeBench {
    fn measure(mut self, config: &RunConfig) -> Report {
        let server = self.server.as_ref().expect("set-up started the server");
        let before = server.snapshot();
        let start = Instant::now();
        let done = AtomicUsize::new(0);
        let mut clients = std::mem::take(&mut self.clients);
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(&self.streams)
                .enumerate()
                .map(|(i, (client, stream))| {
                    let (templates, done) = (&self.templates, &done);
                    scope.spawn(move || {
                        let mut tracer = Tracer::new(start, (i as u64) << 40);
                        let (records, kept) = client_loop(
                            client,
                            stream,
                            templates,
                            config,
                            start,
                            done,
                            &mut tracer,
                        );
                        (records, kept, tracer)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread does not panic"))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();
        drop(clients);
        let after = server.snapshot();

        let mut records = Vec::new();
        let mut kept = HashMap::new();
        let mut tracer = Tracer::new(start, 0);
        for (r, k, t) in results {
            records.extend(r);
            for (key, text) in k {
                kept.entry(key).or_insert(text);
            }
            tracer.absorb(t);
        }

        let mut report = Report::default();
        let samples: Vec<OpSample> = records
            .iter()
            .map(|r| OpSample {
                input: r.template,
                elapsed: r.elapsed,
                traced: r.traced,
                ok: matches!(r.outcome, Outcome::Ok { .. }),
            })
            .collect();
        crate::record_samples(&mut report, &samples, wall_s);
        self.check(&records, &kept, &mut report);

        if config.trace {
            let kiloqubit =
                |r: &&Record| self.keys[self.templates[r.template].key].device == KILOQUBIT_DEVICE;
            let rtt = |hit: bool, kilo: bool| {
                let ms: Vec<f64> = records
                    .iter()
                    .filter(|r| matches!(r.outcome, Outcome::Ok { cached, .. } if cached == hit))
                    .filter(|r| kiloqubit(r) == kilo)
                    .map(|r| r.elapsed.as_secs_f64() * 1e3)
                    .collect();
                if ms.is_empty() {
                    0.0
                } else {
                    median(&ms)
                }
            };
            let l = &mut report.layers;
            l.insert("server.rtt_hit_ms", rtt(true, false));
            l.insert("server.rtt_miss_ms", rtt(false, false));
            l.insert("server.rtt_hit_kiloqubit_ms", rtt(true, true));
            l.insert("server.queue_high_water", after.queue_high_water as f64);
            l.insert(
                "server.busy",
                records
                    .iter()
                    .filter(|r| r.outcome == Outcome::Busy)
                    .count() as f64,
            );
            let hits = after.cache.hits - before.cache.hits;
            let lookups = after.cache.lookups() - before.cache.lookups();
            l.insert("core.cache.hit_ratio", hits as f64 / lookups as f64);
            l.insert(
                "core.cache.evictions",
                after.cache.misses.saturating_sub(after.cache.len as u64) as f64,
            );
            tracer.summary().fill(&[], l);
            if let Some(ms) = crate::trace_overhead_ms(&samples) {
                l.insert("trace.overhead_ms", ms);
            }
            let path = trace_path("serve-mix", config.seed);
            match tracer.write_jsonl(&path) {
                Ok(()) => report
                    .notes
                    .push(format!("spans written to {}", path.display())),
                Err(e) => report.fail(0, format!("cannot write {}: {e}", path.display())),
            }
        }
        let mut untraced: Vec<&Record> = records.iter().filter(|r| !r.traced).collect();
        untraced.sort_by_key(|r| r.elapsed);
        let beyond = &untraced[untraced.len() - untraced.len() / 100..];
        let kiloqubit_hits = beyond
            .iter()
            .filter(|r| self.keys[self.templates[r.template].key].device == KILOQUBIT_DEVICE)
            .filter(|r| matches!(r.outcome, Outcome::Ok { cached: true, .. }))
            .count();
        report.notes.push(format!(
            "{kiloqubit_hits} of the {} slowest 1% of requests are {KILOQUBIT_DEVICE} cache hits",
            beyond.len()
        ));
        report.notes.push(format!(
            "cache: {} hits / {} lookups in the timed phase, {} entries of {}",
            after.cache.hits - before.cache.hits,
            after.cache.lookups() - before.cache.lookups(),
            after.cache.len,
            after.cache.capacity
        ));
        report
    }
}

impl ServeBench {
    /// The output checks: every response to one request (hit or miss)
    /// is identical, and its stats, estimate and emitted QASM equal a
    /// library compile of the same request. Also fills the counts, over
    /// every key of the traffic.
    fn check(
        &self,
        records: &[Record],
        kept: &HashMap<(usize, bool), String>,
        report: &mut Report,
    ) {
        let mut expected: HashMap<(usize, bool), (u64, u64)> = HashMap::new();
        let mut differ = vec![false; self.templates.len()];
        let mut renamed = vec![false; self.templates.len()];
        for r in records {
            match r.outcome {
                Outcome::Ok { cached, print, raw } => {
                    let first = *expected.entry((r.template, cached)).or_insert((print, raw));
                    differ[r.template] |= first.0 != print;
                    renamed[r.template] |= first.0 == print && first.1 != raw;
                }
                Outcome::Busy | Outcome::Error => {}
            }
        }
        for (t, _) in differ.iter().enumerate().filter(|(_, d)| **d) {
            report.fail(0, format!("request {t}: responses differ between ops"));
        }
        if let Some(r) = records.iter().find(|r| r.outcome == Outcome::Error) {
            report.fail(0, format!("request {}: error response", r.template));
        }
        let renamed = renamed.iter().filter(|r| **r).count();
        if renamed > 0 {
            report.notes.push(format!(
                "{renamed} requests got emitted QASM named after another request's circuit \
                 (cache hits keep the name of the request that filled the entry)"
            ));
        }

        let calibration = Calibration::near_future();
        let mut compiled: HashMap<usize, CompiledProgram> = HashMap::new();
        let mut probabilities = Vec::new();
        let mut gather = Vec::new();
        for (k, key) in self.keys.iter().enumerate() {
            match library_compile(key) {
                Ok((program, report_passes)) => {
                    let c = &mut report.counts;
                    c.two_qubit_gates += program.stats.two_qubit_gates as u64;
                    c.swaps += program.stats.swap_count as u64;
                    c.depth += program.stats.depth as u64;
                    c.route_gates_out += report_passes.0;
                    c.optimize_gates_out += report_passes.1;
                    gather.extend(program.stats.mean_gather_distance);
                    probabilities.push(program.estimate_success(&calibration).probability());
                    compiled.insert(k, program);
                }
                Err(message) => report.fail(0, message),
            }
        }
        report.counts.success_geomean = geomean(&probabilities);
        report.counts.gather_distance_mean = if gather.is_empty() {
            0.0
        } else {
            mean(&gather)
        };

        for (&(t, cached), text) in kept {
            let template = &self.templates[t];
            let Some(program) = compiled.get(&template.key) else {
                continue;
            };
            if let Err(message) = check_response(
                &self.keys[template.key],
                template,
                program,
                text,
                &calibration,
            ) {
                let ops = records
                    .iter()
                    .filter(|r| {
                        r.template == t
                            && matches!(r.outcome, Outcome::Ok { cached: c, .. } if c == cached)
                    })
                    .count() as u64;
                report.fail(
                    ops,
                    format!(
                        "request {t} ({}): {message}",
                        if cached { "hit" } else { "miss" }
                    ),
                );
            }
        }
    }
}

/// The library compile of `key`, and the gates leaving its route and
/// optimize passes.
fn library_compile(key: &Key) -> Result<(CompiledProgram, (u64, u64)), String> {
    let circuit = key_circuit(key)?;
    let device = parse_spec(key.device).map_err(|e| e.to_string())?;
    let (program, report) = Compiler::builder()
        .router(key.router)
        .seed(key.seed)
        .build()
        .compile_with_report(&circuit, &device)
        .map_err(|d| d.to_string())?;
    let gates_out = |name: &str| {
        report
            .passes
            .iter()
            .filter(|p| p.pass.starts_with(name))
            .map(|p| p.gates_after.total as u64)
            .sum::<u64>()
    };
    let counts = (gates_out("route"), gates_out("optimize"));
    Ok((program, counts))
}

fn key_circuit(key: &Key) -> Result<Circuit, String> {
    match &key.program {
        Program::Inline(qasm) => trios_qasm::parse(qasm).map_err(|e| e.to_string()),
        Program::Named(name) => {
            if let Some(b) = Benchmark::ALL.into_iter().find(|b| b.name() == name) {
                return Ok(b.build());
            }
            let rest = name.strip_prefix("gen:").ok_or("unknown benchmark")?;
            let (family, seed) = rest.split_once(':').ok_or("bad gen reference")?;
            let family = Family::parse(family).ok_or("unknown family")?;
            let seed = seed.parse().map_err(|_| "bad gen seed")?;
            Ok(family.generate_case(seed).circuit)
        }
    }
}

/// One kept response against the library compile of its key.
fn check_response(
    key: &Key,
    template: &Template,
    program: &CompiledProgram,
    text: &str,
    calibration: &Calibration,
) -> Result<(), String> {
    let value = serde_json::from_str(text).map_err(|e| format!("response is not JSON: {e}"))?;
    let result = value.get("result").ok_or("response has no result")?;
    let stats = result.get("stats").ok_or("result has no stats")?;
    let s = &program.stats;
    for (field, want) in [
        ("two_qubit_gates", s.two_qubit_gates),
        ("one_qubit_gates", s.one_qubit_gates),
        ("swap_count", s.swap_count),
        ("depth", s.depth),
    ] {
        let got = stats.get(field).and_then(|v| v.as_u64());
        if got != Some(want as u64) {
            return Err(format!("{field} is {got:?}, the library compiles {want}"));
        }
    }
    let duration = stats.get("duration_us").and_then(|v| v.as_f64());
    if !duration.is_some_and(|d| (d - s.duration_us).abs() <= 1e-9 * s.duration_us.abs().max(1.0)) {
        return Err(format!(
            "duration_us is {duration:?}, the library compiles {}",
            s.duration_us
        ));
    }
    match template.method {
        Method::Compile => {}
        Method::Estimate => {
            let got = result
                .get("success")
                .and_then(|v| v.get("probability"))
                .and_then(|v| v.as_f64());
            let want = program.estimate_success(calibration).probability();
            if !got.is_some_and(|p| (p - want).abs() <= 1e-12 * want.max(1e-300)) {
                return Err(format!(
                    "success probability is {got:?}, the library estimates {want}"
                ));
            }
        }
        Method::CompileEmit => {
            let qasm = result
                .get("qasm")
                .and_then(|v| v.as_str())
                .ok_or("no qasm in the response")?;
            crate::check_emitted(qasm, &program.circuit, key.device)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qasm_name_comment_does_not_change_the_fingerprint() {
        let named = r#"{"id":1,"ok":true,"result":{"cached":true,"qasm":"// qft-n3-s4\nOPENQASM 2.0;\ncx q[0], q[1];\n"}}"#;
        let anonymous = r#"{"id":2,"ok":true,"result":{"cached":true,"qasm":"OPENQASM 2.0;\ncx q[0], q[1];\n"}}"#;
        let mut kept = HashMap::new();
        let (a, b) = (
            classify(named, &mut kept, 0),
            classify(anonymous, &mut kept, 0),
        );
        let (
            Outcome::Ok {
                print: pa, raw: ra, ..
            },
            Outcome::Ok {
                print: pb, raw: rb, ..
            },
        ) = (a, b)
        else {
            panic!("both responses are ok: {a:?} {b:?}");
        };
        assert_eq!(pa, pb);
        assert_ne!(ra, rb);
    }

    #[test]
    fn errors_and_busy_are_told_apart() {
        let mut kept = HashMap::new();
        let busy = r#"{"id":1,"ok":false,"error":{"kind":"busy","message":"queue full"}}"#;
        let bad = r#"{"id":1,"ok":false,"error":{"kind":"bad-request","message":"no"}}"#;
        assert_eq!(classify(busy, &mut kept, 0), Outcome::Busy);
        assert_eq!(classify(bad, &mut kept, 0), Outcome::Error);
        assert!(kept.is_empty());
    }
}
