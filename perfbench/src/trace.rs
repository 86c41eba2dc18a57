//! The traced run: the workload's seeded inputs replayed in-process, with
//! a span around every call the benchmark makes into a layer's public
//! functions.
//!
//! Each request goes through two paths. The *service path* is what the
//! server does: `Request::parse`, `Session::handle`, `Response::encode`
//! (spans `service.*`). The *layer path* repeats the request's work one
//! layer at a time, the way `Session` composes it: model build and quant
//! application (`dnn.*`), compile through an artifact cache
//! (`compiler.*`), per-layer evaluation through a layer cache (`sim.*`),
//! energy (`energy.*`), segment-program compile and replay for the event
//! backend (`isa.*`), and the comparison baselines (`baselines.*`). For
//! `report` requests the layer path's cycle total is checked against the
//! service path's reply, so the layers timed are the ones the service ran.
//!
//! The replay runs three times, each on fresh state: untraced for a third
//! of the window, then traced, then untraced again, over exactly the same
//! requests; none of them times the generation of those requests. The
//! rate difference is the tracing overhead. Serve workloads then replay a
//! prefix of the same requests over a socket to a fresh server for the
//! `net.*` metrics. Spans stay in memory and are written to `.perfbench/`
//! when the run ends.

use std::hint::black_box;
use std::io::{self, Write};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use bitfusion::baselines::{EyerissSim, GpuMode, GpuModel, StripesSim};
use bitfusion::compiler::{
    choose_tiling, compile, fuse_layers, layer_fingerprint, layer_to_gemm, ArtifactCache,
    ArtifactKey, CacheStats, CachedPlan, ExecutionPlan, LayerKey, PostOp,
};
use bitfusion::core::arch::ArchConfig;
use bitfusion::dnn::model::Model;
use bitfusion::dnn::quantspec::QuantSpec;
use bitfusion::dnn::schema::model_from_json;
use bitfusion::energy::FusionEnergy;
use bitfusion::isa::{summarize, SegmentProgram};
use bitfusion::service::json::{self, Json};
use bitfusion::service::protocol::{BackendChoice, ModelSource, SweepAxis};
use bitfusion::service::session::{
    arch_config, find_benchmark, SWEEP_BANDWIDTHS, SWEEP_BANDWIDTH_BATCH, SWEEP_BATCHES,
};
use bitfusion::service::{Request, Response, Session};
use bitfusion::sim::{
    energy_for_layer, eval_context, AnalyticBackend, EventBackend, LayerPerfCache, SimBackend,
    SimOptions,
};

use crate::gen::{self, ChurnGen, KeyDraw};
use crate::proc::Server;
use crate::workload::Ctx;
use crate::{stats, Metric, Outcome};

/// One recorded span: a named interval and the span that caused it.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// In-memory span recorder. When off, `span` only calls its closure.
struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    fn new(on: bool) -> Self {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        out
    }

    /// Each span's self time: its duration minus its children's.
    fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    /// Summed self time of every span named `name`.
    fn total(&self, self_times: &[Duration], name: &str) -> Duration {
        self.spans
            .iter()
            .zip(self_times)
            .filter(|(s, _)| s.name == name)
            .map(|(_, d)| *d)
            .sum()
    }

    fn write(&self, path: &std::path::Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(Json::Null, |p| Json::uint(p as u64));
            let span = Json::obj(vec![
                ("id", Json::uint(id as u64)),
                ("parent", parent),
                ("name", Json::Str(s.name.to_string())),
                ("start_ns", Json::uint(s.start.as_nanos() as u64)),
                ("end_ns", Json::uint(s.end.as_nanos() as u64)),
            ]);
            writeln!(out, "{}", span.encode())?;
        }
        out.flush()
    }
}

/// Counts taken at the layer boundaries.
#[derive(Debug, Default)]
struct Counts {
    compile_calls: u64,
    layer_evals: u64,
    segments: u64,
    reply_bytes: u64,
    error_replies: u64,
    mismatched_cycles: u64,
    artifact: CacheStats,
    layer: CacheStats,
}

/// Adds the counters a session gained since `base` into `into`.
fn accumulate(into: &mut CacheStats, now: CacheStats, base: CacheStats) {
    into.hits += now.hits - base.hits;
    into.misses += now.misses - base.misses;
    into.evictions += now.evictions - base.evictions;
}

/// Replay state: a real session for the service path and the caches the
/// layer path compiles and evaluates through.
struct Replay {
    session: Session,
    plans: ArtifactCache,
    layers: LayerPerfCache,
    options: SimOptions,
    energy: FusionEnergy,
    counts: Counts,
    /// Session counters when the current timed stretch began.
    base: (CacheStats, CacheStats),
}

impl Replay {
    fn new() -> Self {
        let session = Session::new();
        let base = (session.cache_stats(), session.layer_cache_stats());
        Replay {
            options: session.options(),
            session,
            plans: ArtifactCache::default(),
            layers: LayerPerfCache::default(),
            energy: FusionEnergy::isca_45nm(),
            counts: Counts::default(),
            base,
        }
    }

    /// Closes the session's stretch: its cache counters since `base` go
    /// into the run's counts.
    fn settle(&mut self) {
        let (artifact, layer) = self.base;
        accumulate(
            &mut self.counts.artifact,
            self.session.cache_stats(),
            artifact,
        );
        accumulate(
            &mut self.counts.layer,
            self.session.layer_cache_stats(),
            layer,
        );
        self.base = (self.session.cache_stats(), self.session.layer_cache_stats());
    }

    /// Answers `line` through both paths; returns the reply and the
    /// service path's own time.
    fn request(&mut self, rec: &mut Recorder, line: &str) -> (String, Duration) {
        rec.span("request", |rec| {
            let t0 = Instant::now();
            let parsed = rec.span("service.parse", |_| Request::parse(line));
            let mut service = t0.elapsed();
            let Ok(request) = parsed else {
                self.counts.error_replies += 1;
                return (String::new(), service);
            };
            let cycles = rec.span("layers", |rec| self.layer_path(rec, line, &request));
            let t1 = Instant::now();
            let response = rec.span("service.handle", |_| self.session.handle(&request));
            let reply = rec.span("service.encode", |_| response.encode());
            service += t1.elapsed();
            self.counts.reply_bytes += reply.len() as u64;
            match &response {
                Response::Error { .. } => self.counts.error_replies += 1,
                Response::Report(r) if cycles != Some(r.cycles) => {
                    self.counts.mismatched_cycles += 1
                }
                _ => {}
            }
            (reply, service)
        })
    }

    /// The request's work, one layer at a time. Returns the total cycles
    /// of a `report`, for the cross-check against the service path.
    fn layer_path(&mut self, rec: &mut Recorder, line: &str, request: &Request) -> Option<u64> {
        match request {
            Request::Report {
                model,
                batch,
                bandwidth,
                arch,
                backend,
                quant,
            } => {
                let (model, _) = self.resolve(rec, line, model, quant.as_deref())?;
                let mut arch = arch_config(*arch);
                if let Some(bw) = bandwidth {
                    arch = arch.with_bandwidth(*bw);
                }
                let plan = self.compile(rec, &model, &arch, *batch);
                self.evaluate(rec, plan.as_ref().as_ref().ok()?, &arch, *backend)
            }
            Request::Compare {
                model,
                batch,
                backend,
                quant,
            } => {
                let (model, reference) = self.resolve(rec, line, model, quant.as_deref())?;
                for arch in [
                    ArchConfig::isca_45nm(),
                    ArchConfig::stripes_matched(),
                    ArchConfig::gpu_16nm(),
                ] {
                    let plan = self.compile(rec, &model, &arch, *batch);
                    self.evaluate(rec, plan.as_ref().as_ref().ok()?, &arch, *backend);
                }
                rec.span("baselines.eval", |_| {
                    black_box(EyerissSim::default().run(&reference, *batch));
                    black_box(StripesSim::default().run(&model, *batch));
                    black_box(GpuModel::tegra_x2().run(&reference, *batch, GpuMode::Fp32));
                });
                None
            }
            Request::Sweep {
                model,
                axis,
                backend,
                quant,
            } => {
                let (model, _) = self.resolve(rec, line, model, quant.as_deref())?;
                let arch = ArchConfig::isca_45nm();
                match axis {
                    SweepAxis::Bandwidth => {
                        let plan = self.compile(rec, &model, &arch, SWEEP_BANDWIDTH_BATCH);
                        for bw in SWEEP_BANDWIDTHS {
                            let arch = arch.clone().with_bandwidth(bw);
                            self.evaluate(rec, plan.as_ref().as_ref().ok()?, &arch, *backend);
                        }
                    }
                    SweepAxis::Batch => {
                        for batch in SWEEP_BATCHES {
                            let plan = self.compile(rec, &model, &arch, batch);
                            self.evaluate(rec, plan.as_ref().as_ref().ok()?, &arch, *backend);
                        }
                    }
                }
                None
            }
            Request::Quantize { model, quant } => {
                self.resolve(rec, line, model, quant.as_deref());
                None
            }
            _ => None,
        }
    }

    /// Builds the (quantized) model a request names, and the 16-bit
    /// reference model `compare` runs the precision-blind baselines on.
    fn resolve(
        &mut self,
        rec: &mut Recorder,
        line: &str,
        source: &ModelSource,
        quant: Option<&str>,
    ) -> Option<(Model, Model)> {
        let (base, reference) = match source {
            ModelSource::Zoo(name) => {
                let b = find_benchmark(name).ok()?;
                rec.span("dnn.model_build", |_| (b.model(), b.reference_model()))
            }
            ModelSource::External(_) => {
                // The document as the request carried it; the JSON text
                // itself was parsed by `service.parse`.
                let doc = json::parse(line).ok()?;
                let model = rec.span("dnn.parse_model", |_| {
                    model_from_json(doc.get("model")?).ok()
                })?;
                let reference = rec.span("dnn.quant_apply", |_| {
                    QuantSpec::uniform(16).and_then(|s| s.apply(&model))
                });
                (model, reference.ok()?)
            }
        };
        let model = rec.span("dnn.quant_apply", |_| {
            quant
                .map_or(Ok(QuantSpec::paper()), QuantSpec::parse)
                .and_then(|spec| spec.apply(&base))
        });
        Some((model.ok()?, reference))
    }

    /// Compiles through the layer path's artifact cache; on a miss also
    /// times fusion and tile selection for the same inputs.
    fn compile(
        &mut self,
        rec: &mut Recorder,
        model: &Model,
        arch: &ArchConfig,
        batch: u64,
    ) -> CachedPlan {
        let key = ArtifactKey::of(model, arch, batch);
        if let Some(plan) = self.plans.lookup(&key) {
            return plan;
        }
        self.counts.compile_calls += 1;
        let plan: CachedPlan =
            std::sync::Arc::new(rec.span("compiler.compile", |_| compile(model, arch, batch)));
        let groups = rec.span("compiler.fuse", |_| fuse_layers(model, batch));
        rec.span("compiler.tiling", |_| {
            for (gi, group) in groups.iter().enumerate() {
                let output_bits = groups
                    .get(gi + 1)
                    .and_then(|g| model.layers[g.mac_index].layer.precision())
                    .map_or(8, |p| p.input.bits());
                let residual: u64 = group.postops.iter().map(PostOp::extra_input_bits).sum();
                if let Some(gemm) =
                    layer_to_gemm(&model.layers[group.mac_index].layer, batch, output_bits)
                {
                    black_box(choose_tiling(&gemm, arch, residual).ok());
                }
            }
        });
        self.plans.insert(key, plan.clone());
        plan
    }

    /// Evaluates a plan layer by layer through the layer cache; returns
    /// its total cycles.
    fn evaluate(
        &mut self,
        rec: &mut Recorder,
        plan: &ExecutionPlan,
        arch: &ArchConfig,
        backend: Option<BackendChoice>,
    ) -> Option<u64> {
        let event = backend.unwrap_or(self.session.backend()) == BackendChoice::Event;
        let sim: &dyn SimBackend = if event {
            &EventBackend
        } else {
            &AnalyticBackend
        };
        let context = eval_context(sim.name(), &self.options);
        let mut cycles = 0u64;
        for layer in &plan.layers {
            let key = LayerKey::of(layer_fingerprint(layer), arch, plan.batch, context);
            if let Some(perf) = self.layers.lookup(&key) {
                cycles += perf.cycles;
                continue;
            }
            self.counts.layer_evals += 1;
            let name = if event {
                "sim.event_eval"
            } else {
                "sim.analytic_eval"
            };
            let perf = rec.span(name, |_| {
                sim.evaluate_layer(layer, arch, &self.energy, &self.options)
            });
            let summary = summarize(&layer.block);
            rec.span("energy.eval", |_| {
                black_box(energy_for_layer(
                    layer,
                    arch,
                    &self.energy,
                    &self.options,
                    &summary,
                ))
            });
            if event {
                let program = rec.span("isa.program_compile", |_| {
                    SegmentProgram::compile(&layer.block)
                });
                let mut segments = 0u64;
                rec.span("isa.replay", |_| {
                    program.replay(&mut |_, _, _| segments += 1)
                });
                self.counts.segments += segments;
            }
            cycles += perf.cycles;
            self.layers.insert(key, perf);
        }
        Some(cycles)
    }
}

/// The workload's inputs as the replay sees them: the warm-up keys and
/// the request stream.
struct Inputs {
    warm: Vec<String>,
    next: Box<dyn FnMut() -> String>,
}

fn inputs(name: &str, seed: u64) -> Inputs {
    match name {
        "serve_churn" => {
            let mut g = ChurnGen::new(seed);
            Inputs {
                warm: Vec::new(),
                next: Box::new(move || g.next_request().line),
            }
        }
        _ => {
            // serve_hot alternates its two connections' draws;
            // serve_connect has one.
            let keys = gen::hot_keys();
            let conns = if name == "serve_hot" { 2 } else { 1 };
            let mut draws: Vec<KeyDraw> = (0..conns)
                .map(|c| KeyDraw::new(seed, c, keys.len()))
                .collect();
            let mut i = 0;
            let stream = keys.clone();
            Inputs {
                warm: keys,
                next: Box::new(move || {
                    i += 1;
                    let conn = i % draws.len();
                    stream[draws[conn].next_index()].clone()
                }),
            }
        }
    }
}

/// Requests whose replies and service times a pass keeps, for the
/// socket replay of the serve workloads.
const PREFIX: usize = 2000;

/// One pass of the replay: the lines it answered, the replies and service
/// times of the first [`PREFIX`], a digest of every reply, its wall time
/// and its final state.
struct Pass {
    lines: Vec<String>,
    replies: Vec<String>,
    service: Vec<Duration>,
    digest: u64,
    wall: Duration,
    replay: Replay,
}

/// Replays `lines`, or with `None` as many fresh lines from `input` as
/// fit in `budget`, on fresh state warmed with the workload's warm keys.
fn pass(
    rec: &mut Recorder,
    input: &mut Inputs,
    lines: Option<Vec<String>>,
    budget: Duration,
) -> Pass {
    let mut replay = Replay::new();
    let mut off = Recorder::new(false);
    for key in &input.warm {
        replay.request(&mut off, key);
    }
    replay.settle();
    replay.counts = Counts::default();
    let fixed = lines.is_some();
    let mut lines = lines.unwrap_or_default();
    let (mut replies, mut service) = (Vec::new(), Vec::new());
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    // Generating a line is left out of the pass's wall time, so the first
    // pass times the same work as the two that replay its lines.
    let mut generating = Duration::ZERO;
    let start = Instant::now();
    for i in 0.. {
        if fixed && i == lines.len() || !fixed && start.elapsed() - generating >= budget {
            break;
        }
        if !fixed {
            let t0 = Instant::now();
            lines.push((input.next)());
            generating += t0.elapsed();
        }
        let (reply, t) = replay.request(rec, &lines[i]);
        for b in reply.bytes().chain([b'\n']) {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
        if i < PREFIX {
            replies.push(reply);
            service.push(t);
        }
    }
    let wall = start.elapsed() - generating;
    replay.settle();
    Pass {
        lines,
        replies,
        service,
        digest,
        wall,
        replay,
    }
}

/// Socket-side figures for a serve workload.
struct NetFigures {
    overhead_us: f64,
    server_p50_ms: f64,
    coalesced: f64,
    shed: f64,
    connect_ms: f64,
    attempted: u64,
    failed: u64,
}

/// Replays a prefix of the traced requests over one keep-alive connection
/// to a fresh server, then times fresh connections against keep-alive
/// round trips of one warm request.
fn net_figures(
    ctx: &Ctx<'_>,
    name: &str,
    warm: &[String],
    traced: &Pass,
) -> io::Result<NetFigures> {
    const PREFIX_BUDGET: Duration = Duration::from_secs(2);
    const CONNECT_PROBES: usize = 30;
    let server = Server::spawn(
        ctx.cli,
        ctx.scratch
            .join(format!("trace-{name}-{}.sock", std::process::id())),
    )?;
    let mut admin = server.connect()?;
    for key in warm {
        admin.call(key)?;
    }
    let before = admin.stats()?;
    let mut conn = server.connect()?;
    let (mut rtt, mut service, mut failed) = (Duration::ZERO, Duration::ZERO, 0);
    let start = Instant::now();
    let mut sent = 0;
    for ((line, reply), t) in traced
        .lines
        .iter()
        .zip(&traced.replies)
        .zip(&traced.service)
        .take(PREFIX)
    {
        if start.elapsed() >= PREFIX_BUDGET {
            break;
        }
        let t0 = Instant::now();
        let got = conn.call(line)?;
        rtt += t0.elapsed();
        service += *t;
        failed += u64::from(got != reply);
        sent += 1;
    }
    let after = admin.stats()?;
    // Connection cost: fresh connect + request against the keep-alive
    // round trip of the same (now warm) request.
    let probe = &traced.lines[0];
    conn.call(probe)?;
    let (mut fresh, mut kept) = (Vec::new(), Vec::new());
    for _ in 0..CONNECT_PROBES {
        let t0 = Instant::now();
        server.connect()?.call(probe)?;
        fresh.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        conn.call(probe)?;
        kept.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    drop(conn);
    server.shutdown(admin)?;
    let per_req = |n: u64| n as f64 / sent.max(1) as f64;
    Ok(NetFigures {
        overhead_us: (rtt.as_secs_f64() - service.as_secs_f64()) * 1e6 / sent.max(1) as f64,
        server_p50_ms: after.latency.p50_us as f64 / 1e3,
        coalesced: per_req(after.coalesced - before.coalesced),
        shed: per_req(after.shed - before.shed),
        connect_ms: stats::median(&fresh) - stats::median(&kept),
        attempted: sent as u64,
        failed,
    })
}

/// Median wall time of a trivial CLI call: process start-up cost.
fn cli_spawn_ms(ctx: &Ctx<'_>) -> io::Result<f64> {
    let mut samples = Vec::new();
    for _ in 0..21 {
        let t0 = Instant::now();
        let status = Command::new(ctx.cli)
            .arg("list")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()?;
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
        if !status.success() {
            return Err(io::Error::other("bitfusion-cli list failed"));
        }
    }
    Ok(stats::median(&samples))
}

fn share(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Runs the traced replay of workload `name` and reports the per-layer
/// metrics.
pub fn run(name: &str, ctx: &Ctx<'_>) -> io::Result<Outcome> {
    let mut input = inputs(name, ctx.seed);
    let mut off = Recorder::new(false);
    // Untraced, traced, untraced again over the same requests: the two
    // untraced passes bracket the traced one, so warm-up effects of the
    // process do not land on one side of the overhead.
    let untraced = pass(&mut off, &mut input, None, ctx.window / 3);
    let mut rec = Recorder::new(true);
    let traced = pass(
        &mut rec,
        &mut input,
        Some(untraced.lines.clone()),
        Duration::ZERO,
    );
    let again = pass(
        &mut off,
        &mut input,
        Some(untraced.lines.clone()),
        Duration::ZERO,
    );
    let n = traced.lines.len() as f64;
    let own = rec.self_times();
    let ms = |span: &str| rec.total(&own, span).as_secs_f64() * 1e3 / n;
    let us = |span: &str| ms(span) * 1e3;
    let c = &traced.replay.counts;
    let per_req = |v: u64| v as f64 / n;
    let net = net_figures(ctx, name, &input.warm, &traced)?;
    let untraced_rps = 2.0 * n / (untraced.wall + again.wall).as_secs_f64();
    let traced_rps = n / traced.wall.as_secs_f64();
    eprintln!(
        "perfbench: traced {} requests: {:.1} req/s untraced ({:.3} s, {:.3} s), {:.1} req/s traced ({:.3} s); {} spans",
        traced.lines.len(),
        untraced_rps,
        untraced.wall.as_secs_f64(),
        again.wall.as_secs_f64(),
        traced_rps,
        traced.wall.as_secs_f64(),
        rec.spans.len()
    );
    let metrics = vec![
        Metric::new("compiler.compile_ms", ms("compiler.compile"), "ms/req"),
        Metric::new("compiler.compile_calls", per_req(c.compile_calls), "1/req"),
        Metric::new("compiler.fuse_ms", ms("compiler.fuse"), "ms/req"),
        Metric::new("compiler.tiling_ms", ms("compiler.tiling"), "ms/req"),
        Metric::new(
            "compiler.artifact_hit_share",
            share(c.artifact.hits, c.artifact.misses),
            "share",
        ),
        Metric::new(
            "compiler.artifact_evictions",
            per_req(c.artifact.evictions),
            "1/req",
        ),
        Metric::new(
            "isa.program_compile_ms",
            ms("isa.program_compile"),
            "ms/req",
        ),
        Metric::new("isa.replay_ms", ms("isa.replay"), "ms/req"),
        Metric::new("isa.segments", per_req(c.segments), "1/req"),
        Metric::new("sim.event_eval_ms", ms("sim.event_eval"), "ms/req"),
        Metric::new("sim.analytic_eval_ms", ms("sim.analytic_eval"), "ms/req"),
        Metric::new("sim.layer_evals", per_req(c.layer_evals), "1/req"),
        Metric::new(
            "sim.layer_hit_share",
            share(c.layer.hits, c.layer.misses),
            "share",
        ),
        Metric::new("energy.eval_us", us("energy.eval"), "us/req"),
        Metric::new("dnn.model_build_us", us("dnn.model_build"), "us/req"),
        Metric::new("dnn.quant_apply_us", us("dnn.quant_apply"), "us/req"),
        Metric::new("dnn.parse_model_us", us("dnn.parse_model"), "us/req"),
        Metric::new("baselines.eval_us", us("baselines.eval"), "us/req"),
        Metric::new("service.parse_us", us("service.parse"), "us/req"),
        Metric::new("service.handle_us", us("service.handle"), "us/req"),
        Metric::new("service.encode_us", us("service.encode"), "us/req"),
        Metric::new("service.reply_bytes", per_req(c.reply_bytes), "B/req"),
        Metric::new("net.overhead_us", net.overhead_us, "us/req"),
        Metric::new("net.server_p50_ms", net.server_p50_ms, "ms"),
        Metric::new("net.coalesced", net.coalesced, "1/req"),
        Metric::new("net.shed", net.shed, "1/req"),
        Metric::new("net.connect_ms", net.connect_ms, "ms"),
        Metric::new("cli.spawn_ms", cli_spawn_ms(ctx)?, "ms"),
        Metric::new("trace.untraced_rps", untraced_rps, "1/s"),
        Metric::new("trace.traced_rps", traced_rps, "1/s"),
        Metric::new("trace.overhead_rps", traced_rps - untraced_rps, "1/s"),
    ];
    rec.write(&ctx.scratch.join(format!("trace-{name}-{}.jsonl", ctx.seed)))?;
    let replayed = traced.lines.len() as u64;
    Ok(Outcome {
        metrics,
        attempted: replayed + net.attempted,
        failed: c.error_replies + net.failed,
        checks: vec![
            (
                "layer-path cycles equal every report reply".to_string(),
                c.mismatched_cycles == 0,
            ),
            (
                "untraced and traced passes gave the same replies".to_string(),
                untraced.digest == traced.digest && again.digest == traced.digest,
            ),
        ],
    })
}
