//! The three untraced workloads. Each drives the real `bitfusion-cli`
//! binary, times a closed loop for the run's window, checks every reply
//! byte for byte against a fresh in-process `Session`, and gathers the
//! server's own `stats` as evidence that the workload did what it is for.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bitfusion::service::protocol::StatsReply;
use bitfusion::service::{Request, Response, Session};

use crate::gen::{self, ChurnGen, KeyDraw};
use crate::proc::{peak_rss_kib, process_cpu, Conn, CpuMask, Server};
use crate::stats::Latency;

/// Server set-ups per run whose times give `setup_s` (a median).
const SETUPS: usize = 9;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["serve_hot", "serve_churn", "serve_connect"];

/// What one untraced run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Set-up time of each repetition, seconds.
    pub setups_s: Vec<f64>,
    /// Every completed timed request.
    pub latencies: Vec<Latency>,
    /// The timed window's wall time, seconds.
    pub window_s: f64,
    /// CPU time of the program under test over the window, milliseconds.
    pub cpu_ms: f64,
    /// Peak resident set of the program under test, MiB.
    pub peak_rss_mb: f64,
    /// Timed requests sent.
    pub attempted: u64,
    /// Timed requests answered with the reference bytes.
    pub ok: u64,
    /// Named pass/fail evidence (reply checks outside the window, stats).
    pub checks: Vec<(String, bool)>,
}

impl Run {
    fn check(&mut self, name: impl Into<String>, pass: bool) {
        self.checks.push((name.into(), pass));
    }
}

/// Everything a workload needs from the command line.
pub struct Ctx<'a> {
    /// The `bitfusion-cli` binary under test.
    pub cli: &'a Path,
    /// Directory for sockets (inside the checkout; relative keeps the
    /// socket path short).
    pub scratch: &'a Path,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub window: Duration,
}

impl Ctx<'_> {
    fn socket(&self, tag: &str) -> PathBuf {
        self.scratch
            .join(format!("{tag}-{}.sock", std::process::id()))
    }
}

/// Runs workload `name`.
pub fn run(name: &str, ctx: &Ctx<'_>) -> io::Result<Run> {
    match name {
        "serve_hot" => serve_hot(ctx),
        "serve_churn" => serve_churn(ctx),
        "serve_connect" => serve_connect(ctx),
        other => Err(io::Error::other(format!("unknown workload `{other}`"))),
    }
}

/// The reference reply line of `request`: what a fresh session answers.
pub fn reference(session: &Session, request: &str) -> String {
    match Request::parse(request) {
        Ok(r) => session.handle(&r).encode(),
        Err(message) => Response::Error { message }.encode(),
    }
}

/// A reference reply, and whether a reply equal to it counts as correct:
/// well-formed and not an error. Judged once, before the timed window.
struct Expected {
    line: String,
    valid: bool,
}

impl Expected {
    fn new(line: String) -> Self {
        let valid = !line.starts_with(r#"{"reply":"error""#) && Response::parse(&line).is_ok();
        Expected { line, valid }
    }

    /// Whether `reply` is correct: byte-equal to a valid reference.
    fn matches(&self, reply: &str) -> bool {
        self.valid && reply == self.line
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A request that took `took` and has just completed, in a window opened
/// at `start`.
fn latency(start: Instant, took: Duration) -> Latency {
    Latency {
        done_s: start.elapsed().as_secs_f64(),
        ms: ms(took),
    }
}

/// A server brought up for the timed window, with the admin connection
/// that warmed it and reads its `stats`.
struct Up {
    server: Server,
    admin: Conn,
}

/// Starts [`SETUPS`] servers one after another, timing each from
/// spawn until it has answered the `warm` pass (or, with no warm keys,
/// its first reply). All but the last are shut down again. Warm replies
/// are checked against `expected`.
fn bring_up(
    ctx: &Ctx<'_>,
    tag: &str,
    warm: &[String],
    expected: &[Expected],
    run: &mut Run,
) -> io::Result<Up> {
    let mut warm_ok = true;
    let mut up = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let server = Server::spawn(ctx.cli, ctx.socket(&format!("{tag}{i}")))?;
        let mut admin = server.connect()?;
        if warm.is_empty() {
            admin.call(r#"{"cmd":"stats"}"#)?;
        }
        for (key, expected) in warm.iter().zip(expected) {
            warm_ok &= expected.matches(admin.call(key)?);
        }
        run.setups_s.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            server.shutdown(admin)?;
        } else {
            up = Some(Up { server, admin });
        }
    }
    if !warm.is_empty() {
        run.check("warm-up replies equal the reference", warm_ok);
    }
    Ok(up.expect("SETUPS > 0"))
}

/// Closes the window on a server: CPU, peak memory, final stats, and a
/// clean shutdown.
fn wind_down(up: Up, cpu0: Duration, run: &mut Run) -> io::Result<StatsReply> {
    let Up { server, mut admin } = up;
    run.cpu_ms = ms(process_cpu(server.pid())? - cpu0);
    run.peak_rss_mb = peak_rss_kib(server.pid())? as f64 / 1024.0;
    let after = admin.stats()?;
    server.shutdown(admin)?;
    Ok(after)
}

/// What one closed-loop client saw: its completed requests' latencies,
/// the requests it sent, and how many were answered correctly.
struct ClientRun {
    latencies: Vec<Latency>,
    attempted: u64,
    ok: u64,
}

/// One closed-loop keep-alive client: draws keys until the deadline and
/// checks each reply against its key's reference. A dropped connection
/// counts as a failed request and is re-opened once.
fn keep_alive_client(
    path: &Path,
    keys: &[String],
    expected: &[Expected],
    mut draw: KeyDraw,
    start: Instant,
    deadline: Instant,
) -> io::Result<ClientRun> {
    let mut conn = Conn::connect(path)?;
    let mut out = ClientRun {
        latencies: Vec::with_capacity(1 << 16),
        attempted: 0,
        ok: 0,
    };
    while Instant::now() < deadline {
        let k = draw.next_index();
        let t0 = Instant::now();
        out.attempted += 1;
        match conn.call(&keys[k]) {
            Ok(reply) => {
                out.latencies.push(latency(start, t0.elapsed()));
                out.ok += u64::from(expected[k].matches(reply));
            }
            Err(_) => conn = Conn::connect(path)?,
        }
    }
    Ok(out)
}

/// Reference replies of the warm key set.
fn key_references(keys: &[String]) -> Vec<Expected> {
    let session = Session::new();
    keys.iter()
        .map(|k| Expected::new(reference(&session, k)))
        .collect()
}

/// `serve_hot`: two keep-alive connections over the warm key set.
fn serve_hot(ctx: &Ctx<'_>) -> io::Result<Run> {
    const CONNECTIONS: u64 = 2;
    let keys = gen::hot_keys();
    let expected = key_references(&keys);
    let mut run = Run::default();
    let mut up = bring_up(ctx, "hot", &keys, &expected, &mut run)?;
    let before = up.admin.stats()?;
    let cpu0 = process_cpu(up.server.pid())?;
    let path = up.server.path().to_path_buf();
    let start = Instant::now();
    let deadline = start + ctx.window;
    let results = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (path, keys, expected) = (&path, &keys, &expected);
                s.spawn(move || {
                    let draw = KeyDraw::new(ctx.seed, c, keys.len());
                    keep_alive_client(path, keys, expected, draw, start, deadline)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<io::Result<Vec<_>>>()
    })?;
    run.window_s = start.elapsed().as_secs_f64();
    for client in results {
        run.latencies.extend(client.latencies);
        run.attempted += client.attempted;
        run.ok += client.ok;
    }
    let after = wind_down(up, cpu0, &mut run)?;
    run.check(
        "no artifact-cache miss in the timed window",
        after.artifact_cache.misses == before.artifact_cache.misses,
    );
    run.check("no request shed", after.shed == before.shed);
    Ok(run)
}

/// Untimed churn requests sent before `serve_churn`'s window, so that the
/// window sees a server in its steady state: both caches full and
/// evicting, and the layer cache's hash table past the one growth that
/// eviction tombstones force after about 150 000 inserts (20 000–30 000
/// requests; the point moves with the table's random hash seed). Without
/// them the server's peak memory stepped from about 15.8 to 26.8 MB
/// inside some windows and not others.
const CHURN_PREFILL: usize = 20_000;

/// `serve_churn`: one keep-alive connection, a fresh compile key per
/// request, after [`CHURN_PREFILL`] requests of the same stream.
///
/// Client and server share one CPU for the set-ups, the prefill and the
/// window. With
/// one connection they take turns, and on separate CPUs every turn wakes
/// an idle CPU; on a virtualized host that wake-up took long enough, and
/// varied enough with the host's load, to swing throughput 470–920 rps
/// between runs whose server CPU per request held steady.
fn serve_churn(ctx: &Ctx<'_>) -> io::Result<Run> {
    let mut generator = ChurnGen::new(ctx.seed);
    let mut run = Run::default();
    let all_cpus = CpuMask::current()?;
    all_cpus.lowest().apply()?;
    let mut up = bring_up(ctx, "churn", &[], &[], &mut run)?;
    let mut conn = Conn::connect(up.server.path())?;
    for _ in 0..CHURN_PREFILL {
        conn.call(&generator.next_request().line)?;
    }
    let before = up.admin.stats()?;
    let cpu0 = process_cpu(up.server.pid())?;
    let mut sent: Vec<(String, Option<String>)> = Vec::with_capacity(1 << 14);
    let mut next = generator.next_request().line;
    let start = Instant::now();
    while start.elapsed() < ctx.window {
        let t0 = Instant::now();
        let reply = conn.call(&next).map(str::to_string);
        let elapsed = t0.elapsed();
        let dropped = reply.is_err();
        if !dropped {
            run.latencies.push(latency(start, elapsed));
        }
        sent.push((next, reply.ok()));
        if dropped {
            conn = Conn::connect(up.server.path())?;
        }
        // Generated between requests: inside the window, outside every
        // latency sample (about 20 µs against about 1 ms of service).
        next = generator.next_request().line;
    }
    run.window_s = start.elapsed().as_secs_f64();
    drop(conn);
    let after = wind_down(up, cpu0, &mut run)?;
    all_cpus.apply()?;
    run.attempted = sent.len() as u64;
    run.ok = verify_unique(&sent);
    let misses = after.artifact_cache.misses - before.artifact_cache.misses;
    run.check(
        "every request compiled a new key (misses == requests)",
        misses == run.attempted,
    );
    run.check(
        "more unique keys than the artifact cache holds",
        run.attempted > after.artifact_cache.capacity,
    );
    run.check(
        "artifact evictions in the window > 0",
        after.artifact_cache.evictions > before.artifact_cache.evictions,
    );
    run.check("no request shed", after.shed == before.shed);
    Ok(run)
}

/// Checks each (request, reply) pair against a fresh session, on two
/// threads; returns how many replies were correct.
fn verify_unique(sent: &[(String, Option<String>)]) -> u64 {
    let session = Session::new();
    let half = sent.len().div_ceil(2);
    std::thread::scope(|s| {
        let workers: Vec<_> = sent
            .chunks(half.max(1))
            .map(|chunk| {
                let session = &session;
                s.spawn(move || {
                    chunk
                        .iter()
                        .filter(|(request, reply)| {
                            reply.as_deref().is_some_and(|r| {
                                Expected::new(reference(session, request)).matches(r)
                            })
                        })
                        .count() as u64
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("verifier panicked"))
            .sum()
    })
}

/// `serve_connect`: a new connection per request, one at a time, over
/// the warm key set.
fn serve_connect(ctx: &Ctx<'_>) -> io::Result<Run> {
    let keys = gen::hot_keys();
    let expected = key_references(&keys);
    let mut run = Run::default();
    let mut up = bring_up(ctx, "connect", &keys, &expected, &mut run)?;
    let before = up.admin.stats()?;
    let cpu0 = process_cpu(up.server.pid())?;
    let path = up.server.path().to_path_buf();
    let mut draw = KeyDraw::new(ctx.seed, 0, keys.len());
    let start = Instant::now();
    while start.elapsed() < ctx.window {
        let k = draw.next_index();
        let t0 = Instant::now();
        run.attempted += 1;
        let answered = Conn::connect(&path).and_then(|mut c| {
            let reply = c.call(&keys[k])?;
            Ok((t0.elapsed(), expected[k].matches(reply)))
        });
        if let Ok((took, ok)) = answered {
            run.latencies.push(latency(start, took));
            run.ok += u64::from(ok);
        }
    }
    run.window_s = start.elapsed().as_secs_f64();
    let after = wind_down(up, cpu0, &mut run)?;
    run.check(
        "one connection per request",
        after.connections_total - before.connections_total == run.attempted,
    );
    run.check("no request shed", after.shed == before.shed);
    Ok(run)
}

/// `paper_log_err` of the program: the 8 `compare` replies of a fresh
/// session (byte-equal to the served ones, which `serve_hot` checks).
pub fn paper_log_err() -> f64 {
    let session = Session::new();
    let rows: Vec<_> = bitfusion::dnn::zoo::Benchmark::ALL
        .iter()
        .map(|&b| match session.handle(&gen::compare_request(b)) {
            Response::Compare(reply) => (
                b,
                crate::paper::measured_ratios(&reply).expect("compare reports both baselines"),
            ),
            other => panic!("compare {b} failed: {other:?}"),
        })
        .collect();
    crate::paper::log_err(&rows)
}
