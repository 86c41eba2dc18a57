//! Network-server integration tests over real sockets: byte-determinism
//! across concurrent clients, request coalescing (K identical in-flight
//! requests cost one evaluation, proven via cache counters), load
//! shedding's pinned error shape, idle-connection reaping, and
//! shutdown drain.
//!
//! Synchronization discipline: tests never sleep-and-hope. They poll the
//! live `stats` endpoint (which bypasses admission, so it answers even
//! with the gate saturated) until the server observably reaches the
//! state the scenario needs — in-flight count, queue depth, received
//! count — then proceed. A request that must keep its evaluation slot
//! while the test acts is held by a [`PlanValve`], not by being slow, so
//! no scenario races the speed of an evaluation. Every scoped server
//! runs under a [`StopOnDrop`] guard: a failed assertion fails its test
//! instead of leaving `net::run` waiting forever.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use bitfusion_service::net::{self, NetConfig, NetListener, SHED_MESSAGE};
use bitfusion_service::protocol::{Request, StatsReply};
use bitfusion_service::serve::clamp_nested_workers;
use bitfusion_service::{Response, Session};

/// The occupant request: its one compiled plan is what a [`PlanValve`]
/// holds back, so it keeps the evaluation slot until the test opens the
/// valve.
const OCCUPANT: &str = r#"{"cmd":"report","benchmark":"rnn","batch":4}"#;

/// A byte-distinct request for queue-occupancy scenarios.
const QUEUED: &str = r#"{"cmd":"report","benchmark":"lstm","batch":1}"#;

/// The identical request the coalescing test fans out K times.
const COALESCE_DSE: &str = r#"{"cmd":"dse","rows":[16,32],"cols":[16,32],"bandwidth":[64,128],"networks":["vgg-7"],"workers":1,"backend":"event"}"#;

/// Sets the server's stop flag when dropped — including while a failed
/// assertion unwinds out of a `thread::scope`, whose join would otherwise
/// wait on `net::run` forever.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// A disk-store plan entry replaced by a named pipe. The server's
/// read-through of that plan blocks in `open` until [`PlanValve::open`]
/// writes the genuine entry into the pipe, so the request that needs the
/// plan holds its evaluation slot exactly as long as the test wants.
struct PlanValve {
    pipe: PathBuf,
    entry: Vec<u8>,
    opened: bool,
}

impl PlanValve {
    /// Learns the name and bytes of `request`'s plan entry from a scratch
    /// store next to `store_dir`, then plants a pipe under that name in
    /// `store_dir`.
    fn plant(store_dir: &Path, request: &str) -> Self {
        let scratch = store_dir.with_extension("learn");
        let _ = fs::remove_dir_all(&scratch);
        let learner = Session::new().with_cache_dir(&scratch).expect("open scratch store");
        learner.handle(&Request::parse(request).expect("valve request parses"));
        drop(learner);
        let plans: Vec<PathBuf> = fs::read_dir(scratch.join("plans"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(plans.len(), 1, "one plan entry: {plans:?}");
        let entry = fs::read(&plans[0]).unwrap();
        fs::create_dir_all(store_dir.join("plans")).unwrap();
        let pipe = store_dir.join("plans").join(plans[0].file_name().unwrap());
        let made = std::process::Command::new("mkfifo")
            .arg(&pipe)
            .status()
            .expect("run mkfifo");
        assert!(made.success(), "mkfifo {}", pipe.display());
        fs::remove_dir_all(&scratch).unwrap();
        PlanValve {
            pipe,
            entry,
            opened: false,
        }
    }

    /// Lets the held request through: waits for its read to open the
    /// pipe, then serves it the genuine entry (a disk hit, so its reply
    /// bytes are unchanged).
    fn open(&mut self) {
        fs::write(&self.pipe, &self.entry).expect("feed the valve");
        self.opened = true;
    }
}

impl Drop for PlanValve {
    fn drop(&mut self) {
        if !self.opened {
            // A failing test must not strand the held request (and with
            // it the server's drain): feed the pipe from a detached
            // thread, which waits for a reader if one ever arrives.
            let (pipe, entry) = (self.pipe.clone(), std::mem::take(&mut self.entry));
            thread::spawn(move || fs::write(pipe, entry));
        }
    }
}

/// A fresh per-test directory under the system temp dir.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bitfusion-net-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn bind_tcp() -> (NetListener, SocketAddr) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    (NetListener::Tcp(listener), addr)
}

/// One round-trip on a fresh connection.
fn exchange(addr: SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    assert!(reply.ends_with('\n'), "framed reply, got {reply:?}");
    reply.trim_end().to_string()
}

fn stats(addr: SocketAddr) -> StatsReply {
    match Response::parse(&exchange(addr, r#"{"cmd":"stats"}"#)).expect("stats parses") {
        Response::Stats(s) => s,
        other => panic!("expected stats, got {other:?}"),
    }
}

/// Polls until `pred` holds (30 s cap — generous because debug-build
/// evaluations are slow, but every wait is event-driven, not timed).
fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(5));
    }
}

/// What a fresh one-shot session answers for `line` — the byte-identity
/// reference (the nested-dse clamp applied, as every serve flavour does;
/// results are worker-count-independent so the clamp never changes
/// bytes).
fn one_shot(line: &str) -> String {
    let mut request = Request::parse(line).expect("test request parses");
    clamp_nested_workers(&mut request);
    Session::new().handle(&request).encode()
}

#[test]
fn concurrent_clients_get_one_shot_bytes() {
    let session = Session::new();
    let (listener, addr) = bind_tcp();
    let config = NetConfig {
        workers: 4,
        ..NetConfig::default()
    };
    let script: Vec<&str> = vec![
        r#"{"cmd":"list"}"#,
        r#"{"cmd":"report","benchmark":"rnn","batch":1}"#,
        r#"{"cmd":"report","benchmark":"lstm","batch":16,"backend":"event"}"#,
        r#"{"cmd":"sweep","benchmark":"rnn","axis":"bandwidth"}"#,
        r#"{"cmd":"quantize","benchmark":"svhn"}"#,
        r#"{"cmd":"asm","benchmark":"rnn","batch":1}"#,
    ];
    let (session, config, script) = (&session, &config, &script);
    let responses: Vec<Vec<String>> = thread::scope(|scope| {
        let server = scope.spawn(move || net::run(session, &listener, config));
        let _stop = StopOnDrop(&config.stop);
        // 6 clients, each sending the whole script on one connection but
        // starting from a different offset, so the interleaving across
        // connections differs every run.
        let clients: Vec<_> = (0..6)
            .map(|offset| {
                scope.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut got = Vec::new();
                    for i in 0..script.len() {
                        let line = script[(offset + i) % script.len()];
                        stream.write_all(line.as_bytes()).unwrap();
                        stream.write_all(b"\n").unwrap();
                        stream.flush().unwrap();
                        let mut reply = String::new();
                        reader.read_line(&mut reply).unwrap();
                        got.push((line, reply.trim_end().to_string()));
                    }
                    got
                })
            })
            .collect();
        let per_client: Vec<Vec<(&str, String)>> =
            clients.into_iter().map(|c| c.join().unwrap()).collect();
        config.stop.store(true, Ordering::SeqCst);
        let summary = server.join().unwrap().expect("server runs");
        assert_eq!(summary.responses, 36, "6 clients x 6 requests");
        assert_eq!(summary.errors, 0);
        assert_eq!(summary.connections, 6);
        per_client
            .into_iter()
            .map(|got| {
                got.into_iter()
                    .map(|(line, reply)| {
                        // Byte-identical to a fresh one-shot session, no
                        // matter the interleaving or cache warmth.
                        assert_eq!(reply, one_shot(line), "request {line}");
                        reply
                    })
                    .collect()
            })
            .collect()
    });
    // And identical across clients, naturally.
    for r in &responses[1..] {
        assert_eq!(r.len(), responses[0].len());
    }
}

#[test]
fn identical_inflight_requests_evaluate_once() {
    const FOLLOWERS: usize = 3; // K = FOLLOWERS + 1 identical requests
    let dir = temp_dir("coalesce");
    let session = Session::new().with_cache_dir(&dir).expect("open store");
    let (listener, addr) = bind_tcp();
    let config = NetConfig {
        workers: 1, // one evaluation slot: the occupant holds it
        max_queue: 8,
        ..NetConfig::default()
    };
    let (session, config) = (&session, &config);
    thread::scope(|scope| {
        let server = scope.spawn(move || net::run(session, &listener, config));
        let _stop = StopOnDrop(&config.stop);
        // Occupy the only slot with a byte-distinct request held at the
        // valve.
        let mut valve = PlanValve::plant(&dir, OCCUPANT);
        let occupant = scope.spawn(move || exchange(addr, OCCUPANT));
        wait_until("occupant in flight", || stats(addr).in_flight == 1);
        // Fan out K identical requests. The first to arrive leads (and
        // queues behind the occupant); the rest follow its flight.
        let identical: Vec<_> = (0..=FOLLOWERS)
            .map(|_| scope.spawn(move || exchange(addr, COALESCE_DSE)))
            .collect();
        // All K received and the leader queued — the followers are
        // waiting on the flight, not occupying queue slots.
        wait_until("leader queued, followers coalesced", || {
            let s = stats(addr);
            s.received == 1 + (FOLLOWERS as u64 + 1) && s.queue_depth == 1
        });
        valve.open();
        let expected = one_shot(COALESCE_DSE);
        for client in identical {
            assert_eq!(client.join().unwrap(), expected);
        }
        assert_eq!(occupant.join().unwrap(), one_shot(OCCUPANT));
        let s = stats(addr);
        assert_eq!(s.coalesced, FOLLOWERS as u64, "K-1 requests coalesced");
        assert_eq!(s.received, 1 + FOLLOWERS as u64 + 1);
        assert_eq!(s.errors, 0);
        config.stop.store(true, Ordering::SeqCst);
        let summary = server.join().unwrap().expect("server runs");
        assert_eq!(summary.coalesced, FOLLOWERS as u64);
    });
    // The spec-level proof that K identical requests cost ONE evaluation:
    // the shared memory tiers saw exactly the lookups of evaluating the
    // occupant once and the coalesced request once (a disk-served plan
    // still counts as a memory miss). A duplicate evaluation would add
    // hits (warm re-run) and break equality.
    let reference = Session::new();
    for line in [OCCUPANT, COALESCE_DSE] {
        let mut request = Request::parse(line).unwrap();
        clamp_nested_workers(&mut request);
        reference.handle(&request);
    }
    assert_eq!(session.cache_stats(), reference.cache_stats());
    assert_eq!(session.layer_cache_stats(), reference.layer_cache_stats());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn overload_sheds_with_a_parseable_error() {
    let dir = temp_dir("overload");
    let session = Session::new().with_cache_dir(&dir).expect("open store");
    let (listener, addr) = bind_tcp();
    let config = NetConfig {
        workers: 1,
        max_queue: 1, // one evaluating + one waiting; the third sheds
        ..NetConfig::default()
    };
    let (session, config) = (&session, &config);
    thread::scope(|scope| {
        let server = scope.spawn(move || net::run(session, &listener, config));
        let _stop = StopOnDrop(&config.stop);
        let mut valve = PlanValve::plant(&dir, OCCUPANT);
        let occupant = scope.spawn(move || exchange(addr, OCCUPANT));
        wait_until("occupant in flight", || stats(addr).in_flight == 1);
        let queued = scope.spawn(move || exchange(addr, QUEUED));
        wait_until("queue full", || stats(addr).queue_depth == 1);
        // The gate is saturated — slot + queue taken — and stays so until
        // the valve opens. A third, distinct request must be answered
        // immediately with the pinned, well-formed error — not a dropped
        // connection, not a hang.
        let shed_reply = exchange(addr, r#"{"cmd":"report","benchmark":"rnn","batch":1}"#);
        assert_eq!(
            shed_reply,
            format!(r#"{{"reply":"error","message":"{SHED_MESSAGE}"}}"#)
        );
        match Response::parse(&shed_reply).expect("shed reply parses") {
            Response::Error { message } => assert_eq!(message, SHED_MESSAGE),
            other => panic!("expected an error reply, got {other:?}"),
        }
        let s = stats(addr);
        assert_eq!(s.shed, 1);
        assert_eq!(s.errors, 1, "the shed request is the only error");
        assert_eq!(s.queue_capacity, 1);
        assert_eq!(s.workers, 1);
        // The occupant and the queued request still complete correctly.
        valve.open();
        assert_eq!(occupant.join().unwrap(), one_shot(OCCUPANT));
        assert_eq!(queued.join().unwrap(), one_shot(QUEUED));
        // Latency percentiles cover the completed (non-shed) requests.
        let s = stats(addr);
        assert_eq!(s.latency.count, 2);
        assert!(s.latency.p50_us > 0);
        assert!(s.latency.p50_us <= s.latency.p90_us);
        assert!(s.latency.p90_us <= s.latency.p99_us);
        config.stop.store(true, Ordering::SeqCst);
        let summary = server.join().unwrap().expect("server runs");
        assert_eq!(summary.errors, 1);
        assert_eq!(summary.responses, 3);
    });
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn idle_connections_are_reaped_but_the_server_lives_on() {
    let session = Session::new();
    let (listener, addr) = bind_tcp();
    let config = NetConfig {
        workers: 1,
        idle_timeout: Some(Duration::from_millis(250)),
        ..NetConfig::default()
    };
    let (session, config) = (&session, &config);
    thread::scope(|scope| {
        let server = scope.spawn(move || net::run(session, &listener, config));
        let _stop = StopOnDrop(&config.stop);
        // A client that connects and never speaks: the server must close
        // it (read returns EOF) rather than pin the thread forever.
        let idle = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(idle);
        let mut buf = String::new();
        let n = reader.read_line(&mut buf).expect("clean close, not reset");
        assert_eq!(n, 0, "idle connection reaped with EOF");
        // Only the polling stats connection itself remains active.
        wait_until("idle connection retired", || {
            stats(addr).connections_active == 1
        });
        // An active client on the same server is unaffected.
        let reply = exchange(addr, r#"{"cmd":"list"}"#);
        assert!(reply.starts_with(r#"{"reply":"list""#));
        config.stop.store(true, Ordering::SeqCst);
        server.join().unwrap().expect("server runs");
    });
}

#[cfg(unix)]
#[test]
fn shutdown_request_drains_a_unix_server() {
    let dir = std::env::temp_dir().join(format!("bitfusion-net-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve.sock");
    let path_str = path.to_str().unwrap().to_string();
    let _ = std::fs::remove_file(&path);
    let session = Session::new();
    let listener = NetListener::bind_unix(&path_str).expect("bind unix socket");
    let config = NetConfig {
        workers: 2,
        allow_shutdown: true,
        ..NetConfig::default()
    };
    let unix_exchange = |line: &str| -> String {
        let mut stream = std::os::unix::net::UnixStream::connect(&path).expect("connect");
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    };
    let (session, config) = (&session, &config);
    thread::scope(|scope| {
        let server = scope.spawn(move || net::run(session, &listener, config));
        let _stop = StopOnDrop(&config.stop);
        let reply = unix_exchange(r#"{"cmd":"report","benchmark":"rnn","batch":1}"#);
        assert_eq!(reply, one_shot(r#"{"cmd":"report","benchmark":"rnn","batch":1}"#));
        // The admin request: acknowledged, then the server drains and
        // `run` returns without anyone touching the stop flag.
        assert_eq!(unix_exchange(r#"{"cmd":"shutdown"}"#), r#"{"reply":"shutdown"}"#);
        let summary = server.join().unwrap().expect("server runs");
        assert_eq!(summary.responses, 1, "shutdown/stats are not workload");
        assert_eq!(summary.errors, 0);
    });
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

/// One keep-alive connection pipelining `script` in lockstep — exactly
/// what `bitfusion-cli client --keep-alive` does.
fn pipeline(addr: SocketAddr, script: &[&str]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    script
        .iter()
        .map(|line| {
            stream.write_all(line.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
            stream.flush().unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            reply.trim_end().to_string()
        })
        .collect()
}

#[test]
fn keep_alive_pipelining_matches_one_shot_bytes() {
    let session = Session::new();
    let (listener, addr) = bind_tcp();
    let config = NetConfig {
        workers: 2,
        ..NetConfig::default()
    };
    let script = [
        r#"{"cmd":"list"}"#,
        r#"{"cmd":"report","benchmark":"rnn","batch":1}"#,
        r#"{"cmd":"quantize","benchmark":"svhn"}"#,
        r#"{"cmd":"report","benchmark":"rnn","batch":1}"#,
    ];
    let (session, config) = (&session, &config);
    thread::scope(|scope| {
        let server = scope.spawn(move || net::run(session, &listener, config));
        let _stop = StopOnDrop(&config.stop);
        let piped = pipeline(addr, &script);
        for (line, reply) in script.iter().zip(&piped) {
            // Same bytes as a fresh one-shot connection per request...
            assert_eq!(*reply, exchange(addr, line), "request {line}");
            // ...and as a fresh one-shot session.
            assert_eq!(*reply, one_shot(line), "request {line}");
        }
        config.stop.store(true, Ordering::SeqCst);
        let summary = server.join().unwrap().expect("server runs");
        // 4 pipelined + 4 one-shot verification requests.
        assert_eq!(summary.responses, 8);
        assert_eq!(summary.connections, 5, "one keep-alive + 4 one-shot");
    });
}

#[test]
fn warm_cache_dir_restart_serves_identical_bytes_from_disk() {
    let dir = temp_dir("disk-test");
    let script = [
        r#"{"cmd":"report","benchmark":"rnn","batch":4,"backend":"event"}"#,
        r#"{"cmd":"sweep","benchmark":"lstm","axis":"bandwidth"}"#,
    ];
    let run_server = |expect_disk_hits: bool| -> Vec<String> {
        let session = Session::new().with_cache_dir(&dir).expect("open store");
        let (listener, addr) = bind_tcp();
        let config = NetConfig {
            workers: 2,
            ..NetConfig::default()
        };
        let (session, config) = (&session, &config);
        thread::scope(|scope| {
            let server = scope.spawn(move || net::run(session, &listener, config));
            let _stop = StopOnDrop(&config.stop);
            let replies = pipeline(addr, &script);
            let disk = stats(addr).disk.expect("--cache-dir servers report disk");
            if expect_disk_hits {
                assert!(disk.plan_hits > 0, "{disk:?}");
                assert!(disk.layer_hits > 0, "{disk:?}");
            } else {
                assert_eq!(disk.plan_hits, 0, "{disk:?}");
                assert!(disk.writes > 0, "{disk:?}");
            }
            assert_eq!(disk.corrupt, 0, "{disk:?}");
            config.stop.store(true, Ordering::SeqCst);
            server.join().unwrap().expect("server runs");
            replies
        })
    };
    let cold = run_server(false);
    // The restarted server's memory tiers are empty; the disk tier warms
    // them, and the response bytes cannot tell which tier answered.
    let warm = run_server(true);
    assert_eq!(cold, warm);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn tcp_shutdown_is_refused() {
    let session = Session::new();
    let (listener, addr) = bind_tcp();
    let config = NetConfig::default(); // allow_shutdown: false
    let (session, config) = (&session, &config);
    thread::scope(|scope| {
        let server = scope.spawn(move || net::run(session, &listener, config));
        let _stop = StopOnDrop(&config.stop);
        let reply = exchange(addr, r#"{"cmd":"shutdown"}"#);
        match Response::parse(&reply).expect("refusal parses") {
            Response::Error { message } => {
                assert!(message.contains("unix"), "{message}");
            }
            other => panic!("expected an error reply, got {other:?}"),
        }
        // Still serving.
        assert!(exchange(addr, r#"{"cmd":"list"}"#).starts_with(r#"{"reply":"list""#));
        config.stop.store(true, Ordering::SeqCst);
        server.join().unwrap().expect("server runs");
    });
}
