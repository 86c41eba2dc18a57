//! The processes under test: the `serve --unix` server and its clients,
//! plus the Linux process clocks and memory counters read from them.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

use bitfusion::service::{Response, StatsReply};

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench reads Linux process clocks and /proc");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuMask) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuMask) -> i32;
}

/// A `cpu_set_t`: one bit per CPU, 1024 CPUs.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuMask([u64; 16]);

impl CpuMask {
    /// The calling thread's CPU mask.
    pub fn current() -> io::Result<CpuMask> {
        let mut mask = CpuMask([0; 16]);
        // SAFETY: `mask` is a writable cpu_set_t of exactly the size passed.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), &mut mask) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(mask)
    }

    /// The mask of this mask's lowest CPU alone.
    pub fn lowest(self) -> CpuMask {
        let mut one = CpuMask([0; 16]);
        if let Some(i) = self.0.iter().position(|&w| w != 0) {
            one.0[i] = 1 << self.0[i].trailing_zeros();
        }
        one
    }

    /// Restricts the calling thread, and every process or thread it starts
    /// afterwards, to this mask.
    pub fn apply(&self) -> io::Result<()> {
        // SAFETY: `self` is a readable cpu_set_t of exactly the size passed.
        if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), self) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

/// CPU time (user + system, every thread, live or exited) that process
/// `pid` has used so far, read from its scheduler clock in nanoseconds.
pub fn process_cpu(pid: u32) -> io::Result<Duration> {
    // The kernel's MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED): the
    // process-wide clock of another process.
    let clock = ((!(pid as i32)) << 3) | 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the kernel's 64-bit
    // layout; the call writes only into it.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
}

/// Peak resident set (`VmHWM`, KiB) of process `pid`.
pub fn peak_rss_kib(pid: u32) -> io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other("no VmHWM line"))
}

/// One JSON-lines connection to the server.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    out: Vec<u8>,
    line: String,
}

impl Conn {
    /// Connects to the server's socket.
    pub fn connect(path: &Path) -> io::Result<Conn> {
        let stream = UnixStream::connect(path)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            out: Vec::new(),
            line: String::new(),
        })
    }

    /// Sends one request line and returns its reply line (no newline).
    pub fn call(&mut self, request: &str) -> io::Result<&str> {
        self.out.clear();
        self.out.extend_from_slice(request.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end_matches('\n'))
    }

    /// The server's live counters.
    pub fn stats(&mut self) -> io::Result<StatsReply> {
        match Response::parse(self.call(r#"{"cmd":"stats"}"#)?) {
            Ok(Response::Stats(s)) => Ok(s),
            other => Err(io::Error::other(format!("bad stats reply: {other:?}"))),
        }
    }
}

/// How long [`Server::spawn`] waits after the `listening on` line.
const AFTER_LISTENING: Duration = Duration::from_millis(2);

/// A `bitfusion-cli serve --unix` child with default flags.
pub struct Server {
    child: Child,
    path: PathBuf,
    /// Held open until the child exits, so its exit summary never meets
    /// a closed pipe.
    stderr: BufReader<ChildStderr>,
}

impl Server {
    /// Starts a server on the socket `path` (relative paths keep it short)
    /// and waits for its `listening on` line, as a user would.
    ///
    /// The server's accept loop polls every 20 ms. A client that connects
    /// just before the loop's first poll is served at once; one that
    /// connects just after waits for the second. Left to chance, that race
    /// makes set-up time bimodal, so this waits [`AFTER_LISTENING`] past
    /// the line: the first connection then always meets the second poll.
    pub fn spawn(cli: &Path, path: PathBuf) -> io::Result<Server> {
        // A stale socket file from a killed run would make the bind fail.
        let _ = std::fs::remove_file(&path);
        let mut child = Command::new(cli)
            .arg("serve")
            .arg("--unix")
            .arg(&path)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        // From here on a failure drops the server, which kills the child.
        let mut server = Server {
            child,
            path,
            stderr,
        };
        let mut line = String::new();
        while !line.starts_with("serve: listening on") {
            line.clear();
            if server.stderr.read_line(&mut line)? == 0 {
                return Err(io::Error::other("server exited before listening"));
            }
        }
        std::thread::sleep(AFTER_LISTENING);
        Ok(server)
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The socket path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Opens a connection to the listening server.
    pub fn connect(&self) -> io::Result<Conn> {
        Conn::connect(&self.path)
    }

    /// Asks the server to stop over `admin` and waits for it to exit.
    pub fn shutdown(mut self, mut admin: Conn) -> io::Result<()> {
        let reply = admin.call(r#"{"cmd":"shutdown"}"#)?.to_string();
        drop(admin);
        if reply != r#"{"reply":"shutdown"}"# {
            return Err(io::Error::other(format!("shutdown refused: {reply}")));
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("server exited: {status}")))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(io::Error::other("server did not exit after shutdown"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Reached after `shutdown` too: the child has exited then, and the
        // kill is a no-op. Errors are ignored — a drop cannot report them.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.path);
    }
}
