//! The long-running JSON-lines loop behind `bitfusion-cli serve`.
//!
//! Framing: one request per input line, one response per output line, in
//! the same order. Blank lines are ignored; a line that fails to parse
//! produces an `{"reply":"error",...}` response in its slot rather than
//! killing the loop, so a scripted client can correlate responses to
//! requests positionally.
//!
//! Requests are dispatched concurrently across the sim crate's worker
//! pool ([`for_each_ordered`]) — an expensive `dse` does not
//! block a cheap `report` from *computing*, while the reorder buffer
//! keeps *output* strictly in request order. Combined with the session's
//! determinism contract, each output line is byte-identical to what the
//! corresponding one-shot `--json` invocation prints.

use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};

use bitfusion_sim::pool::for_each_ordered;

use crate::protocol::{Request, Response};
use crate::session::Session;

/// Clamps a nested `dse` request's "all cores" default to sequential.
///
/// Both the stdin serve pool and the network server's connection threads
/// already use the cores; a `dse` defaulting to `workers = 0` (all cores)
/// on top would oversubscribe by up to cores². Results are
/// worker-count-independent (the engine's determinism contract), so the
/// clamp never changes response bytes. An explicit worker count is
/// honoured as given.
pub fn clamp_nested_workers(request: &mut Request) {
    if let Request::Dse(p) = request {
        if p.workers == 0 {
            p.workers = 1;
        }
    }
}

/// What one [`serve`] run processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Lines answered (including error responses).
    pub responses: u64,
    /// Responses that were `{"reply":"error",...}`.
    pub errors: u64,
}

/// Runs the JSON-lines loop: reads requests from `input` until EOF,
/// writes one response line each to `output` (flushed per line, so a
/// piped client sees answers as they are ready), dispatching across
/// `workers` threads (`0` = all cores).
///
/// # Errors
///
/// Propagates I/O failures from the reader or writer.
pub fn serve<R: BufRead + Send, W: Write>(
    session: &Session,
    input: R,
    mut output: W,
    workers: usize,
) -> std::io::Result<ServeSummary> {
    let workers = if workers == 0 {
        bitfusion_sim::pool::default_workers()
    } else {
        workers
    };
    let mut summary = ServeSummary::default();
    let mut io_error: Option<std::io::Error> = None;
    // Once the writer fails (e.g. the client hung up — EPIPE), there is
    // nobody left to answer: workers stop evaluating and just drain.
    let output_dead = AtomicBool::new(false);
    let lines = input
        .lines()
        .filter(|line| line.as_ref().map_or(true, |l| !l.trim().is_empty()));
    for_each_ordered(
        lines,
        workers,
        |_, line| match line {
            Err(e) => Err(e),
            Ok(_) if output_dead.load(Ordering::Relaxed) => Ok(Response::Error {
                message: "output closed".to_string(),
            }),
            Ok(text) => Ok(match Request::parse(text.trim()) {
                Ok(mut request) => {
                    clamp_nested_workers(&mut request);
                    session.handle(&request)
                }
                Err(message) => Response::Error { message },
            }),
        },
        |_, outcome| {
            if io_error.is_some() {
                return; // already failed; drain remaining results
            }
            match outcome {
                Err(e) => {
                    output_dead.store(true, Ordering::Relaxed);
                    io_error = Some(e);
                }
                Ok(response) => {
                    summary.responses += 1;
                    if matches!(response, Response::Error { .. }) {
                        summary.errors += 1;
                    }
                    let line = response.encode();
                    if let Err(e) = writeln!(output, "{line}").and_then(|()| output.flush()) {
                        output_dead.store(true, Ordering::Relaxed);
                        io_error = Some(e);
                    }
                }
            }
        },
    );
    match io_error {
        Some(e) => Err(e),
        None => Ok(summary),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn run_script(script: &str, workers: usize) -> (Vec<String>, ServeSummary) {
        let session = Session::new();
        let mut out = Vec::new();
        let summary = serve(&session, Cursor::new(script), &mut out, workers).unwrap();
        let text = String::from_utf8(out).unwrap();
        (text.lines().map(str::to_string).collect(), summary)
    }

    #[test]
    fn one_response_line_per_request_line_in_order() {
        let script = "\
{\"cmd\":\"report\",\"benchmark\":\"rnn\",\"batch\":1}\n\
\n\
{\"cmd\":\"list\"}\n\
{\"cmd\":\"report\",\"benchmark\":\"lstm\",\"batch\":1}\n";
        for workers in [1, 4] {
            let (lines, summary) = run_script(script, workers);
            assert_eq!(lines.len(), 3, "{workers} workers (blank line skipped)");
            assert_eq!(summary.responses, 3);
            assert_eq!(summary.errors, 0);
            assert!(lines[0].contains("\"benchmark\":\"RNN\""), "{}", lines[0]);
            assert!(lines[1].starts_with("{\"reply\":\"list\""));
            assert!(lines[2].contains("\"benchmark\":\"LSTM\""));
            for l in &lines {
                Response::parse(l).expect("every output line parses");
            }
        }
    }

    #[test]
    fn malformed_lines_answer_errors_without_killing_the_loop() {
        let script = "not json\n{\"cmd\":\"list\"}\n{\"cmd\":\"nope\"}\n";
        let (lines, summary) = run_script(script, 2);
        assert_eq!(lines.len(), 3);
        assert_eq!(summary.errors, 2);
        assert!(lines[0].starts_with("{\"reply\":\"error\""));
        assert!(lines[1].starts_with("{\"reply\":\"list\""));
        assert!(lines[2].contains("nope"));
    }

    #[test]
    fn a_too_deeply_nested_line_is_answered_and_the_loop_lives_on() {
        // Nesting far past the parser's depth limit is one more malformed
        // line: it must not overflow the stack and abort the process.
        let script = format!("{}\n{{\"cmd\":\"list\"}}\n", "[".repeat(100_000));
        let (lines, summary) = run_script(&script, 2);
        assert_eq!(lines.len(), 2);
        assert_eq!(summary.errors, 1);
        match Response::parse(&lines[0]).expect("the error reply parses") {
            Response::Error { message } => {
                assert!(
                    message.contains("nesting deeper than 128 levels at byte 128"),
                    "{message}"
                );
            }
            other => panic!("expected an error reply, got {other:?}"),
        }
        assert!(lines[1].starts_with("{\"reply\":\"list\""), "{}", lines[1]);
    }

    #[test]
    fn concurrent_and_sequential_outputs_are_byte_identical() {
        // A mixed script where the expensive request comes first: the
        // reorder buffer must still emit it first.
        let script = "\
{\"cmd\":\"sweep\",\"benchmark\":\"lstm\",\"axis\":\"batch\"}\n\
{\"cmd\":\"report\",\"benchmark\":\"rnn\",\"batch\":1}\n\
{\"cmd\":\"compare\",\"benchmark\":\"rnn\",\"batch\":1}\n\
{\"cmd\":\"asm\",\"benchmark\":\"rnn\",\"batch\":1}\n";
        let (sequential, _) = run_script(script, 1);
        let (parallel, _) = run_script(script, 4);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn a_dead_output_stops_evaluation() {
        struct DeadWriter;
        impl std::io::Write for DeadWriter {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(std::io::ErrorKind::BrokenPipe))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let session = Session::new();
        let script = "\
{\"cmd\":\"report\",\"benchmark\":\"rnn\",\"batch\":1}\n\
{\"cmd\":\"report\",\"benchmark\":\"lstm\",\"batch\":1}\n\
{\"cmd\":\"report\",\"benchmark\":\"vgg-7\",\"batch\":1}\n";
        let err = serve(&session, Cursor::new(script), DeadWriter, 1).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        // Only the first request (whose response hit the dead pipe) was
        // evaluated; the rest were skipped, not simulated.
        assert_eq!(session.cache_stats().misses, 1);
    }

    #[test]
    fn serve_output_matches_fresh_one_shot_sessions() {
        // Each line must be byte-identical to handling the request on a
        // fresh session (what a one-shot CLI invocation does), even though
        // the serving session's cache warms up across the script.
        let script = "\
{\"cmd\":\"report\",\"benchmark\":\"rnn\",\"batch\":16}\n\
{\"cmd\":\"sweep\",\"benchmark\":\"rnn\",\"axis\":\"bandwidth\"}\n\
{\"cmd\":\"report\",\"benchmark\":\"rnn\",\"batch\":16}\n\
{\"cmd\":\"dse\",\"rows\":[16,32],\"cols\":[16],\"bandwidth\":[64,128],\"networks\":[\"rnn\"],\"workers\":1}\n";
        let (lines, _) = run_script(script, 2);
        for (i, text) in script.lines().enumerate() {
            let fresh = Session::new();
            let expect = fresh.handle(&Request::parse(text).unwrap()).encode();
            assert_eq!(lines[i], expect, "line {i}");
        }
    }
}
