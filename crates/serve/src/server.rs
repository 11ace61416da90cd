//! The `sfe serve` daemon loop: NDJSON over stdin/stdout, or a local
//! TCP socket with one thread (and one [`Session`]) per connection.
//!
//! All sessions share one [`ServeDb`]. Concurrency comes from parallel
//! connections alone: each request, `load` and `update` included, runs
//! start to finish on its connection's thread.
//!
//! Shutdown is cooperative: any client's `shutdown` request flips a
//! shared flag, the acceptor is unblocked with a loopback poke, every
//! live connection finishes its current request, and the acceptor
//! returns only after all handler threads are joined — no request is
//! ever dropped mid-response (the property the CI smoke test's clean-
//! shutdown assertion checks).
//!
//! A request line may be at most [`MAX_LINE_BYTES`] long: a longer
//! one is skipped to its newline without being buffered and answered
//! with a `bad-request` error, as is a line that is not UTF-8, and the
//! session carries on.

use crate::db::ServeDb;
use crate::proto::error_response;
use crate::session::Session;
use obs::json::Value;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

/// Serves NDJSON requests from `input` to `output` until EOF or a
/// `shutdown` request. Returns the number of requests handled.
///
/// # Errors
///
/// Propagates I/O errors from the reader or writer.
pub fn serve_lines<R: BufRead, W: Write>(
    db: &Arc<ServeDb>,
    input: R,
    output: W,
) -> io::Result<u64> {
    let session = Session::new(Arc::clone(db));
    session_loop(&session, input, output).map(|(handled, _)| handled)
}

/// The longest request line a session buffers, in bytes (the largest
/// suite program's `load` is about 20 KB).
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Answers one request per line until EOF or a `shutdown` request.
/// Returns the number of requests answered and whether the client
/// asked for shutdown.
fn session_loop<R: BufRead, W: Write>(
    session: &Session,
    mut input: R,
    mut output: W,
) -> io::Result<(u64, bool)> {
    let mut handled = 0;
    let mut buf = Vec::new();
    while let Some(len) = read_line_capped(&mut input, &mut buf, MAX_LINE_BYTES)? {
        let (response, shutdown) = if len > MAX_LINE_BYTES {
            let msg =
                format!("request line of {len} bytes exceeds the {MAX_LINE_BYTES}-byte limit");
            (error_response(&Value::Null, "bad-request", &msg), false)
        } else {
            match std::str::from_utf8(&buf) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => {
                    let out = session.handle(line);
                    (out.response, out.shutdown)
                }
                Err(_) => {
                    let msg = "request line is not UTF-8";
                    (error_response(&Value::Null, "bad-request", msg), false)
                }
            }
        };
        output.write_all(response.as_bytes())?;
        output.write_all(b"\n")?;
        output.flush()?;
        handled += 1;
        if shutdown {
            return Ok((handled, true));
        }
    }
    Ok((handled, false))
}

/// Reads one line (without its `\n` or `\r\n`) into `buf`, keeping at
/// most `cap` bytes: the rest of a longer line is consumed unseen.
/// Returns the line's full length, or `None` at end of input.
fn read_line_capped<R: BufRead>(
    input: &mut R,
    buf: &mut Vec<u8>,
    cap: usize,
) -> io::Result<Option<usize>> {
    buf.clear();
    let mut len = 0;
    loop {
        let chunk = match input.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok((len > 0).then_some(len));
        }
        let (take, done) = match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => (i, true),
            None => (chunk.len(), false),
        };
        let room = cap.saturating_sub(buf.len()).min(take);
        buf.extend_from_slice(&chunk[..room]);
        len += take;
        input.consume(take + usize::from(done));
        if done {
            if len <= cap && buf.last() == Some(&b'\r') {
                buf.pop();
                len -= 1;
            }
            return Ok(Some(len));
        }
    }
}

/// Runs the service over stdin/stdout until EOF or `shutdown`.
///
/// # Errors
///
/// Propagates I/O errors from the standard streams.
pub fn serve_stdio(db: &Arc<ServeDb>) -> io::Result<u64> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    serve_lines(db, stdin.lock(), stdout.lock())
}

/// A TCP server bound and accepting in a background thread. Dropping
/// the handle does *not* stop the server; send a `shutdown` request or
/// call [`TcpServer::shutdown`].
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: thread::JoinHandle<io::Result<()>>,
}

impl TcpServer {
    /// The bound address (useful with `:0` ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown as if a client had sent the RPC.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        poke(self.addr);
    }

    /// Waits for the acceptor and every connection handler to finish.
    ///
    /// # Errors
    ///
    /// Propagates the acceptor thread's I/O error, if any.
    pub fn join(self) -> io::Result<()> {
        match self.acceptor.join() {
            Ok(r) => r,
            Err(e) => std::panic::resume_unwind(e),
        }
    }
}

/// Binds `addr` and serves connections until a `shutdown` request.
/// Returns once the listener is live, so callers can read
/// [`TcpServer::addr`] and connect immediately.
///
/// # Errors
///
/// Fails if the address cannot be bound.
pub fn spawn_tcp(db: Arc<ServeDb>, addr: &str) -> io::Result<TcpServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let acceptor = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || accept_loop(&db, &listener, &stop))
    };
    Ok(TcpServer {
        addr,
        stop,
        acceptor,
    })
}

fn accept_loop(
    db: &Arc<ServeDb>,
    listener: &TcpListener,
    stop: &Arc<AtomicBool>,
) -> io::Result<()> {
    let addr = listener.local_addr()?;
    let mut handlers = Vec::new();
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        // Request/response lines are small; without TCP_NODELAY the
        // Nagle + delayed-ACK interaction stalls every round-trip by
        // ~40ms and caps a client at ~25 requests/sec.
        let _ = stream.set_nodelay(true);
        let db = Arc::clone(db);
        let stop = Arc::clone(stop);
        handlers.push(thread::spawn(move || {
            let _ = handle_conn(&db, stream, &stop, addr);
        }));
        // Opportunistically reap finished handlers so a long-lived
        // daemon's handle list doesn't grow with total connections.
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
    Ok(())
}

fn handle_conn(
    db: &Arc<ServeDb>,
    stream: TcpStream,
    stop: &Arc<AtomicBool>,
    server_addr: SocketAddr,
) -> io::Result<()> {
    let session = Session::new(Arc::clone(db));
    let reader = BufReader::new(stream.try_clone()?);
    let (_, shutdown) = session_loop(&session, reader, stream)?;
    if shutdown {
        stop.store(true, Ordering::SeqCst);
        poke(server_addr);
    }
    Ok(())
}

/// Unblocks an acceptor parked in `accept(2)` by completing one
/// throwaway connection to it.
fn poke(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "int main(void) { return 7; }";

    fn load_line(name: &str) -> String {
        format!(
            r#"{{"sfe":"serve/v1","id":1,"method":"load","params":{{"program":"{name}","source":"{SRC}"}}}}"#
        )
    }

    #[test]
    fn stdio_style_loop_handles_and_stops() {
        let db = Arc::new(ServeDb::new(None));
        let input = format!(
            "{}\n{}\n{}\n",
            load_line("p"),
            r#"{"sfe":"serve/v1","id":2,"method":"list"}"#,
            r#"{"sfe":"serve/v1","id":3,"method":"shutdown"}"#
        );
        let mut out = Vec::new();
        let handled = serve_lines(&db, input.as_bytes(), &mut out).unwrap();
        assert_eq!(handled, 3);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains(r#""programs":["p"]"#), "{text}");
    }

    #[test]
    fn long_and_non_utf8_lines_get_errors_and_the_session_goes_on() {
        let db = Arc::new(ServeDb::new(None));
        let mut input = vec![b'x'; MAX_LINE_BYTES + 10];
        input.extend_from_slice(b"\n\xff\xfe\r\n");
        input.extend_from_slice(br#"{"sfe":"serve/v1","id":2,"method":"list"}"#);
        let mut out = Vec::new();
        assert_eq!(serve_lines(&db, input.as_slice(), &mut out).unwrap(), 3);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains(&format!("line of {} bytes", MAX_LINE_BYTES + 10)));
        assert!(lines[1].contains("not UTF-8"), "{}", lines[1]);
        assert!(lines[2].contains(r#""programs":[]"#), "{}", lines[2]);
    }

    #[test]
    fn capped_reader_keeps_at_most_the_cap() {
        let mut input: &[u8] = b"abcdef\nxy\r\n\nlast";
        let mut buf = Vec::new();
        let mut next = || read_line_capped(&mut input, &mut buf, 4).unwrap();
        assert_eq!(next(), Some(6));
        assert_eq!(next(), Some(2));
        assert_eq!(next(), Some(0));
        assert_eq!(next(), Some(4));
        assert_eq!(next(), None);
    }

    #[test]
    fn tcp_roundtrip_and_clean_shutdown() {
        let db = Arc::new(ServeDb::new(None));
        let server = spawn_tcp(db, "127.0.0.1:0").unwrap();
        let addr = server.addr();

        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut line = String::new();

        writeln!(writer, "{}", load_line("p")).unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"revision\":1"), "{line}");

        line.clear();
        writeln!(writer, r#"{{"sfe":"serve/v1","id":2,"method":"shutdown"}}"#).unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\":true"), "{line}");

        server.join().unwrap();
    }

    #[test]
    fn concurrent_connections_share_one_db() {
        let db = Arc::new(ServeDb::new(None));
        let server = spawn_tcp(Arc::clone(&db), "127.0.0.1:0").unwrap();
        let addr = server.addr();

        let clients: Vec<_> = (0..4)
            .map(|i| {
                thread::spawn(move || {
                    let stream = TcpStream::connect(addr).unwrap();
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    let mut line = String::new();
                    writeln!(writer, "{}", load_line(&format!("c{i}"))).unwrap();
                    reader.read_line(&mut line).unwrap();
                    assert!(line.contains("\"revision\":1"), "{line}");
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        assert_eq!(db.program_names().len(), 4);
        server.shutdown();
        server.join().unwrap();
    }
}
