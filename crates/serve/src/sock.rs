//! Transports: Unix-domain sockets and the stdin/stdout pipe mode.
//!
//! Both carry the same framed protocol as the in-memory
//! [`duplex`](aim_types::wire::duplex) pair the tests use — the server
//! code is transport-agnostic ([`serve_connection`] takes any
//! `Read + Write`), so everything the replay gate proves about the wire
//! path holds over a real socket too.

use crate::server::{serve_connection, Server};
use aim_types::wire::{read_frame, write_frame, WireMsg};
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Sends one request frame and reads one reply frame.
///
/// # Errors
///
/// Propagates stream I/O errors; an early hang-up is
/// [`io::ErrorKind::UnexpectedEof`].
pub fn request_over<S: Read + Write>(stream: &mut S, msg: &WireMsg) -> io::Result<WireMsg> {
    write_frame(stream, msg.to_json().as_bytes())?;
    let frame = read_frame(stream)?.ok_or_else(|| {
        io::Error::new(io::ErrorKind::UnexpectedEof, "server hung up before replying")
    })?;
    let text = std::str::from_utf8(&frame)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "reply is not UTF-8"))?;
    WireMsg::parse(text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// `stdin`/`stdout` as one byte stream — the pipe-mode transport
/// (`aim-sim serve --stdio`), for driving the server as a subprocess.
#[derive(Debug, Default)]
pub struct StdioStream;

impl Read for StdioStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        io::stdin().lock().read(buf)
    }
}

impl Write for StdioStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        io::stdout().lock().write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        io::stdout().lock().flush()
    }
}

/// Serves a single connection over stdin/stdout until EOF or shutdown.
///
/// # Errors
///
/// Propagates stream I/O errors.
pub fn serve_stdio(server: &Server) -> io::Result<()> {
    serve_connection(server, StdioStream)
}

/// Binds `path` and serves connections until a shutdown request arrives,
/// one handler thread per connection. An existing socket file at `path`
/// is replaced.
///
/// # Errors
///
/// Propagates bind/accept errors.
#[cfg(unix)]
pub fn serve_unix(server: &Arc<Server>, path: &std::path::Path) -> io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    // Poll the listener so the accept loop can observe a shutdown issued
    // by a connection handler.
    listener.set_nonblocking(true)?;
    let mut handlers = Vec::new();
    while !server.is_shutdown() {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                let server = Arc::clone(server);
                handlers.push(std::thread::spawn(move || {
                    let _ = serve_connection(&server, stream);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            Err(e) => return Err(e),
        }
    }
    for handler in handlers {
        let _ = handler.join();
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// Connects to a serving socket and performs one request/reply exchange
/// per message, in order.
///
/// # Errors
///
/// Propagates connect and stream I/O errors.
#[cfg(unix)]
pub fn submit_unix(path: &std::path::Path, msgs: &[WireMsg]) -> io::Result<Vec<WireMsg>> {
    let mut stream = std::os::unix::net::UnixStream::connect(path)?;
    msgs.iter().map(|msg| request_over(&mut stream, msg)).collect()
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::proto::{JobResponse, Source};
    use aim_pipeline::ConfigSpec;
    use aim_pipeline::{BackendChoice, MachineClass};
    use aim_workloads::Scale;

    #[test]
    fn unix_socket_round_trips_a_job_and_shuts_down() {
        let tag = format!("aim_serve_sock_{}", std::process::id());
        let dir = std::env::temp_dir().join(&tag);
        let _ = std::fs::remove_dir_all(&dir);
        let server = Arc::new(Server::new(&dir.join("cache"), 2).unwrap());
        let sock = dir.join("serve.sock");
        std::fs::create_dir_all(&dir).unwrap();

        let accept = {
            let server = Arc::clone(&server);
            let sock = sock.clone();
            std::thread::spawn(move || serve_unix(&server, &sock))
        };
        // Wait for the socket to appear.
        for _ in 0..200 {
            if sock.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        let spec = ConfigSpec::new(MachineClass::Baseline, BackendChoice::NoSpec)
            .job("gzip", Scale::Tiny);
        let mut shutdown = WireMsg::new();
        shutdown.put_str("op", "shutdown");
        let replies =
            submit_unix(&sock, &[spec.to_wire(false, false), shutdown]).unwrap();
        let resp = JobResponse::from_wire(&replies[0]).unwrap();
        assert_eq!(resp.source, Source::Sim);
        assert!(resp.cycles > 0);
        assert_eq!(replies[1].bool_field("ok"), Some(true));

        accept.join().unwrap().unwrap();
        assert!(!sock.exists(), "socket file is removed on shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
