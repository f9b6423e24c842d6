//! Socket plumbing shared by workers and coordinators: endpoint
//! addressing, listeners, and a duplex connection type that abstracts
//! over TCP and Unix-domain sockets.
//!
//! Endpoints are spelled `tcp:HOST:PORT` (bare `HOST:PORT` also parses
//! as TCP) or `unix:/path/to.sock`. TCP connections set `TCP_NODELAY`:
//! boundary frames are small and latency-sensitive, and the batched
//! event frames are already large enough to fill segments.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A worker address: TCP host:port or a Unix-domain socket path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// TCP `host:port`.
    Tcp(String),
    /// Unix-domain socket path (Unix targets only).
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Endpoint {
    /// Parse `tcp:HOST:PORT`, bare `HOST:PORT`, or `unix:PATH`.
    pub fn parse(spec: &str) -> io::Result<Self> {
        if let Some(path) = spec.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                if path.is_empty() {
                    return Err(bad_spec(spec, "empty unix socket path"));
                }
                return Ok(Endpoint::Unix(PathBuf::from(path)));
            }
            #[cfg(not(unix))]
            {
                return Err(bad_spec(spec, "unix sockets unsupported on this target"));
            }
        }
        let addr = spec.strip_prefix("tcp:").unwrap_or(spec);
        if addr.rsplit_once(':').is_none_or(|(host, port)| {
            host.is_empty() || port.is_empty() || port.parse::<u16>().is_err()
        }) {
            return Err(bad_spec(spec, "expected tcp:HOST:PORT or unix:PATH"));
        }
        Ok(Endpoint::Tcp(addr.to_string()))
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

fn bad_spec(spec: &str, why: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("bad endpoint {spec:?}: {why}"),
    )
}

/// A bound worker listener. Dropping a Unix listener removes its socket
/// file.
#[derive(Debug)]
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener.
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    /// Bind to `endpoint`. A TCP port of 0 picks a free port (read the
    /// chosen one back with [`Listener::local_endpoint`]); a stale Unix
    /// socket file left by a killed worker is removed first.
    pub fn bind(endpoint: &Endpoint) -> io::Result<Self> {
        match endpoint {
            Endpoint::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr)?)),
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                Ok(Listener::Unix(UnixListener::bind(path)?))
            }
        }
    }

    /// The endpoint this listener is actually bound to (resolves TCP
    /// port 0 to the kernel-chosen port).
    pub fn local_endpoint(&self) -> io::Result<Endpoint> {
        match self {
            Listener::Tcp(l) => Ok(Endpoint::Tcp(l.local_addr()?.to_string())),
            #[cfg(unix)]
            Listener::Unix(l) => {
                let addr = l.local_addr()?;
                let path = addr
                    .as_pathname()
                    .ok_or_else(|| io::Error::other("unnamed unix listener"))?;
                Ok(Endpoint::Unix(path.to_path_buf()))
            }
        }
    }

    /// Accept one connection.
    pub fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nodelay(true)?;
                Ok(Conn::Tcp(stream))
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (stream, _) = l.accept()?;
                Ok(Conn::Unix(stream))
            }
        }
    }
}

#[cfg(unix)]
impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(l) = self {
            if let Ok(addr) = l.local_addr() {
                if let Some(path) = addr.as_pathname() {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
    }
}

/// A duplex byte stream to a peer, over TCP or a Unix-domain socket.
///
/// [`Conn::try_clone`] yields an independently usable handle to the
/// same socket, which is how the coordinator splits each worker
/// connection into a dealer-owned write half and a collector-owned
/// read half.
#[derive(Debug)]
pub enum Conn {
    /// TCP stream.
    Tcp(TcpStream),
    /// Unix-domain stream.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    /// Connect to `endpoint` once.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Self> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                Ok(Conn::Tcp(stream))
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => Ok(Conn::Unix(UnixStream::connect(path)?)),
        }
    }

    /// Connect to `endpoint`, retrying until `timeout` elapses — the
    /// normal way for a coordinator to reach workers that are still
    /// starting up.
    pub fn connect_retry(endpoint: &Endpoint, timeout: Duration) -> io::Result<Self> {
        let deadline = Instant::now() + timeout;
        loop {
            match Self::connect(endpoint) {
                Ok(conn) => return Ok(conn),
                Err(e) if Instant::now() >= deadline => {
                    return Err(io::Error::new(
                        e.kind(),
                        format!("connecting to {endpoint} timed out: {e}"),
                    ));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    /// A second handle to the same socket.
    pub fn try_clone(&self) -> io::Result<Self> {
        match self {
            Conn::Tcp(s) => Ok(Conn::Tcp(s.try_clone()?)),
            #[cfg(unix)]
            Conn::Unix(s) => Ok(Conn::Unix(s.try_clone()?)),
        }
    }

    /// Set a deadline on blocking reads: a read that makes no progress
    /// for `timeout` returns `WouldBlock`/`TimedOut` instead of
    /// blocking forever. `None` restores indefinite blocking.
    ///
    /// The deadline is a property of the underlying socket, so it is
    /// shared with every [`Conn::try_clone`] handle — the coordinator
    /// relies on this to bound both the collector's summary reads and
    /// the dealer's writes with one setup call per worker.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    /// Set a deadline on blocking writes, mirroring
    /// [`Conn::set_read_timeout`]: a write stalled on a full socket
    /// buffer (the signature of a frozen peer) errors after `timeout`
    /// instead of wedging the writer thread.
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(timeout),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_write_timeout(timeout),
        }
    }

    /// Shut down both directions — unblocks any thread blocked on this
    /// socket (the coordinator's error path uses this to free a dealer
    /// stuck writing to a wedged worker).
    pub fn shutdown(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Both),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(Shutdown::Both),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every endpoint scheme, table-driven: the spec, what it must
    /// parse to, and the canonical display form (which must re-parse to
    /// the same endpoint).
    #[test]
    fn endpoint_parse_table_accepts() {
        let cases: Vec<(&str, Endpoint, &str)> = vec![
            (
                "127.0.0.1:9000",
                Endpoint::Tcp("127.0.0.1:9000".into()),
                "tcp:127.0.0.1:9000",
            ),
            (
                "tcp:localhost:80",
                Endpoint::Tcp("localhost:80".into()),
                "tcp:localhost:80",
            ),
            // Port 0 parses — it means "kernel picks" and the listener
            // announces the resolved port.
            (
                "tcp:127.0.0.1:0",
                Endpoint::Tcp("127.0.0.1:0".into()),
                "tcp:127.0.0.1:0",
            ),
            ("a:1", Endpoint::Tcp("a:1".into()), "tcp:a:1"),
            (
                "[::1]:9000",
                Endpoint::Tcp("[::1]:9000".into()),
                "tcp:[::1]:9000",
            ),
            #[cfg(unix)]
            (
                "unix:/tmp/w.sock",
                Endpoint::Unix("/tmp/w.sock".into()),
                "unix:/tmp/w.sock",
            ),
            #[cfg(unix)]
            (
                "unix:relative.sock",
                Endpoint::Unix("relative.sock".into()),
                "unix:relative.sock",
            ),
        ];
        for (spec, want, display) in cases {
            let got = Endpoint::parse(spec).unwrap_or_else(|e| panic!("{spec:?}: {e}"));
            assert_eq!(got, want, "{spec:?}");
            assert_eq!(got.to_string(), display, "{spec:?}");
            assert_eq!(
                Endpoint::parse(display).unwrap(),
                want,
                "display of {spec:?} must re-parse"
            );
        }
    }

    /// Malformed specs, table-driven: every scheme's empty/garbage
    /// forms must be rejected, never mis-parsed as another scheme.
    #[test]
    fn endpoint_parse_table_rejects() {
        let cases: &[(&str, &str)] = &[
            ("", "empty spec"),
            ("unix:", "empty unix path"),
            ("shm:/x", "retired shared-memory scheme"),
            ("nohost", "no port separator"),
            ("host:", "empty port"),
            (":80", "empty host"),
            ("host:notaport", "non-numeric port"),
            ("host:65536", "port out of u16 range"),
            ("host:-1", "negative port"),
            ("tcp:host", "tcp scheme without port"),
            ("tcp:", "tcp scheme without address"),
        ];
        for &(bad, why) in cases {
            assert!(
                Endpoint::parse(bad).is_err(),
                "{bad:?} ({why}) should not parse"
            );
        }
        // The retired `shm:` scheme gets the ordinary scheme error.
        let err = Endpoint::parse("shm:/x").unwrap_err().to_string();
        assert!(err.contains("expected tcp:HOST:PORT or unix:PATH"), "{err}");
        // Unknown schemes fall through to host:port parsing; ports make
        // them valid TCP ("weird.scheme:80" is a legal hostname), and
        // anything portless is rejected.
        assert!(Endpoint::parse("quic:host").is_err());
        assert_eq!(
            Endpoint::parse("quic:8080").unwrap(),
            Endpoint::Tcp("quic:8080".into())
        );
    }

    #[test]
    fn tcp_listener_resolves_port_zero() {
        let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        let ep = listener.local_endpoint().unwrap();
        let Endpoint::Tcp(addr) = &ep else {
            panic!("expected tcp endpoint")
        };
        assert!(!addr.ends_with(":0"), "port 0 must resolve, got {addr}");
        // And the resolved endpoint is connectable.
        let _conn = Conn::connect(&ep).unwrap();
    }

    #[test]
    fn read_timeout_unblocks_a_silent_peer() {
        let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        let ep = listener.local_endpoint().unwrap();
        let mut conn = Conn::connect(&ep).unwrap();
        let _peer = listener.accept().unwrap(); // never writes
        conn.set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let start = Instant::now();
        let err = conn.read(&mut [0u8; 8]).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "expected a timeout kind, got {err:?}"
        );
        assert!(start.elapsed() < Duration::from_secs(5), "must not block");
        // Clearing the deadline restores a usable connection.
        conn.set_read_timeout(None).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn unix_listener_cleans_up_socket_file() {
        let path = std::env::temp_dir().join(format!("qlove-net-test-{}.sock", std::process::id()));
        let ep = Endpoint::Unix(path.clone());
        {
            let listener = Listener::bind(&ep).unwrap();
            assert!(path.exists());
            let _conn = Conn::connect_retry(&ep, Duration::from_secs(1)).unwrap();
            let _accepted = listener.accept().unwrap();
        }
        assert!(
            !path.exists(),
            "dropping the listener must remove the socket file"
        );
        // Re-binding over a stale file (simulated) also works.
        std::fs::write(&path, b"stale").unwrap();
        let _listener = Listener::bind(&ep).unwrap();
    }
}
