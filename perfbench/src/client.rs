//! The process under test and the client side of its wire protocol.
//!
//! The daemon is started with deployment flags only (`--port 0`, and
//! `--data-dir` where the workload is durable). The client sets
//! `TCP_NODELAY` and sends each request, block included, in one write;
//! it uses no quick-ACK tricks, so any stall the daemon's own writes
//! cause shows in the measured latency.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use schema_merge_text::protocol::{parse_status_line, BlockCollector, Status};

/// How long a request may take before the client gives up on it.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `smerge serve`.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts the daemon and waits for its `listening on` line.
    pub fn spawn(smerge: &Path, data_dir: Option<&Path>) -> Result<Daemon, String> {
        let mut command = Command::new(smerge);
        command.args(["serve", "--port", "0"]);
        if let Some(dir) = data_dir {
            command.arg("--data-dir").arg(dir);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|err| format!("starting {}: {err}", smerge.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        loop {
            line.clear();
            let read = daemon
                .stdout
                .read_line(&mut line)
                .map_err(|err| format!("reading daemon output: {err}"))?;
            if read == 0 {
                return Err("the daemon exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                daemon.addr = addr
                    .parse()
                    .map_err(|err| format!("bad listen address `{addr}`: {err}"))?;
                return Ok(daemon);
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `kill -9`, then reap.
    pub fn kill(mut self) -> Result<(), String> {
        self.child
            .kill()
            .and_then(|()| self.child.wait().map(drop))
            .map_err(|err| format!("killing the daemon: {err}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Never leave a daemon behind, whatever path the run took.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let mut rest = Vec::new();
        let _ = self.stdout.read_to_end(&mut rest);
    }
}

/// `VmHWM` of process `pid`, in KiB.
pub fn peak_rss_kib(pid: u32) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|err| format!("reading /proc/{pid}/status: {err}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM for process {pid}"))
}

/// A reply: the status line's word and detail, and the block, if any.
#[derive(Debug)]
pub struct Reply {
    pub status: Status,
    pub detail: String,
    pub block: Option<String>,
    /// Bytes read off the socket for this reply.
    pub bytes: usize,
}

impl Reply {
    /// The value of `key=` in the detail.
    pub fn field(&self, key: &str) -> Option<&str> {
        detail_field(&self.detail, key)
    }
}

/// The value of `key=` in a status detail.
pub fn detail_field<'a>(detail: &'a str, key: &str) -> Option<&'a str> {
    detail
        .split_whitespace()
        .find_map(|word| word.strip_prefix(key)?.strip_prefix('='))
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request in a single write and reads the whole reply.
    pub fn send(&mut self, wire: &str) -> io::Result<Reply> {
        self.writer.write_all(wire.as_bytes())?;
        let mut line = String::new();
        let mut bytes = self.read_line(&mut line)?;
        let (status, detail) = parse_status_line(line.trim_end())
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string()))?;
        let detail = detail.to_string();
        let block = if status == Status::Data {
            let mut collector = BlockCollector::new();
            loop {
                line.clear();
                bytes += self.read_line(&mut line)?;
                if collector.push(line.trim_end_matches(['\n', '\r'])) {
                    break;
                }
            }
            Some(collector.finish())
        } else {
            None
        };
        Ok(Reply {
            status,
            detail,
            block,
            bytes,
        })
    }

    fn read_line(&mut self, line: &mut String) -> io::Result<usize> {
        let read = self.reader.read_line(line)?;
        if read == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "the daemon closed the connection",
            ));
        }
        Ok(read)
    }
}

/// Connects, retrying briefly while a just-started daemon comes up.
pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Conn::connect(addr) {
            Ok(conn) => return Ok(conn),
            Err(err) if Instant::now() >= deadline => {
                return Err(format!("connecting to {addr}: {err}"))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}
