//! The system under test: a spawned `rbs-netd`, or (for the smoke test)
//! an in-process `rbs_net::Server`, plus its drain footer.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use rbs_net::{NetConfig, Server};
use rbs_svc::{Service, ServiceConfig, WorkerPool};

/// Worker threads of the daemon under test (the benchmark host has two
/// cores).
pub const JOBS: usize = 2;

/// How long a spawned daemon may take to publish its address.
const START_TIMEOUT: Duration = Duration::from_secs(30);

/// How the benchmark reaches the daemon.
#[derive(Debug, Clone)]
pub enum Launch {
    /// Spawn this `rbs-netd` executable.
    Netd(PathBuf),
    /// Serve from an `rbs_net::Server` inside the benchmark process.
    InProcess,
}

/// A running daemon.
#[derive(Debug)]
pub enum Target {
    /// A child `rbs-netd` process.
    Spawned(Daemon),
    /// An in-process server.
    InProcess(Server),
}

impl Target {
    /// Starts a daemon; `dir` holds its port file.
    ///
    /// # Errors
    ///
    /// Spawn, bind or start-up failures.
    pub fn start(launch: &Launch, dir: &Path) -> io::Result<Target> {
        match launch {
            Launch::Netd(path) => Daemon::spawn(path, dir).map(Target::Spawned),
            Launch::InProcess => {
                let service = Service::with_config(WorkerPool::new(JOBS), ServiceConfig::default());
                Server::bind("127.0.0.1:0", service, NetConfig::default(), |_| {})
                    .map(Target::InProcess)
            }
        }
    }

    /// The listening address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        match self {
            Target::Spawned(daemon) => daemon.addr,
            Target::InProcess(server) => server.addr(),
        }
    }

    /// Peak resident memory of the serving process in KiB (`VmHWM`).
    #[must_use]
    pub fn peak_rss_kib(&self) -> Option<u64> {
        let status = match self {
            Target::Spawned(daemon) => format!("/proc/{}/status", daemon.child.id()),
            Target::InProcess(_) => "/proc/self/status".to_owned(),
        };
        let text = fs::read_to_string(status).ok()?;
        let line = text.lines().find(|line| line.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// Drains the daemon and returns its cumulative footer.
    ///
    /// # Errors
    ///
    /// The daemon failed to drain cleanly or printed no footer.
    pub fn drain(self) -> io::Result<Footer> {
        match self {
            Target::Spawned(daemon) => daemon.drain(),
            Target::InProcess(server) => Ok(Footer::parse(&server.shutdown()?.footer(JOBS))),
        }
    }
}

/// A child `rbs-netd --listen 127.0.0.1:0 --port-file … --jobs 2`. Its
/// stdin is the drain signal; dropping it without draining kills it.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stderr: Option<JoinHandle<String>>,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(netd: &Path, dir: &Path) -> io::Result<Daemon> {
        let port_file = dir.join(format!("netd-{}.addr", std::process::id()));
        let _ = fs::remove_file(&port_file);
        let mut child = Command::new(netd)
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--port-file")
            .arg(&port_file)
            .arg("--jobs")
            .arg(JOBS.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let stderr = child.stderr.take().map(|mut pipe| {
            thread::spawn(move || {
                let mut text = String::new();
                let _ = pipe.read_to_string(&mut text);
                text
            })
        });
        let mut daemon = Daemon {
            child,
            stdin,
            stderr,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let started = Instant::now();
        loop {
            // The daemon writes the address and a newline in one call;
            // a read without the newline caught the write midway.
            if let Ok(text) = fs::read_to_string(&port_file) {
                if let Some(addr) = text.strip_suffix('\n') {
                    daemon.addr = addr.parse().map_err(io::Error::other)?;
                    let _ = fs::remove_file(&port_file);
                    return Ok(daemon);
                }
            }
            if let Some(status) = daemon.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "rbs-netd exited at start: {status}"
                )));
            }
            if started.elapsed() > START_TIMEOUT {
                return Err(io::Error::other("rbs-netd did not publish its address"));
            }
            thread::sleep(Duration::from_micros(200));
        }
    }

    fn drain(mut self) -> io::Result<Footer> {
        drop(self.stdin.take());
        let status = self.child.wait()?;
        let stderr = match self.stderr.take() {
            Some(reader) => reader
                .join()
                .map_err(|_| io::Error::other("stderr reader panicked"))?,
            None => String::new(),
        };
        if !status.success() {
            return Err(io::Error::other(format!(
                "rbs-netd drained with {status}: {stderr}"
            )));
        }
        let footer = stderr
            .lines()
            .rev()
            .find(|line| line.starts_with("rbs-svc: served="))
            .ok_or_else(|| io::Error::other(format!("no drain footer in: {stderr}")))?;
        Ok(Footer::parse(footer))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.stdin.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
    }
}

/// The cumulative drain footer as `block.key → value` (`served`,
/// `cache.hits`, `walks.integer`, …).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footer(pub HashMap<String, u64>);

impl Footer {
    /// Parses `key=value` tokens, prefixing keys inside `block{…}` with
    /// the block's name.
    #[must_use]
    pub fn parse(line: &str) -> Footer {
        let mut values = HashMap::new();
        let mut block = String::new();
        for token in line.split_whitespace() {
            let mut token = token;
            if let Some((name, rest)) = token.split_once('{') {
                block = format!("{name}.");
                token = rest;
            }
            let closes = token.ends_with('}');
            if let Some((key, value)) = token.trim_end_matches('}').split_once('=') {
                if let Ok(value) = value.parse() {
                    values.insert(format!("{block}{key}"), value);
                }
            }
            if closes {
                block.clear();
            }
        }
        Footer(values)
    }

    /// The value of `key`, 0 when absent.
    #[must_use]
    pub fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footer_keys_carry_their_block() {
        let footer = Footer::parse(
            "rbs-svc: served=10 ok=9 errors{total=1 parse=1 limits=0} cache{hits=4 negative=0} \
             coalesced=2 analyzed=3 jobs=2 walks{integer=7 exact=0} latency_micros{p50=5 p99=9} \
             net{double_done=0}",
        );
        assert_eq!(footer.get("served"), 10);
        assert_eq!(footer.get("errors.total"), 1);
        assert_eq!(footer.get("cache.hits"), 4);
        assert_eq!(footer.get("analyzed"), 3);
        assert_eq!(footer.get("walks.integer"), 7);
        assert_eq!(footer.get("net.double_done"), 0);
    }
}
