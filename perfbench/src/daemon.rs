//! A `kertctl serve` child process, and what `/proc` says about it.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use kert_bn::serving::{Client, Response, StatusInfo};

/// Longest a daemon may take to answer its first `Ping`.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// A running daemon. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Option<Child>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawn `kertctl serve` with the shipped defaults on `model` and
    /// return it with the time from spawn until its first `Ping` answered.
    pub fn start(
        kertctl: &Path,
        model: &Path,
        work: &Path,
        trace: bool,
    ) -> io::Result<(Daemon, Duration)> {
        let port_file: PathBuf = work.join(format!("port-{}", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log_path(work))?;
        let mut cmd = Command::new(kertctl);
        cmd.arg("serve")
            .arg("--model")
            .arg(model)
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log);
        if trace {
            cmd.arg("--trace");
        }
        let t0 = Instant::now();
        let child = cmd.spawn()?;
        let mut daemon = Daemon {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        loop {
            if let Some(addr) = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|s| s.trim().parse::<SocketAddr>().ok())
            {
                if let Ok(mut c) = Client::connect(addr) {
                    if let Ok(Response::Pong) = c.ping() {
                        let setup = t0.elapsed();
                        daemon.addr = addr;
                        let _ = std::fs::remove_file(&port_file);
                        return Ok((daemon, setup));
                    }
                }
            }
            if let Some(status) = daemon.child.as_mut().and_then(|c| c.try_wait().transpose()) {
                return Err(io::Error::other(format!(
                    "kertctl serve exited early: {:?}",
                    status?
                )));
            }
            if t0.elapsed() > START_TIMEOUT {
                return Err(io::Error::other(
                    "kertctl serve did not answer Ping in time",
                ));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().expect("running").id()
    }

    pub fn status(&self) -> io::Result<StatusInfo> {
        match Client::connect(self.addr)?.status()? {
            Response::Status(s) => Ok(s),
            other => Err(io::Error::other(format!("Status answered {other:?}"))),
        }
    }

    /// The daemon's Prometheus exposition.
    pub fn metrics(&self) -> io::Result<String> {
        match Client::connect(self.addr)?.metrics()? {
            Response::Metrics { prometheus } => Ok(prometheus),
            other => Err(io::Error::other(format!("Metrics answered {other:?}"))),
        }
    }

    /// User plus system CPU time of the daemon so far.
    pub fn cpu(&self) -> io::Result<Duration> {
        cpu_of(&format!("/proc/{}/stat", self.pid()))
    }

    /// Peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        peak_rss_mb_of(&format!("/proc/{}/status", self.pid()))
    }

    /// Graceful stop: `Stop` drains, acknowledges, and the process exits
    /// cleanly. The daemon can exit before its `Stopping` frame reaches the
    /// socket (`ServerHandle::wait` may see no acknowledgment pending
    /// before the connection thread registers one), so a connection closed
    /// without a reply is accepted here as long as the process then exits
    /// with success. Stop is not counted as an operation.
    pub fn stop(mut self) -> io::Result<()> {
        match Client::connect(self.addr)?.stop() {
            Ok(Response::Stopping) => {}
            Ok(other) => return Err(io::Error::other(format!("Stop answered {other:?}"))),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {}
            Err(e) => return Err(e),
        }
        let status = self.child.take().expect("running").wait()?;
        if !status.success() {
            return Err(io::Error::other(format!(
                "kertctl serve exited with {status}"
            )));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Where every daemon of a run writes its stderr.
pub fn log_path(work: &Path) -> PathBuf {
    work.join("kertd.log")
}

/// Kernel clock ticks per second in `/proc/*/stat` (`USER_HZ`, fixed at
/// 100 by the Linux ABI).
const USER_HZ: u64 = 100;

/// utime + stime of a process (all its threads) from a `stat` file.
pub fn cpu_of(stat_path: &str) -> io::Result<Duration> {
    let stat = std::fs::read_to_string(stat_path)?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::other("malformed stat"))?;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> io::Result<u64> {
        f.get(i)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| io::Error::other("malformed stat"))
    };
    let total = ticks(11)? + ticks(12)?;
    Ok(Duration::from_millis(total * 1000 / USER_HZ))
}

/// Ticks of hypervisor steal summed over the host's CPUs so far.
pub fn steal_ticks() -> io::Result<u64> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    // `cpu  user nice system idle iowait irq softirq steal ...`
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| io::Error::other("no steal field in /proc/stat"))
}

/// `VmHWM` from a `status` file, in MB.
pub fn peak_rss_mb_of(status_path: &str) -> io::Result<f64> {
    let status = std::fs::read_to_string(status_path)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM"))
}
