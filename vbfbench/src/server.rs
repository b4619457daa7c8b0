//! The release `serve_agent` as a child process: spawn, `/proc` sampling
//! from outside, and shutdown.

use bench::harness::ScenarioConfig;
use runtime::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the server may take to print `ready` or its final stats line.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(60);

/// Linux reports `utime`/`stime` in `/proc/<pid>/stat` in USER_HZ ticks,
/// which the kernel ABI fixes at 100 per second.
const TICKS_PER_SECOND: f64 = 100.0;

pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
    pub port: u16,
}

impl Server {
    /// Spawns the server with `config` and waits for its `ready` line.
    /// Returns the server and its set-up time: spawn to `ready`, which covers
    /// the frame pools, engine and quantized-weight build, and the ToF plan
    /// build and warm.
    pub fn spawn(binary: &Path, config: &ScenarioConfig) -> Result<(Server, Duration), String> {
        let config_line = Json::obj([("scenario", config.to_json())]).to_string_compact();
        let start = Instant::now();
        let mut child = Command::new(binary)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut server = Server {
            stdin: child.stdin.take(),
            child,
            lines,
            reader: Some(reader),
            port: 0,
        };
        server.send_control(&config_line)?;
        let ready = server.expect_event("ready")?;
        let setup = start.elapsed();
        server.port = ready
            .get("port")
            .and_then(Json::as_u64)
            .and_then(|p| u16::try_from(p).ok())
            .ok_or("ready line without a port")?;
        Ok((server, setup))
    }

    fn send_control(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("server stdin already closed")?;
        writeln!(stdin, "{line}")
            .and_then(|_| stdin.flush())
            .map_err(|e| format!("writing to the server: {e}"))
    }

    fn expect_event(&self, event: &str) -> Result<Json, String> {
        let deadline = Instant::now() + CONTROL_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = self.lines.recv_timeout(left).map_err(|_| {
                format!("no `{event}` line from the server within {CONTROL_TIMEOUT:?}")
            })?;
            let Ok(value) = Json::parse(line.trim()) else {
                continue;
            };
            match value.get("event").and_then(Json::as_str) {
                Some(e) if e == event => return Ok(value),
                Some("error") => return Err(format!("server error: {line}")),
                _ => continue,
            }
        }
    }

    /// Server user + system CPU time so far, all threads, in seconds.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        // The command name sits in parentheses and may hold spaces; fields
        // after it start at `state` (field 3), so utime (14) and stime (15)
        // are the 12th and 13th.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or("malformed /proc stat")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> Result<u64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| format!("malformed {path}"))
        };
        Ok((tick(11)? + tick(12)?) as f64 / TICKS_PER_SECOND)
    }

    /// Peak resident set (`VmHWM`) of the server, in kB.
    pub fn peak_rss_kb(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Asks the server to stop, returns its final `router` stats and waits
    /// for the process and the stdout reader to end.
    pub fn shutdown(mut self) -> Result<Json, String> {
        self.send_control("shutdown")?;
        let stats = self.expect_event("stats");
        self.stop();
        let stats = stats?;
        stats
            .get("router")
            .cloned()
            .ok_or_else(|| "stats line without `router`".to_string())
    }

    /// Closes stdin (the server exits on EOF), kills it if it lingers, and
    /// reaps both the process and the reader thread.
    fn stop(&mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.reader.is_some() {
            let _ = self.child.kill();
            self.stop();
        }
    }
}
