//! The untraced end-to-end run: one client process drives the release
//! `serve_agent` over loopback TCP, times every request on the client and
//! checks every image checksum against an in-process reference.

use crate::server::Server;
use crate::workload::{Request, RequestGen, SplitMix64, Workload};
use beamforming::plan::PlanCache;
use bench::agent::{build_backend, build_streams, image_checksum};
use runtime::json::Json;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A request with no answer this long after the last answer is lost.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Requests sent back to back, in one write, before the measured window:
/// the load-generator self-test, which also warms the server.
pub const SELF_TEST_BURST: usize = 8;

/// Reference checksums keyed by (stream, frame-pool slot).
pub type References = HashMap<(usize, u64), String>;

/// Computes the reference image checksum of every (stream, slot) the run
/// can request, in-process, through the same backend factory and frames
/// the server uses (`build_backend` → `Beamformer::beamform`).
pub fn references(workload: Workload, seed: u64, slots: &[u64]) -> Result<References, String> {
    let config = workload.scenario(seed);
    let (specs, pools) = build_streams(&config);
    let shared_tof = Arc::new(PlanCache::new(4));
    let mut refs = References::new();
    for (stream, spec) in specs.iter().enumerate() {
        let backend = build_backend(&spec.backend, spec, &None, &shared_tof)
            .map_err(|e| format!("building `{}`: {e}", spec.backend))?;
        for &slot in slots {
            let image = backend
                .beamform(
                    &pools[stream][slot as usize],
                    &spec.array,
                    &spec.grid,
                    spec.sound_speed,
                )
                .map_err(|e| format!("reference beamform of `{}`: {e}", spec.backend))?;
            refs.insert((stream, slot), image_checksum(&image));
        }
    }
    Ok(refs)
}

/// Requests sent and how each ended.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    /// Answered with a status other than `ok`.
    pub not_ok: u64,
    /// `ok`, but the checksum differs from the in-process reference.
    pub mismatched: u64,
    /// Answers for ids that were not outstanding (duplicates, strays).
    pub unexpected: u64,
    /// No answer by the drain deadline.
    pub lost: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.not_ok + self.mismatched + self.unexpected + self.lost
    }

    pub fn error_rate(&self) -> f64 {
        self.failed() as f64 / self.sent.max(1) as f64
    }
}

/// One loopback connection with its outstanding requests. The reader is
/// created once and lives as long as the connection, so answers that arrive
/// back to back stay buffered across reads and writes.
pub struct Client<'a> {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    refs: &'a References,
    outstanding: HashMap<u64, (Instant, Request)>,
    pub tally: Tally,
}

impl<'a> Client<'a> {
    pub fn connect(port: u16, refs: &'a References) -> Result<Self, String> {
        let stream =
            TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connecting: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(DRAIN_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Self {
            writer: stream,
            reader,
            refs,
            outstanding: HashMap::new(),
            tally: Tally::default(),
        })
    }

    /// Sends `requests` in a single write.
    pub fn send(&mut self, requests: &[Request]) -> Result<(), String> {
        let bytes: String = requests.iter().map(Request::line).collect();
        let now = Instant::now();
        self.writer
            .write_all(bytes.as_bytes())
            .map_err(|e| format!("sending: {e}"))?;
        for request in requests {
            self.outstanding.insert(request.id, (now, *request));
        }
        self.tally.sent += requests.len() as u64;
        Ok(())
    }

    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Reads one answer. Returns its latency when it is a correct `ok`
    /// answer to an outstanding request, `None` for any other answer. On
    /// timeout or a closed connection, every outstanding request is counted
    /// lost and an error returned.
    pub fn recv(&mut self) -> Result<Option<Duration>, String> {
        let mut line = String::new();
        let read = self.reader.read_line(&mut line);
        let now = Instant::now();
        let failure = match read {
            Ok(0) => Some("server closed the connection".to_string()),
            Ok(_) if line.ends_with('\n') => None,
            Ok(_) => Some("truncated answer".to_string()),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                Some(format!("no answer within {DRAIN_TIMEOUT:?}"))
            }
            Err(e) => Some(format!("reading: {e}")),
        };
        if let Some(reason) = failure {
            self.tally.lost += self.outstanding.len() as u64;
            let lost = self.outstanding.len();
            self.outstanding.clear();
            return Err(format!("{reason}; {lost} request(s) lost"));
        }
        let answer =
            Json::parse(line.trim()).map_err(|e| format!("bad answer `{}`: {e}", line.trim()))?;
        let id = answer.get("id").and_then(Json::as_u64);
        let Some((sent_at, request)) = id.and_then(|id| self.outstanding.remove(&id)) else {
            self.tally.unexpected += 1;
            return Ok(None);
        };
        if answer.get("status").and_then(Json::as_str) != Some("ok") {
            self.tally.not_ok += 1;
            return Ok(None);
        }
        let expected = self.refs.get(&(request.stream, request.slot()));
        if expected.map(String::as_str) != answer.get("sum").and_then(Json::as_str) {
            self.tally.mismatched += 1;
            return Ok(None);
        }
        self.tally.ok += 1;
        Ok(Some(now - sent_at))
    }
}

/// Sends [`SELF_TEST_BURST`] requests in one write and checks that exactly
/// that many correct answers come back.
pub fn self_test(client: &mut Client, gen: &mut RequestGen) -> Result<(), String> {
    let burst: Vec<Request> = (0..SELF_TEST_BURST).map(|_| gen.next()).collect();
    client.send(&burst)?;
    let mut correct = 0;
    while client.outstanding() > 0 {
        if client.recv()?.is_some() {
            correct += 1;
        }
    }
    if correct != SELF_TEST_BURST {
        return Err(format!(
            "self-test: {correct} of {SELF_TEST_BURST} pipelined requests answered correctly"
        ));
    }
    Ok(())
}

/// The measured window of a closed loop.
#[derive(Debug, Clone)]
pub struct Window {
    /// Client-side send→answer times of correct answers, in ms.
    pub latencies_ms: Vec<f64>,
    /// From the first send to the last answer.
    pub elapsed: Duration,
}

/// Keeps `inflight` requests outstanding, sending the next one as each
/// answer arrives, until `duration` has passed; then drains.
pub fn closed_loop(
    client: &mut Client,
    gen: &mut RequestGen,
    inflight: usize,
    duration: Duration,
) -> Result<Window, String> {
    let start = Instant::now();
    let stop_sending = start + duration;
    let first: Vec<Request> = (0..inflight).map(|_| gen.next()).collect();
    client.send(&first)?;
    let mut latencies_ms = Vec::new();
    while client.outstanding() > 0 {
        if let Some(latency) = client.recv()? {
            latencies_ms.push(latency.as_secs_f64() * 1e3);
        }
        if Instant::now() < stop_sending {
            client.send(&[gen.next()])?;
        }
    }
    Ok(Window {
        latencies_ms,
        elapsed: start.elapsed(),
    })
}

/// Everything one untraced run measures.
pub struct E2eRun {
    pub setup_s: Vec<f64>,
    pub window: Window,
    pub server_cpu_s: f64,
    pub server_rss_kb: u64,
    pub tally: Tally,
    /// The server's `RouterStatsWire` at shutdown.
    pub router_stats: Json,
    pub refs: References,
}

/// Runs one workload end to end: computes references, starts the server
/// `setups` times (keeping the last for the measurement), self-tests the
/// load generator, then measures a closed loop of `duration`.
pub fn run(
    workload: Workload,
    seed: u64,
    duration: Duration,
    server_bin: &Path,
    setups: usize,
) -> Result<E2eRun, String> {
    let mut rng = SplitMix64::new(seed);
    let slots = workload.slots(&mut rng);
    let refs = references(workload, seed, &slots)?;
    let config = workload.scenario(seed);
    let mut gen = RequestGen::new(rng, workload.stream_cycle(), slots);

    let mut setup_s = Vec::with_capacity(setups);
    let mut server = None;
    for i in 0..setups.max(1) {
        let (spawned, setup) = Server::spawn(server_bin, &config)?;
        setup_s.push(setup.as_secs_f64());
        if i + 1 < setups {
            spawned.shutdown()?;
        } else {
            server = Some(spawned);
        }
    }
    let server = server.expect("at least one server spawned");

    let mut client = Client::connect(server.port, &refs)?;
    let measured = self_test(&mut client, &mut gen).and_then(|()| {
        let cpu_before = server.cpu_seconds()?;
        let window = closed_loop(&mut client, &mut gen, workload.inflight(), duration)?;
        let cpu_after = server.cpu_seconds()?;
        Ok((window, cpu_after - cpu_before))
    });
    let tally = client.tally;
    drop(client);
    let (window, server_cpu_s) = match measured {
        Ok(m) => m,
        Err(e) => {
            let _ = server.shutdown();
            return Err(format!("{e} (tally: {tally:?})"));
        }
    };
    let server_rss_kb = server.peak_rss_kb()?;
    let router_stats = server.shutdown()?;
    Ok(E2eRun {
        setup_s,
        window,
        server_cpu_s,
        server_rss_kb,
        tally,
        router_stats,
        refs,
    })
}
