//! The traced run: per-layer times from the public call of each layer,
//! taken inside the benchmark process.
//!
//! It has three parts:
//! 1. a short untraced end-to-end pass against the real server, which gives
//!    the `latency_p50_ms` the traced request path is set against, and the
//!    server's own router counters (batch size, plan-cache hits);
//! 2. the workload's request path replayed in-process with a span around
//!    each layer call, in the order the server runs them, checked against
//!    the same reference checksums as the untraced run;
//! 3. timings of single layer calls at the paper's shapes.
//!
//! Spans and the per-layer table are written to `vbfbench/out/` at the end.

use crate::e2e::{self, References};
use crate::workload::{RequestGen, SplitMix64, Workload, PAPER_CHANNELS, PAPER_COLS, PAPER_ROWS};
use crate::{median, percentile, Args, Metric};
use beamforming::pipeline::{Beamformer, DelayAndSum, PlannedDas};
use beamforming::plan::{BeamformPlan, FrameFormat, PlanCache};
use beamforming::tof::{tof_correct_planned, TofCube};
use bench::agent::{build_router, build_streams, image_checksum};
use neural::activation::softmax_rows;
use neural::init::normal;
use neural::tensor::Tensor;
use quantize::QuantScheme;
use runtime::json::Json;
use serve::router::StreamSpec;
use serve::RouterStatsWire;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tiny_vbf::config::TinyVbfConfig;
use tiny_vbf::gops::tiny_vbf_gops;
use tiny_vbf::model::TinyVbf;
use tiny_vbf::quantized::{QuantizedTinyVbf, QuantizedTinyVbfBeamformer};
use tiny_vbf::training::cube_row;
use ultrasound::{ChannelData, PlaneWave};

/// Measured window of the untraced pass inside a traced run.
const UNTRACED_PASS: Duration = Duration::from_secs(5);

/// Where spans and tables are written, relative to the repository root.
const OUT_DIR: &str = "vbfbench/out";

/// Transformer blocks and heads of the served model (`TinyVbfConfig::small`).
const BLOCKS: usize = 2;
const HEADS: usize = 2;

/// Spans kept in memory and written out when the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    request: u64,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, span: usize) {
        self.spans[span].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span named `name`, a child of `parent`.
    fn child<R>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> R {
        let request = self.spans[parent].request;
        let span = self.begin(name, Some(parent), request);
        let out = f();
        self.end(span);
        out
    }

    /// Total self time per span name, in seconds: each span's duration
    /// minus the part its children cover.
    fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for span in &self.spans {
            *totals.entry(span.name).or_insert(0.0) += (span.end - span.start).as_secs_f64();
            if let Some(parent) = span.parent {
                *totals.entry(self.spans[parent].name).or_insert(0.0) -=
                    (span.end - span.start).as_secs_f64();
            }
        }
        totals
    }

    fn to_json(&self) -> Json {
        Json::arr(self.spans.iter().map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("start_us", Json::num(s.start.as_secs_f64() * 1e6)),
                ("end_us", Json::num(s.end.as_secs_f64() * 1e6)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                ),
                ("request", Json::num(s.request as f64)),
            ])
        }))
    }
}

/// Median seconds per call of `f`, over `reps` timed batches of `inner`
/// calls each.
fn time_per_call<R>(reps: usize, inner: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..inner {
                black_box(f());
            }
            start.elapsed().as_secs_f64() / inner as f64
        })
        .collect();
    median(&samples)
}

/// The backend of one stream, split into the public calls the server's
/// `Beamformer::beamform` makes, so each can carry its own span.
enum Stages {
    /// A Tiny-VBF rung; its ToF plans live in the shared cache.
    TinyVbf(Box<QuantizedTinyVbfBeamformer>),
    Das(PlannedDas),
}

/// Mirrors `bench::agent::build_backend` for the labels the workloads
/// serve; the checksum check against the references proves the mirror.
fn stages(spec: &StreamSpec, plans: &Arc<PlanCache>) -> Result<Stages, String> {
    if spec.backend == "das-planned" {
        return Ok(Stages::Das(PlannedDas::new(DelayAndSum::default())));
    }
    let scheme = QuantScheme::from_backend_label(&spec.backend)
        .ok_or_else(|| format!("no Tiny-VBF scheme for `{}`", spec.backend))?;
    let config = TinyVbfConfig::small().for_frame(spec.array.num_elements(), spec.grid.num_cols());
    let model = TinyVbf::new(&config).map_err(|e| e.to_string())?;
    let backend = Box::new(QuantizedTinyVbfBeamformer::with_tof_cache(
        QuantizedTinyVbf::from_model(&model, scheme),
        Arc::clone(plans),
    ));
    Ok(Stages::TinyVbf(backend))
}

fn tof_plan(
    plans: &PlanCache,
    spec: &StreamSpec,
    frame: &FrameFormat,
) -> Result<Arc<BeamformPlan>, String> {
    plans
        .get_or_build(&spec.array, &spec.grid, spec.sound_speed, frame, || {
            BeamformPlan::for_tof(
                &spec.array,
                &spec.grid,
                PlaneWave::zero_angle(),
                spec.sound_speed,
                *frame,
            )
        })
        .map_err(|e| e.to_string())
}

/// Analytical operations per frame of each traced layer, where one is
/// defined: the ToF gather is two multiplies and an add per retained plan
/// entry, normalisation a compare and a multiply per cube value, the model
/// `tiny_vbf::gops`, and the planned DAS gather two multiplies, an add, an
/// apodisation multiply and an accumulate per entry (the Hilbert transform
/// is not counted).
type OpCounts = BTreeMap<&'static str, f64>;

/// Replays `requests` requests of the workload's path with spans, checking
/// each image against the references.
fn traced_requests(
    workload: Workload,
    seed: u64,
    requests: usize,
    refs: &References,
) -> Result<(Tracer, OpCounts), String> {
    let config = workload.scenario(seed);
    let (specs, pools) = build_streams(&config);
    let plans = Arc::new(PlanCache::new(4));
    let stages: Vec<Stages> = specs
        .iter()
        .map(|s| stages(s, &plans))
        .collect::<Result<_, _>>()?;
    let mut ops = BTreeMap::new();
    // Warm the plans as the server does before `ready`.
    for ((spec, stage), pool) in specs.iter().zip(&stages).zip(&pools) {
        let format = FrameFormat::of(&pool[0]);
        match stage {
            Stages::TinyVbf(_) => {
                let plan = tof_plan(&plans, spec, &format)?;
                let (rows, cols, channels) =
                    (spec.grid.num_rows(), spec.grid.num_cols(), plan.channels());
                ops.insert("beamforming.plan.tof", 3.0 * plan.num_entries() as f64);
                ops.insert(
                    "beamforming.tof.normalize",
                    2.0 * (rows * cols * channels) as f64,
                );
                let model_config = TinyVbfConfig::small().for_frame(channels, cols);
                ops.insert(
                    "tiny_vbf.quantized.beamform_cube",
                    tiny_vbf_gops(&model_config, rows, cols).ops_per_frame as f64,
                );
            }
            Stages::Das(das) => {
                das.prepare(&spec.array, &spec.grid, spec.sound_speed, &format);
                let plan = BeamformPlan::for_das(
                    das.das(),
                    &spec.array,
                    &spec.grid,
                    spec.sound_speed,
                    format,
                )
                .map_err(|e| e.to_string())?;
                ops.insert("beamforming.plan.das_iq", 5.0 * plan.num_entries() as f64);
            }
        }
    }

    // The untraced pass's seeded schedule, so every traced request names a
    // frame the references cover.
    let mut rng = SplitMix64::new(seed);
    let slots = workload.slots(&mut rng);
    let mut gen = RequestGen::new(rng, workload.stream_cycle(), slots);
    let mut tracer = Tracer::new();
    for _ in 0..requests {
        let sent = gen.next();
        let line = sent.line();
        let root = tracer.begin("request", None, sent.id);
        let (id, stream, seed) = tracer.child("runtime.json.parse", root, || {
            let request = Json::parse(line.trim()).map_err(|e| e.to_string())?;
            let field = |name| {
                request
                    .get(name)
                    .and_then(Json::as_u64)
                    .ok_or(format!("no `{name}`"))
            };
            Ok::<_, String>((field("id")?, field("stream")? as usize, field("seed")?))
        })?;
        let slot = seed % bench::agent::FRAME_POOL as u64;
        let frame: ChannelData = tracer.child("bench.frame_pool", root, || {
            pools[stream][slot as usize].clone()
        });
        let spec = &specs[stream];
        let image = match &stages[stream] {
            Stages::TinyVbf(backend) => {
                let mut cube: TofCube = tracer.child("beamforming.plan.tof", root, || {
                    let plan = tof_plan(&plans, spec, &FrameFormat::of(&frame))?;
                    tof_correct_planned(&frame, &plan).map_err(|e| e.to_string())
                })?;
                tracer.child("beamforming.tof.normalize", root, || cube.normalize());
                tracer
                    .child("tiny_vbf.quantized.beamform_cube", root, || {
                        backend.beamform_cube(&cube, &spec.grid)
                    })
                    .map_err(|e| e.to_string())?
            }
            Stages::Das(das) => tracer
                .child("beamforming.plan.das_iq", root, || {
                    das.beamform(&frame, &spec.array, &spec.grid, spec.sound_speed)
                })
                .map_err(|e| e.to_string())?,
        };
        let sum = tracer.child("bench.agent.image_checksum", root, || {
            image_checksum(&image)
        });
        let response = tracer.child("runtime.json.encode", root, || {
            Json::obj([
                ("id", Json::num(id as f64)),
                ("status", Json::str("ok")),
                ("sum", Json::str(sum.clone())),
            ])
            .to_string_compact()
        });
        black_box(response);
        tracer.end(root);
        if refs.get(&(stream, slot)) != Some(&sum) {
            return Err(format!(
                "traced request {id} (`{}`, slot {slot}) differs from the served image",
                spec.backend
            ));
        }
    }
    Ok((tracer, ops))
}

/// One row of the per-layer table.
struct Row {
    layer: &'static str,
    self_ms: f64,
    ops: Option<f64>,
}

/// Mean self time per request of each traced layer.
fn layer_rows(tracer: &Tracer, ops: &OpCounts, requests: usize) -> Vec<Row> {
    tracer
        .self_times()
        .into_iter()
        .filter(|(name, _)| *name != "request")
        .map(|(layer, total_s)| Row {
            layer,
            self_ms: total_s * 1e3 / requests as f64,
            ops: ops.get(layer).copied(),
        })
        .collect()
}

fn table_json(rows: &[Row], unattributed_ms: f64, latency_p50_ms: f64) -> Json {
    let mut entries: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::obj([
                ("layer", Json::str(r.layer)),
                ("self_ms", Json::num(r.self_ms)),
                ("share", Json::num(r.self_ms / latency_p50_ms)),
                ("ops", r.ops.map_or(Json::Null, Json::num)),
                (
                    "gops_per_s",
                    r.ops
                        .map_or(Json::Null, |ops| Json::num(ops / (r.self_ms * 1e6))),
                ),
            ])
        })
        .collect();
    entries.push(Json::obj([
        ("layer", Json::str("unattributed")),
        ("self_ms", Json::num(unattributed_ms)),
        ("share", Json::num(unattributed_ms / latency_p50_ms)),
        ("ops", Json::Null),
        ("gops_per_s", Json::Null),
    ]));
    Json::arr(entries)
}

fn print_table(rows: &[Row], unattributed_ms: f64, latency_p50_ms: f64, latency_mean_ms: f64) {
    println!(
        "  {:<36} {:>12} {:>8} {:>14} {:>10}",
        "layer", "self ms", "share", "ops/frame", "GOP/s"
    );
    for r in rows {
        let ops = r.ops.map_or("-".to_string(), |o| format!("{o:.4e}"));
        let rate = r
            .ops
            .map_or("-".to_string(), |o| format!("{:.3}", o / (r.self_ms * 1e6)));
        println!(
            "  {:<36} {:>12.4} {:>7.1}% {:>14} {:>10}",
            r.layer,
            r.self_ms,
            100.0 * r.self_ms / latency_p50_ms,
            ops,
            rate
        );
    }
    println!(
        "  {:<36} {:>12.4} {:>7.1}%   (untraced latency_p50_ms {latency_p50_ms:.4})",
        "unattributed",
        unattributed_ms,
        100.0 * unattributed_ms / latency_p50_ms
    );
    let attributed: f64 = rows.iter().map(|r| r.self_ms).sum();
    println!(
        "  {:<36} {:>12.4}            (untraced mean latency {latency_mean_ms:.4} ms)",
        "unattributed vs mean",
        latency_mean_ms - attributed
    );
}

/// Router counters the server reported at shutdown.
fn router_counters(stats: &Json) -> Result<(f64, f64), String> {
    let stats = RouterStatsWire::from_json(stats)?;
    let mean_batch = stats.server.mean_batch();
    let (mut hits, mut misses) = (0u64, 0u64);
    for engine in &stats.engines {
        if let Some(cache) = &engine.plan_cache {
            hits += cache.hits;
            misses += cache.misses;
        }
    }
    Ok((mean_batch, hits as f64 / (hits + misses).max(1) as f64))
}

/// A named group of `(m, k, n)` matmuls timed as one call.
type MatmulGroup<'a> = (&'a str, &'a [(usize, usize, usize)]);

/// Single-call timings at the paper's shapes (and, for the planned DAS
/// and router, at `small_frames`' shape, where they matter).
fn layer_metrics(workload: Workload, seed: u64, metrics: &mut Vec<Metric>) -> Result<(), String> {
    // A request line and an `ok` answer line as they cross the wire.
    let request = RequestGen::new(SplitMix64::new(seed), vec![0], vec![0])
        .next()
        .line();
    let response = r#"{"id":123456,"status":"ok","sum":"0123456789abcdef"}"#;
    let parse = time_per_call(15, 2000, || Json::parse(request.trim()));
    let parsed = Json::parse(response).map_err(|e| e.to_string())?;
    let encode = time_per_call(15, 2000, || parsed.to_string_compact());
    metrics.push(Metric::new("runtime.json.parse_us", parse * 1e6, "us"));
    metrics.push(Metric::new("runtime.json.encode_us", encode * 1e6, "us"));

    // Frame pools and engines, as the server builds them before `ready`.
    let config = workload.scenario(seed);
    let start = Instant::now();
    black_box(build_streams(&config));
    metrics.push(Metric::new(
        "bench.frame_pool_ms",
        start.elapsed().as_secs_f64() * 1e3,
        "ms",
    ));

    let paper = Workload::PaperFp.scenario(seed);
    let (paper_specs, paper_pools) = build_streams(&paper);
    let (spec, frame) = (&paper_specs[0], &paper_pools[0][0]);
    let format = FrameFormat::of(frame);
    let build = || {
        BeamformPlan::for_tof(
            &spec.array,
            &spec.grid,
            PlaneWave::zero_angle(),
            spec.sound_speed,
            format,
        )
    };
    let plan_build_s = time_per_call(3, 1, build);
    let plan = build().map_err(|e| e.to_string())?;
    let tof_s = time_per_call(9, 1, || tof_correct_planned(frame, &plan));
    let cube = tof_correct_planned(frame, &plan).map_err(|e| e.to_string())?;
    // Normalising an already normalised cube scans and scales it all the
    // same, so one cube serves every repetition.
    let mut cube = cube;
    let normalize_s = time_per_call(9, 1, || cube.normalize());
    let rf_bytes = frame.as_slice().len() * 4;
    let cube_bytes = cube.as_slice().len() * 4;
    metrics.push(Metric::new(
        "beamforming.plan.build_ms",
        plan_build_s * 1e3,
        "ms",
    ));
    metrics.push(Metric::new(
        "beamforming.plan.bytes_mb",
        plan.memory_bytes() as f64 / 1e6,
        "MB",
    ));
    metrics.push(Metric::new("beamforming.plan.tof_ms", tof_s * 1e3, "ms"));
    metrics.push(Metric::new(
        "beamforming.plan.tof_read_mb",
        (plan.memory_bytes() + rf_bytes + cube_bytes) as f64 / 1e6,
        "MB",
    ));
    metrics.push(Metric::new(
        "beamforming.tof.normalize_ms",
        normalize_s * 1e3,
        "ms",
    ));

    // The Tiny-VBF rungs over the 368 rows of one normalised paper cube.
    let rows: Vec<Tensor> = (0..cube.rows()).map(|r| cube_row(&cube, r)).collect();
    let model_config = TinyVbfConfig::small().for_frame(PAPER_CHANNELS, PAPER_COLS);
    let model = TinyVbf::new(&model_config).map_err(|e| e.to_string())?;
    let frame_ops = tiny_vbf_gops(&model_config, PAPER_ROWS, PAPER_COLS).ops_per_frame as f64;
    let threads = runtime::default_threads();
    let mut engine_build_s = 0.0;
    let mut fp_one_thread_s = 0.0;
    for scheme in QuantScheme::all() {
        let start = Instant::now();
        let engine = QuantizedTinyVbf::from_model(&model, scheme);
        engine_build_s += start.elapsed().as_secs_f64();
        let infer_s = time_per_call(3, 1, || engine.forward_batch_with_threads(&rows, threads));
        let rung = scheme.backend_label();
        if scheme.is_float() {
            // The softmax share is taken against one thread's frame time,
            // the same basis as the single-threaded softmax timing below.
            fp_one_thread_s = time_per_call(3, 1, || engine.forward_batch_with_threads(&rows, 1));
        }
        metrics.push(Metric::new(
            format!("tiny_vbf.infer_ms.{rung}"),
            infer_s * 1e3,
            "ms",
        ));
        metrics.push(Metric::new(
            format!("tiny_vbf.gops_per_s.{rung}"),
            frame_ops / infer_s / 1e9,
            "GOP/s",
        ));
    }
    metrics.push(Metric::new(
        "tiny_vbf.engine_build_ms",
        engine_build_s * 1e3,
        "ms",
    ));

    // Float kernels at the model's shapes: 128 tokens, 128 channels,
    // model 8, 2 heads of 4, MLP and decoder 16.
    let t = |rows: usize, cols: usize, seed: u64| normal(&[rows, cols], 0.5, seed);
    let scores = t(PAPER_COLS, PAPER_COLS, 1);
    let softmax_s = time_per_call(15, 40, || softmax_rows(&scores));
    let softmax_calls = (PAPER_ROWS * BLOCKS * HEADS) as f64;
    metrics.push(Metric::new("neural.softmax_rows_us", softmax_s * 1e6, "us"));
    metrics.push(Metric::new(
        "neural.softmax_calls_per_frame",
        softmax_calls,
        "count",
    ));
    metrics.push(Metric::new(
        "neural.softmax_share",
        softmax_s * softmax_calls / fp_one_thread_s,
        "ratio",
    ));
    let (tok, ch, d, hd, mlp) = (PAPER_COLS, PAPER_CHANNELS, 8, 4, 16);
    let shapes: [MatmulGroup; 7] = [
        ("encoder", &[(tok, ch, d)]),
        ("qkv", &[(tok, d, d); 3]),
        ("scores", &[(tok, hd, tok)]),
        ("av", &[(tok, tok, hd)]),
        ("out", &[(tok, d, d)]),
        ("mlp", &[(tok, d, mlp), (tok, mlp, d)]),
        ("decoder", &[(tok, d, mlp), (tok, mlp, 2)]),
    ];
    for (name, products) in shapes {
        let operands: Vec<(Tensor, Tensor)> = products
            .iter()
            .enumerate()
            .map(|(i, &(m, k, n))| (t(m, k, 10 + i as u64), t(k, n, 20 + i as u64)))
            .collect();
        let per_call = time_per_call(15, 40, || {
            for (a, b) in &operands {
                black_box(a.matmul(b));
            }
        });
        metrics.push(Metric::new(
            format!("neural.matmul_us.{name}"),
            per_call * 1e6,
            "us",
        ));
    }

    // Integer kernels at the encoder's shape (128 inputs packed into 64 i16
    // pairs, 8 outputs) and one 128-token score row.
    let pairs: Vec<i32> = (0..64)
        .map(|i| runtime::simd::pack_i16_pair(i % 97 - 48, i % 89 - 44))
        .collect();
    let panel: Vec<i32> = (0..64 * 8)
        .map(|i| runtime::simd::pack_i16_pair(i % 61 - 30, i % 53 - 26))
        .collect();
    let mut tile = vec![0i32; 8];
    let madd = time_per_call(15, 20_000, || {
        runtime::simd::madd_block(&mut tile, &pairs, &panel)
    });
    let a_row: Vec<i32> = (0..128).map(|i| i * 37 % 2001 - 1000).collect();
    let b: Vec<i32> = (0..128 * 8).map(|i| i * 53 % 4001 - 2000).collect();
    let mut acc = vec![0i64; 8];
    let mac = time_per_call(15, 20_000, || {
        runtime::simd::i64_mac_row(&mut acc, &a_row, &b)
    });
    let wide: Vec<i32> = (0..128).map(|i| i * 7919 % 1_000_003 - 500_000).collect();
    let mut narrow = vec![0i32; 128];
    let shift = time_per_call(15, 20_000, || {
        runtime::simd::shift_round_saturate_i32(&wide, 8, -32768, 32767, &mut narrow)
    });
    let values = normal(&[PAPER_COLS, PAPER_CHANNELS], 0.5, 3);
    let mut codes = vec![0i32; values.as_slice().len()];
    let quantize = time_per_call(15, 200, || {
        runtime::simd::quantize_codes(values.as_slice(), 4096.0, 32767, -32768, &mut codes)
    });
    metrics.push(Metric::new("runtime.simd.madd_block_us", madd * 1e6, "us"));
    metrics.push(Metric::new("runtime.simd.i64_mac_row_us", mac * 1e6, "us"));
    metrics.push(Metric::new(
        "runtime.simd.shift_round_saturate_i32_us",
        shift * 1e6,
        "us",
    ));
    metrics.push(Metric::new(
        "runtime.simd.quantize_codes_us",
        quantize * 1e6,
        "us",
    ));

    // Planned DAS and the router at small_frames' shape, where a frame
    // costs microseconds and dispatch overhead shows.
    let small = Workload::SmallFrames.scenario(seed);
    let (small_specs, small_pools) = build_streams(&small);
    let (spec, frame) = (&small_specs[0], &small_pools[0][0]);
    let das = PlannedDas::new(DelayAndSum::default());
    das.prepare(
        &spec.array,
        &spec.grid,
        spec.sound_speed,
        &FrameFormat::of(frame),
    );
    let das_s = time_per_call(15, 200, || {
        das.beamform(frame, &spec.array, &spec.grid, spec.sound_speed)
    });
    metrics.push(Metric::new("beamforming.plan.das_iq_us", das_s * 1e6, "us"));
    let router = build_router(&small)?;
    router
        .warm(spec, &FrameFormat::of(frame))
        .map_err(|e| e.to_string())?;
    let mut overheads = Vec::with_capacity(400);
    for _ in 0..400 {
        let start = Instant::now();
        let handle = router
            .submit(spec, frame.clone())
            .map_err(|_| "router refused a request".to_string())?;
        handle.wait().map_err(|e| e.to_string())?;
        let routed = start.elapsed().as_secs_f64();
        let start = Instant::now();
        black_box(
            das.beamform(&frame.clone(), &spec.array, &spec.grid, spec.sound_speed)
                .map_err(|e| e.to_string())?,
        );
        overheads.push(routed - start.elapsed().as_secs_f64());
    }
    router.shutdown();
    metrics.push(Metric::new(
        "serve.router.overhead_us",
        median(&overheads) * 1e6,
        "us",
    ));
    Ok(())
}

/// Traced requests replayed per workload: at least one full stream cycle,
/// few enough to keep the run short.
fn traced_request_count(workload: Workload) -> usize {
    match workload {
        Workload::PaperFp | Workload::PaperLadder => 8,
        Workload::SmallFrames => 2000,
    }
}

pub fn run(args: &Args) -> Result<(), String> {
    let workload = args.workload;
    let pass = e2e::run(
        workload,
        args.seed,
        UNTRACED_PASS.min(Duration::from_secs(args.seconds)),
        &args.server,
        1,
    )?;
    if pass.tally.failed() > 0 || pass.window.latencies_ms.is_empty() {
        return Err(format!("untraced pass failed: {:?}", pass.tally));
    }
    let latencies = &pass.window.latencies_ms;
    let latency_p50_ms = percentile(latencies, 0.5);
    let latency_mean_ms = latencies.iter().sum::<f64>() / latencies.len() as f64;
    let (mean_batch, hit_ratio) = router_counters(&pass.router_stats)?;

    let requests = traced_request_count(workload);
    let (tracer, ops) = traced_requests(workload, args.seed, requests, &pass.refs)?;
    let rows = layer_rows(&tracer, &ops, requests);
    let unattributed_ms = latency_p50_ms - rows.iter().map(|r| r.self_ms).sum::<f64>();

    let mut metrics = vec![
        Metric::new("serve.router.mean_batch", mean_batch, "count"),
        Metric::new("serve.router.plan_cache_hit_ratio", hit_ratio, "ratio"),
        Metric::new("trace.unattributed_ms", unattributed_ms, "ms"),
    ];
    layer_metrics(workload, args.seed, &mut metrics)?;

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/{}-seed{}.trace.json", workload.name(), args.seed);
    let report = Json::obj([
        ("workload", Json::str(workload.name())),
        ("seed", Json::str(args.seed.to_string())),
        ("untraced_latency_p50_ms", Json::num(latency_p50_ms)),
        ("untraced_latency_mean_ms", Json::num(latency_mean_ms)),
        ("traced_requests", Json::num(requests as f64)),
        ("layers", table_json(&rows, unattributed_ms, latency_p50_ms)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })),
        ),
        ("spans", tracer.to_json()),
    ]);
    std::fs::write(&path, report.to_string_pretty()).map_err(|e| format!("writing {path}: {e}"))?;

    println!(
        "workload {} seed {}: traced run, {requests} requests, spans in {path}",
        workload.name(),
        args.seed
    );
    print_table(&rows, unattributed_ms, latency_p50_ms, latency_mean_ms);
    for m in &metrics {
        println!("  {:<44} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        crate::result_line(true, pass.tally.sent + requests as u64, 0, &metrics)
    );
    Ok(())
}
