//! The three workloads, as the scenario config the server is started with
//! plus the seeded request schedule the client sends.

use bench::agent::FRAME_POOL;
use bench::harness::{LoadModel, ScenarioConfig, StreamLoad};

/// The five fixed-point rungs, in the order `paper_ladder` cycles them.
pub const LADDER: [&str; 5] = [
    "tiny-vbf-fx24",
    "tiny-vbf-fx20",
    "tiny-vbf-fx16",
    "tiny-vbf-w8a20",
    "tiny-vbf-w8a16",
];

/// Paper geometry: 368 depth rows × 128 lateral columns from 128 channels.
pub const PAPER_ROWS: usize = 368;
pub const PAPER_COLS: usize = 128;
pub const PAPER_CHANNELS: usize = 128;
pub const PAPER_SAMPLES: usize = 1024;

/// Frame-pool slots a paper workload draws from in one run. The reference
/// image of every slot is computed in-process before the run and costs as
/// much as a served frame, so the set is small.
const PAPER_SLOTS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperFp,
    PaperLadder,
    SmallFrames,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperFp,
        Workload::PaperLadder,
        Workload::SmallFrames,
    ];

    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                format!(
                    "unknown workload `{name}` (expected paper_fp, paper_ladder or small_frames)"
                )
            })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFp => "paper_fp",
            Workload::PaperLadder => "paper_ladder",
            Workload::SmallFrames => "small_frames",
        }
    }

    /// Server start-ups per untraced run; `setup_s` is their median.
    /// `small_frames` starts in a few ms, so it takes more samples.
    pub fn setups(self) -> usize {
        match self {
            Workload::PaperFp | Workload::PaperLadder => 5,
            Workload::SmallFrames => 21,
        }
    }

    /// Requests kept in flight on the one connection (closed loop).
    pub fn inflight(self) -> usize {
        match self {
            Workload::PaperFp | Workload::PaperLadder => 1,
            Workload::SmallFrames => 8,
        }
    }

    /// The order in which requests visit the streams, repeated.
    /// `paper_ladder` visits the three wide-grid rungs (fx24, fx20, w8a20,
    /// about 270 ms a frame) twice per cycle and the two 16-bit rungs (about
    /// 120 ms) once. With plain round-robin 40% of requests are fast, which
    /// puts the median at the lower edge of the slow group, where it jumps
    /// between the two groups from run to run. With 6 of 8 slow, it sits
    /// inside the slow group.
    pub fn stream_cycle(self) -> Vec<usize> {
        match self {
            Workload::PaperLadder => vec![0, 1, 2, 3, 0, 1, 3, 4],
            Workload::PaperFp | Workload::SmallFrames => vec![0],
        }
    }

    /// The scenario config the server is started with. `seed` fixes the
    /// frame pools, so the server and the in-process reference hold
    /// bit-identical frames.
    pub fn scenario(self, seed: u64) -> ScenarioConfig {
        let mut config = ScenarioConfig::named(self.name());
        config.seed = seed;
        config.max_batch = 8;
        config.load = LoadModel::ClosedLoop {
            inflight: self.inflight(),
        };
        match self {
            Workload::PaperFp | Workload::PaperLadder => {
                config.channels = PAPER_CHANNELS;
                config.grid_rows = PAPER_ROWS;
                config.grid_cols = PAPER_COLS;
                config.num_samples = PAPER_SAMPLES;
                config.streams = if self == Workload::PaperFp {
                    vec![StreamLoad::new("tiny-vbf-fp")]
                } else {
                    LADDER.iter().map(|label| StreamLoad::new(*label)).collect()
                };
            }
            Workload::SmallFrames => {
                config.channels = 32;
                config.grid_rows = 16;
                config.grid_cols = 8;
                config.num_samples = 256;
                config.streams = vec![StreamLoad::new("das-planned")];
            }
        }
        config
    }

    /// Frame-pool slots this run draws from, chosen from the seed.
    pub fn slots(self, rng: &mut SplitMix64) -> Vec<u64> {
        let mut all: Vec<u64> = (0..FRAME_POOL as u64).collect();
        if self == Workload::SmallFrames {
            return all;
        }
        // Partial Fisher-Yates: the first PAPER_SLOTS entries are a seeded
        // sample without replacement.
        for i in 0..PAPER_SLOTS {
            let j = i + (rng.next() % (all.len() - i) as u64) as usize;
            all.swap(i, j);
        }
        all.truncate(PAPER_SLOTS);
        all
    }
}

/// One request as sent on the wire: `{"id":…,"stream":…,"seed":…}`. The
/// server picks frame `seed % FRAME_POOL` of the stream's pool.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub id: u64,
    pub stream: usize,
    pub seed: u64,
}

impl Request {
    pub fn line(&self) -> String {
        format!(
            "{{\"id\":{},\"stream\":{},\"seed\":{}}}\n",
            self.id, self.stream, self.seed
        )
    }

    pub fn slot(&self) -> u64 {
        self.seed % FRAME_POOL as u64
    }
}

/// The seeded request sequence: streams in their cycle, frames drawn from
/// the run's slots.
pub struct RequestGen {
    rng: SplitMix64,
    cycle: Vec<usize>,
    slots: Vec<u64>,
    next_id: u64,
}

impl RequestGen {
    pub fn new(rng: SplitMix64, cycle: Vec<usize>, slots: Vec<u64>) -> Self {
        Self {
            rng,
            cycle,
            slots,
            next_id: 0,
        }
    }

    pub fn next(&mut self) -> Request {
        let id = self.next_id;
        self.next_id += 1;
        let slot = self.slots[(self.rng.next() % self.slots.len() as u64) as usize];
        // Any seed with the right residue names the slot; vary the rest so
        // the wire carries seed-derived values, not a fixed small set.
        let seed = slot + FRAME_POOL as u64 * (self.rng.next() % 1_000_000);
        Request {
            id,
            stream: self.cycle[id as usize % self.cycle.len()],
            seed,
        }
    }
}

/// SplitMix64: a small, well-mixed generator for seeded schedules.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
