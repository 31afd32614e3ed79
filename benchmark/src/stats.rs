//! Small measurement helpers: percentiles, process memory, input
//! digests and a seeded generator for drawing inputs.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of `samples` (`q` in `[0, 1]`); sorts in place.
/// 0 for an empty set.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples`; sorts in place.
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Mean of `samples`; 0 for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// FNV-1a over byte slices: the printed input digest, so two runs can be
/// checked to have used the same generated input.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, bytes: &[u8]) -> Digest {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn words(mut self, words: &[u32]) -> Digest {
        for w in words {
            self = self.bytes(&w.to_le_bytes());
        }
        self
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// SplitMix64: a tiny seeded generator for request draws and input
/// vectors (the program under test never sees it, only its output).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Zipf-distributed ranks over `[0, n)`: rank `r` has weight
/// `1 / (r + 1)^s`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                total += 1.0 / ((r + 1) as f64).powf(s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = self.cumulative.last().copied().unwrap_or(0.0);
        let x = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len().saturating_sub(1))
    }
}

/// Latency samples of one run, in completion order, summarised per
/// sub-window: a quantile is the median of the sub-windows' quantiles,
/// so a burst of machine noise confined to one sub-window does not move
/// it. Each sub-window holds at least `min_per_window` samples; 1000
/// leaves at least ten beyond a p99.
pub struct Timeline {
    /// `(completion time in s, value)`.
    samples: Vec<(f64, f64)>,
    min_per_window: usize,
}

impl Timeline {
    const MAX_WINDOWS: usize = 5;

    pub fn new(min_per_window: usize) -> Timeline {
        Timeline {
            samples: Vec::new(),
            min_per_window,
        }
    }

    pub fn push(&mut self, end_s: f64, value: f64) {
        self.samples.push((end_s, value));
    }

    pub fn extend(&mut self, other: Timeline) {
        self.samples.extend(other.samples);
    }

    fn windows(&mut self) -> Vec<&[(f64, f64)]> {
        self.samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        let n = self.samples.len();
        let w = (n / self.min_per_window).clamp(1, Self::MAX_WINDOWS);
        let per = n.div_ceil(w).max(1);
        self.samples.chunks(per).collect()
    }

    /// Median over sub-windows of the nearest-rank `q` quantile.
    pub fn quantile(&mut self, q: f64) -> f64 {
        let mut per_window: Vec<f64> = self
            .windows()
            .iter()
            .map(|w| percentile(&mut w.iter().map(|s| s.1).collect::<Vec<_>>(), q))
            .collect();
        median(&mut per_window)
    }

    /// Median over sub-windows of completions per second; the first
    /// window starts at time 0.
    pub fn rate(&mut self) -> f64 {
        let mut from = 0.0;
        let mut per_window = Vec::new();
        for w in self.windows() {
            let end = w.last().map_or(from, |s| s.0);
            if end > from {
                per_window.push(w.len() as f64 / (end - from));
            }
            from = end;
        }
        median(&mut per_window)
    }
}

/// The host-speed reference: a fixed unit of sorting, hashing and
/// memory-latency work that shares no code with the program under test.
/// Timed between ops all through a run, it tracks how fast the shared
/// host runs at the time. The write workloads multiply each op's time by
/// [`Reference::local_scale`] (and derive their rates from the scaled
/// times), so a host that runs faster or slower does not move their
/// metrics, while a change to the program moves them as it moves wall
/// time.
pub struct Reference {
    keys: Vec<u32>,
    /// Compressible bytes for an LZW-style dictionary pass.
    text: Vec<u8>,
    /// One cycle through every slot: a dependent walk over 8 MiB.
    ring: Vec<u32>,
    last: Instant,
    times: Vec<f64>,
}

impl Reference {
    /// A typical median unit time on the two-vCPU VM the benchmark was
    /// sized on: scaled times read as they would there.
    const NOMINAL_S: f64 = 0.005;
    /// Measured time between samples; a unit takes about an eighth of
    /// it. Short, so the samples around an op follow the host closely.
    const INTERVAL: Duration = Duration::from_millis(40);

    pub fn new() -> Reference {
        const SLOTS: usize = 1 << 21;
        let mut rng = Rng::new(0x5eed_cafe);
        let keys = (0..1 << 14).map(|_| rng.next_u64() as u32).collect();
        let mut prev = 0u64;
        let text = (0..1 << 16)
            .map(|_| {
                prev = (prev + rng.below(4)) % 24;
                prev as u8
            })
            .collect();
        // Sattolo's shuffle: a random permutation that is one cycle.
        let mut ring: Vec<u32> = (0..SLOTS as u32).collect();
        for i in (1..SLOTS).rev() {
            ring.swap(i, rng.below(i as u64) as usize);
        }
        Reference {
            keys,
            text,
            ring,
            last: Instant::now(),
            times: Vec::new(),
        }
    }

    /// Runs the unit once and records its time.
    pub fn sample(&mut self) {
        type Fixed = std::hash::BuildHasherDefault<std::collections::hash_map::DefaultHasher>;
        let t = Instant::now();
        let mut sorted = self.keys.clone();
        sorted.sort_unstable();
        let mut dict: std::collections::HashMap<(u32, u8), u32, Fixed> = Default::default();
        let (mut w, mut codes) = (u32::from(self.text[0]), 0usize);
        for &c in &self.text[1..] {
            match dict.get(&(w, c)) {
                Some(&code) => w = code,
                None => {
                    dict.insert((w, c), 256 + dict.len() as u32);
                    codes += 1;
                    w = u32::from(c);
                }
            }
        }
        let mut at = sorted[sorted.len() / 2] as usize % self.ring.len();
        for _ in 0..1 << 13 {
            at = self.ring[at] as usize;
        }
        std::hint::black_box((at, codes));
        self.last = Instant::now();
        self.times.push((self.last - t).as_secs_f64());
    }

    /// Samples when [`Self::INTERVAL`] has passed since the last sample;
    /// call it between ops.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= Self::INTERVAL {
            self.sample();
        }
    }

    /// How many samples have been taken: a mark for [`Self::local_scale`].
    pub fn mark(&self) -> usize {
        self.times.len()
    }

    /// Prints the run's sample count, median unit time and the scale
    /// that median gives, on standard error.
    pub fn summary(&self) {
        let m = median(&mut self.times.clone());
        eprintln!(
            "host reference: {} samples, median {:.3} ms, run time scale {:.4}",
            self.times.len(),
            m * 1e3,
            Self::NOMINAL_S / m
        );
    }

    /// `NOMINAL_S` over the mean time of the samples taken just before
    /// and just after `mark`: the scale for an op that ended at `mark`.
    pub fn local_scale(&self, mark: usize) -> f64 {
        let near: Vec<f64> = [mark.checked_sub(1), Some(mark)]
            .into_iter()
            .flatten()
            .filter_map(|k| self.times.get(k).copied())
            .collect();
        let m = mean(&near);
        if m > 0.0 {
            Self::NOMINAL_S / m
        } else {
            1.0
        }
    }
}
