//! Quantiles, the end-to-end metrics and the result line.

use std::time::Duration;

/// Linearly interpolated `q`-quantile (0 ≤ q ≤ 1) of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Fewest samples a p99 is taken over.
const P99_MIN_SAMPLES: usize = 1000;

/// One block of a measured window.
pub struct Block {
    pub ops: u64,
    pub wall: Duration,
    /// CPU time of the process doing the work.
    pub cpu: Duration,
    /// Hypervisor steal over the whole host during the block, in ticks.
    pub steal: u64,
    /// Per-operation latencies in ms.
    pub lat_ms: Vec<f64>,
    /// Seconds each set-up timed right after the block took.
    pub setup_s: Vec<f64>,
}

/// Length of one block.
const BLOCK: Duration = Duration::from_secs(1);

/// Blocks a measured window of `dur` is cut into, of about [`BLOCK`] each.
pub fn blocks_in(dur: Duration) -> usize {
    ((dur.as_secs_f64() / BLOCK.as_secs_f64()).round() as usize).max(1)
}

/// The blocks that measure the program rather than its host: the third
/// of a run's blocks (at least 3) during which the hypervisor took the
/// least CPU time away from this machine. On a shared 2-vCPU host, steal
/// comes in bursts of seconds and can take a quarter of the CPU. A block's
/// steal covers its load and the set-ups timed after it.
pub fn quiet(blocks: &[Block]) -> Vec<&Block> {
    let mut order: Vec<&Block> = blocks.iter().collect();
    order.sort_by_key(|b| b.steal);
    order.truncate(blocks.len().div_ceil(3).max(3));
    order
}

/// Throughput, median latency and p99 latency of the [`quiet`] blocks:
/// medians over the blocks for the first two, and the p99 over their
/// samples, with blocks added in order of rising steal until there are at
/// least [`P99_MIN_SAMPLES`].
pub fn latency(blocks: &[Block]) -> (f64, f64, f64) {
    let kept = quiet(blocks);
    let ops = median(
        &kept
            .iter()
            .map(|b| b.ops as f64 / b.wall.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let p50 = median(&kept.iter().map(|b| median(&b.lat_ms)).collect::<Vec<_>>());
    let mut by_steal: Vec<&Block> = blocks.iter().collect();
    by_steal.sort_by_key(|b| b.steal);
    let mut lat = Vec::new();
    for (i, b) in by_steal.iter().enumerate() {
        if i >= kept.len() && lat.len() >= P99_MIN_SAMPLES {
            break;
        }
        lat.extend_from_slice(&b.lat_ms);
    }
    (ops, p50, quantile(&lat, 0.99))
}

/// The end-to-end metrics. CPU per operation is the median over the
/// [`quiet`] blocks, and set-up time the median of the set-ups timed
/// after them. Throughput and latency are printed on stderr but not
/// returned: under this host's steal they do not repeat (see README).
pub fn end_to_end(blocks: &[Block], peak_rss_mb: f64) -> Metrics {
    let kept = quiet(blocks);
    let steal_share = |bs: &[&Block]| {
        let ticks: u64 = bs.iter().map(|b| b.steal).sum();
        let secs: f64 = bs.iter().map(|b| b.wall.as_secs_f64()).sum();
        // Ticks are 10 ms; the host has 2 vCPUs.
        ticks as f64 / (secs * 2.0)
    };
    let (ops, p50, p99) = latency(blocks);
    eprintln!(
        "steal {:.1}% of host CPU over all {} blocks, {:.1}% over the {} kept; \
         ungated: {ops:.1} ops/s, p50 {p50:.3} ms, p99 {p99:.3} ms",
        steal_share(&blocks.iter().collect::<Vec<_>>()),
        blocks.len(),
        steal_share(&kept),
        kept.len()
    );
    let setups: Vec<f64> = kept
        .iter()
        .flat_map(|b| b.setup_s.iter().copied())
        .collect();
    eprintln!(
        "set-up over the {} samples after the kept blocks: min {:.4} s, median {:.4} s, max {:.4} s",
        setups.len(),
        quantile(&setups, 0.0),
        median(&setups),
        quantile(&setups, 1.0)
    );
    let cpu_ms = kept
        .iter()
        .map(|b| b.cpu.as_secs_f64() * 1e3 / b.ops as f64)
        .collect::<Vec<_>>();
    let mut m = Metrics::default();
    m.put("cpu_ms_per_op", median(&cpu_ms), "ms");
    m.put("setup_s", median(&setups), "s");
    m.put("peak_rss_mb", peak_rss_mb, "MB");
    m
}

/// What one run measured and counted.
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations started: requests sent, or relearn cycles begun.
    pub attempted: u64,
    /// Operations that ended in an error: `Error` answers, or relearn
    /// cycles that returned one.
    pub failed: u64,
    /// Failed output checks.
    pub bad: Vec<String>,
}

/// Named metrics in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// The result object: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".into()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }
}
