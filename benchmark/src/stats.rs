//! Order statistics and the outcome accumulator shared by every workload.
//!
//! The accumulators hold a bounded number of samples, so the benchmark's
//! own bookkeeping does not grow with throughput and `peak_rss_mib`
//! measures the program, not the sample count.

/// Sorts a copy (NaN-free input; infinities sort last).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank quantile of sorted data: the smallest sample with at
/// least a `q` share of the data at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank).
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v), 0.5)
}

/// Tail percentile reported as `p99` when the sample allows.
pub const TAIL_Q: f64 = 0.99;
/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// A latency summary: the median, and the tail percentile — [`TAIL_Q`]
/// when at least [`TAIL_SAMPLES`] samples lie beyond it, else the highest
/// percentile that leaves that many.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub p50: f64,
    pub tail: f64,
    pub tail_q: f64,
    pub n: usize,
}

pub fn tail(v: &[f64]) -> Tail {
    let s = sorted(v);
    let n = s.len();
    let q = TAIL_Q
        .min((n.saturating_sub(TAIL_SAMPLES)) as f64 / n as f64)
        .max(0.5);
    Tail {
        p50: quantile(&s, 0.5),
        tail: quantile(&s, q),
        tail_q: q,
        n,
    }
}

/// Samples per chunk of [`Latencies`]: enough that a p99 leaves
/// [`TAIL_SAMPLES`] beyond it.
pub const CHUNK_SAMPLES: usize = 1000;

/// Streaming latency summary over consecutive chunks of at least
/// [`CHUNK_SAMPLES`] samples (one chunk when the run has fewer than two
/// chunks' worth). The result is the median of the chunks' [`Tail`]s: a
/// stall that hits one stretch of the run moves one chunk, not the result.
#[derive(Debug, Default)]
pub struct Latencies {
    pending: Vec<f64>,
    chunks: Vec<Tail>,
    n: usize,
}

impl Latencies {
    pub fn push(&mut self, v: f64) {
        self.pending.push(v);
        self.n += 1;
        if self.pending.len() == 2 * CHUNK_SAMPLES {
            self.chunks.push(tail(&self.pending[..CHUNK_SAMPLES]));
            self.pending.drain(..CHUNK_SAMPLES);
        }
    }

    /// The median chunk summary (its `tail_q` is the lowest any chunk
    /// used, its `n` the whole sample count) and the number of chunks.
    pub fn summary(&self) -> Option<(Tail, usize)> {
        let mut chunks = self.chunks.clone();
        if !self.pending.is_empty() {
            chunks.push(tail(&self.pending));
        }
        if chunks.is_empty() {
            return None;
        }
        let pick = |f: fn(&Tail) -> f64| median(&chunks.iter().map(f).collect::<Vec<_>>());
        let t = Tail {
            p50: pick(|t| t.p50),
            tail: pick(|t| t.tail),
            tail_q: chunks.iter().map(|t| t.tail_q).fold(1.0, f64::min),
            n: self.n,
        };
        Some((t, chunks.len()))
    }
}

/// Error samples kept per run: the accuracy medians settle long before.
pub const ERROR_SAMPLES: usize = 20_000;

/// Truth-scored outcomes of one workload's operations.
#[derive(Debug, Default)]
pub struct Outcomes {
    /// Per-operation latency, µs; a failed operation is `INFINITY`, so it
    /// counts as over any latency limit.
    pub lat_us: Latencies,
    /// Completed readings per wall second, one entry per block.
    pub block_rate: Vec<f64>,
    /// The first [`ERROR_SAMPLES`] completed readings' errors.
    pub force_err_n: Vec<f64>,
    pub loc_err_mm: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Stop collecting errors (repeat passes over one capture would only
    /// duplicate them); attempts and failures are still counted.
    pub errors_done: bool,
}

impl Outcomes {
    /// Scores one attempted reading against its applied `(force, location)`.
    /// A reading that is missing, untouched or non-finite is a failure.
    /// Returns the force error of a completed reading.
    pub fn score(
        &mut self,
        truth: (f64, f64),
        reading: Option<&wiforce::ForceReading>,
    ) -> Option<f64> {
        self.attempted += 1;
        match reading {
            Some(r) if r.touched && r.force_n.is_finite() && r.location_m.is_finite() => {
                let force_err = (r.force_n - truth.0).abs();
                if !self.errors_done && self.force_err_n.len() < ERROR_SAMPLES {
                    self.force_err_n.push(force_err);
                    self.loc_err_mm.push((r.location_m - truth.1).abs() * 1e3);
                }
                Some(force_err)
            }
            _ => {
                self.failed += 1;
                None
            }
        }
    }

    /// Scores one timed operation: its latency, or `INFINITY` if it failed.
    pub fn score_timed(
        &mut self,
        truth: (f64, f64),
        reading: Option<&wiforce::ForceReading>,
        lat_us: f64,
    ) -> bool {
        let ok = self.score(truth, reading).is_some();
        self.lat_us.push(if ok { lat_us } else { f64::INFINITY });
        ok
    }

    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.tail_q, 0.99);
        assert_eq!(v.iter().filter(|&&x| x > t.tail).count(), 10);
        let short: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&short);
        assert!(t.tail_q < 0.99);
        assert_eq!(short.iter().filter(|&&x| x > t.tail).count(), 10);
        assert_eq!(t.p50, 100.0);
    }

    #[test]
    fn chunks_bound_memory_and_take_the_median_chunk() {
        let mut l = Latencies::default();
        assert!(l.summary().is_none());
        // five chunks; the third is a stall that must not set the result
        for c in 0..5 {
            for i in 0..CHUNK_SAMPLES {
                l.push(if c == 2 { 1e6 } else { i as f64 });
            }
        }
        assert!(l.pending.capacity() <= 4 * CHUNK_SAMPLES);
        let (t, chunks) = l.summary().unwrap();
        assert_eq!((chunks, t.n), (5, 5 * CHUNK_SAMPLES));
        assert_eq!(t.tail_q, TAIL_Q);
        assert_eq!(t.p50, 499.0);
        assert_eq!(t.tail, 989.0);
    }
}
