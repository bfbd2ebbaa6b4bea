//! Measurement plumbing: quantiles, peak RSS, the in-memory span
//! recorder, and the one-line JSON result.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Linear-interpolated quantile of `values` (`q` in 0..=1); 0 for an
/// empty slice. Sorts a copy.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
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

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median wall time of `reps` calls of `f`, in microseconds.
pub fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            us(t.elapsed())
        })
        .collect();
    median(&samples)
}

/// CPU placement of the calling thread. A shared host's vCPUs run at
/// different speeds (on the 2-vCPU host this benchmark was tuned on, one
/// ran a single-threaded parse loop 35% faster than the other), so a
/// single-threaded loop measures whichever vCPU the scheduler picked.
/// Rotating the loop over every allowed CPU and averaging per-CPU figures
/// takes that lottery out of the result.
#[cfg(target_os = "linux")]
pub mod affinity {
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The CPUs this thread may run on (empty when unknown).
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: the kernel writes at most `size` bytes into `mask`.
        let rc = unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// Restrict the calling thread to `cpus`; false if the kernel refused.
    pub fn set(cpus: &[usize]) -> bool {
        let mut mask = [0u64; WORDS];
        for &c in cpus {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `mask` is a valid `size`-byte CPU set.
        unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
pub mod affinity {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn set(_cpus: &[usize]) -> bool {
        false
    }
}

/// One recorded span: a named interval with its causing span.
struct SpanRec {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    dur_ns: u64,
}

/// Spans kept in memory during the traced run and written out once, at
/// exit. Capped so a long run cannot grow without bound; spans past the
/// cap are counted, not stored.
pub struct Spans {
    origin: Instant,
    recs: Vec<SpanRec>,
    dropped: u64,
}

const SPAN_CAP: usize = 200_000;

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            recs: Vec::new(),
            dropped: 0,
        }
    }

    /// Record `[start, end)` under `name`; returns the span's id (for
    /// children), or `None` when the cap dropped it.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if self.recs.len() >= SPAN_CAP {
            self.dropped += 1;
            return None;
        }
        self.recs.push(SpanRec {
            name,
            parent,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
        });
        Some(self.recs.len() - 1)
    }

    /// Write every span as `[id, parent, name, start_ns, dur_ns]` rows.
    pub fn write(&self, path: &std::path::Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"dropped\": {}, \"spans\": [\n",
            self.dropped
        );
        for (id, r) in self.recs.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.recs.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "[{id}, {parent}, \"{}\", {}, {}]{sep}",
                r.name, r.start_ns, r.dur_ns
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            failed: 0,
            metrics: Vec::new(),
        };
        o.push("latency_ms", 1.25, "ms");
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
