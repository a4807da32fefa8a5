//! Timing, process counters, statistics and the result line.

use std::time::Instant;

use crate::alloc::{self, Counts};

/// Command-line arguments shared by every workload.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut args = args;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {s} outside (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// One named metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A run's result: the last line of standard output.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Failed correctness checks, one message each.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Prints the failed checks to stderr and the JSON result line to
    /// stdout. A non-finite metric value is itself a failed check.
    pub fn print(mut self) {
        for m in &self.metrics {
            if !m.value.is_finite() {
                self.errors
                    .push(format!("metric {} is {}", m.name, m.value));
            }
        }
        for e in &self.errors {
            eprintln!("CHECK FAILED: {e}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    r#""{}": {{"value": {:?}, "unit": "{}"}}"#,
                    m.name, v, m.unit
                )
            })
            .collect();
        println!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// `struct timeval` and `struct rusage` of 64-bit Linux.
#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Process user+sys CPU seconds over all threads, live and ended, at
/// microsecond resolution.
pub fn cpu_seconds() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `u` is a live, writable `struct rusage` of the C layout
    // declared above, which `getrusage` fills and does not retain.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&u.utime) + secs(&u.stime)
}

/// Peak resident set size (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM in /proc/self/status");
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value");
    kib / 1024.0
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Runs `f` and returns its result with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Runs `f` and returns its result, elapsed seconds and the calling
/// thread's allocations.
pub fn timed_allocs<T>(f: impl FnOnce() -> T) -> (T, f64, Counts) {
    let a = alloc::thread();
    let (out, s) = timed(f);
    (out, s, alloc::thread().since(a))
}

/// Repeats the workload's set-up `reps` times and returns the median
/// set-up seconds with the last set-up's product. The first repetition
/// is timed from process start, so it also carries process start-up
/// and every lazily built process-wide cache.
pub fn setup<T>(process_start: Instant, reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for r in 0..reps.max(1) {
        let t = if r == 0 {
            process_start
        } else {
            Instant::now()
        };
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one set-up"))
}

/// One timed round: operations, wall seconds, CPU seconds.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub ops: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Totals of the timed phase.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    pub rounds: Vec<Round>,
    pub ops: u64,
    pub wall_s: f64,
    pub allocs: Counts,
}

/// Runs whole rounds of `round(r)` (which returns the operations it
/// completed) until `seconds` have passed; always at least one round.
pub fn run_rounds(seconds: f64, mut round: impl FnMut(usize) -> u64) -> Timed {
    let a0 = alloc::total();
    let t0 = Instant::now();
    let mut rounds = Vec::new();
    let mut r = 0;
    loop {
        let cpu = cpu_seconds();
        let t = Instant::now();
        let ops = round(r);
        rounds.push(Round {
            ops,
            wall_s: t.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds() - cpu,
        });
        r += 1;
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Timed {
        ops: rounds.iter().map(|r| r.ops).sum(),
        rounds,
        wall_s: t0.elapsed().as_secs_f64(),
        allocs: alloc::total().since(a0),
    }
}

impl Timed {
    /// Seconds per operation over the whole timed phase.
    pub fn s_per_op(&self) -> f64 {
        self.wall_s / self.ops.max(1) as f64
    }

    /// Appends the end-to-end metrics. Other tenants of the host only
    /// ever slow a round down, in bursts of seconds, so the time-based
    /// figures come from the faster rounds: throughput is the upper
    /// quartile of the per-round rates, CPU per operation the lower
    /// quartile of the per-round costs. Allocation figures are totals.
    pub fn end_to_end(&self, setup_s: f64, out: &mut Outcome) {
        let rates: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| r.ops as f64 / r.wall_s)
            .collect();
        let cpu: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| r.cpu_s * 1e3 / r.ops.max(1) as f64)
            .collect();
        let ops = self.ops.max(1) as f64;
        println!(
            "timed: {} rounds, {} operations, {:.2} s, round rates min {:.2} median {:.2} max {:.2} ops/s",
            self.rounds.len(),
            self.ops,
            self.wall_s,
            quantile(&rates, 0.0),
            median(&rates),
            quantile(&rates, 1.0),
        );
        out.metric("setup_s", setup_s, "s");
        out.metric("ops_per_s", quantile(&rates, 0.75), "ops/s");
        out.metric("cpu_ms_per_op", quantile(&cpu, 0.25), "ms");
        out.metric("peak_rss_mb", peak_rss_mib(), "MiB");
        out.metric(
            "alloc_mb_per_op",
            self.allocs.bytes as f64 / (1024.0 * 1024.0) / ops,
            "MiB",
        );
        out.metric("allocs_per_op", self.allocs.allocs as f64 / ops, "count");
    }
}

/// Prints one `funnel` line of outcome counts beside the metrics.
pub fn print_funnel(workload: &str, counts: &[(String, u64)]) {
    let total: u64 = counts.iter().map(|c| c.1).sum();
    let parts: Vec<String> = counts
        .iter()
        .filter(|c| c.1 > 0)
        .map(|(name, n)| {
            format!(
                "{name}={n} ({:.1}%)",
                100.0 * *n as f64 / total.max(1) as f64
            )
        })
        .collect();
    println!("funnel {workload}: total={total} {}", parts.join(" "));
}
