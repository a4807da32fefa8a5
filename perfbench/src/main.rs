//! Host-time benchmark of the WearLock unlock pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload session-office --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints the workload's outcome funnel, then, as the last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See README.md for the workloads and metrics.

mod alloc;
mod ber_sweep;
mod checks;
mod fleet_mix;
mod layers;
mod measure;
mod session_office;
mod sink;

use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match measure::Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "session-office" => session_office::run(&args, start),
        "fleet-mix" => fleet_mix::run(&args, start),
        "ber-sweep" => ber_sweep::run(&args, start),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    outcome.print();
    ExitCode::SUCCESS
}
