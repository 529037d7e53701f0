//! Wall-clock benchmark of the cdpu workspace.
//!
//! ```text
//! cargo run --release --manifest-path wallbench/Cargo.toml -- \
//!     --workload <hcb-snappy|hcb-zstd|bulk|served> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is generated from `--seed` and timed from outside,
//! through the public functions of the codec, framing, parallelism and
//! serving crates; nothing inside the library is instrumented beyond its
//! existing `cdpu_telemetry` counters. Outputs are checked in the same
//! run. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; a human-readable
//! account (quartiles, sample counts, tail percentiles actually reported,
//! tracing overhead) goes to standard error.
//!
//! Workloads, and why each is there:
//!
//! - `hcb-snappy`: HyperCompressBench Snappy-C and Snappy-D suites, one-shot
//!   calls on one thread. LZ match/copy plus per-call overhead, no entropy
//!   stage: the workload that bypasses any entropy or bit-writer change.
//! - `hcb-zstd`: the ZStd-C and ZStd-D suites at each file's sampled level
//!   and window. Entropy encode/decode does most of the work.
//! - `bulk`: calls of 3 to 5.75 MiB, framed in 256 KiB chunks across the
//!   `cdpu_par` lanes. The only workload where intra-call parallelism,
//!   framing and the streaming core do the work.
//! - `served`: `cdpu_serve::engine` with four fleet tenants, two shards,
//!   measured service times and a pinned open-loop Poisson rate. The only
//!   workload with queueing, scheduling, batching and dispatch, and the
//!   only one whose working set (a 2 MiB tape) fits in cache. It is not
//!   one of the gated workloads in `BENCHMARK.json`: on a shared 2-vCPU VM
//!   its tail latencies and served throughput spread by a quarter to a
//!   half over ten seeds, scaled by the host-speed reference or not. It
//!   still runs on its own, and every traced run measures it for the
//!   serving engine's per-layer metrics.
//!
//! End-to-end metrics are reported on every workload. Where a metric's
//! natural definition is for another shape of load, it is read as follows:
//! on `served`, call throughput and call percentiles are over the measured
//! service time of each call (a batched dispatch's time is shared among its
//! calls by bytes), and `ratio` is over executed bytes. On the closed-loop
//! workloads, `served_mb_s` is the bytes of both directions per second of
//! the timed loop's wall-clock time, and `latency_*` is over each call of
//! both suites on `hcb-*` and over each operation (a call's compression
//! plus the decompression of its frame) on `bulk`. On `hcb-*`, a file's
//! call time is its median over the run's passes.
//!
//! On `hcb-*` and `bulk`, every end-to-end time and rate of the timed loop
//! is scaled to a reference host speed (see [`hostspeed`]): the benchmark
//! times a fixed kernel of its own between the program's calls, on as many
//! lanes as the calls use, and scales each pass by how fast that kernel
//! ran in it, so that the drift of a shared host's speed does not read as
//! a change in the program. The unscaled rates go to standard error.
//! `served` is not scaled: its calls run inside the engine, where no probe
//! can sit between them, and probes around each engine run moved against
//! the measured service times as often as with them. `setup_s` and the
//! per-layer metrics are not scaled either.
//!
//! With `--trace 1` the run measures the workload once untraced and once
//! traced (half the time each) and reports the tracing overhead, then
//! measures every other workload traced as well, so that each per-layer
//! metric, named after the workload it is measured on, is present. Spans
//! are written to `wallbench/trace-out/` as JSON lines.

mod bulk;
mod hcb;
mod hostspeed;
mod served;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use stats::{Summary, Tally};
use trace::Trace;

/// Times the set-up is repeated in an untraced run; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
/// Most worker threads the load may use.
const MAX_LANES: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    HcbSnappy,
    HcbZstd,
    Bulk,
    Served,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::HcbSnappy,
        Workload::HcbZstd,
        Workload::Bulk,
        Workload::Served,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::HcbSnappy => "hcb-snappy",
            Workload::HcbZstd => "hcb-zstd",
            Workload::Bulk => "bulk",
            Workload::Served => "served",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// A named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one timed measurement of a workload produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// End-to-end metrics, except the set-up time and memory the driver adds.
    pub metrics: Vec<Metric>,
    /// Per-layer metrics (traced measurements only).
    pub layers: Vec<Metric>,
    pub tally: Tally,
    /// Failed output checks.
    pub errors: Vec<String>,
    /// Lines for the human-readable account.
    pub notes: Vec<String>,
    /// Bytes per second of measured call time, the figure the tracing
    /// overhead is read from.
    pub work_rate: f64,
}

impl Measured {
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Reports the median of per-interval rates (MB/s) and notes the
    /// quartiles.
    pub fn rate(&mut self, name: &str, per_interval: &[f64]) {
        let s = Summary::of(per_interval);
        let median = s.map_or(f64::NAN, |s| s.median);
        if let Some(s) = s {
            self.note(format!(
                "{name}: median {:.2}, quartiles {:.2}..{:.2} over {} intervals",
                s.median, s.q1, s.q3, s.n
            ));
        }
        self.metrics.push(metric(name, median, "MB/s"));
    }

    /// Notes the per-interval time scales of the host-speed reference and
    /// the unscaled medians of the compress and decompress rates.
    pub fn host_note(&mut self, scales: &[f64], raw_mb_s: &[Vec<f64>; 2]) {
        let med = |v: &[f64]| Summary::of(v).map_or(f64::NAN, |s| s.median);
        if let Some(s) = Summary::of(scales) {
            self.note(format!(
                "host-speed time scale: median {:.3}, quartiles {:.3}..{:.3} over {} intervals; unscaled compress {:.2} MB/s, decompress {:.2} MB/s",
                s.median,
                s.q1,
                s.q3,
                s.n,
                med(&raw_mb_s[0]),
                med(&raw_mb_s[1])
            ));
        }
    }

    /// Reports `<prefix>_p50_us` and `<prefix>_p99_us` from ascending
    /// samples in µs. The tail is the highest percentile up to p99 with at
    /// least ten samples beyond it.
    pub fn tails(&mut self, prefix: &str, sorted_us: &[f64]) {
        for (label, q) in [("p50", 0.5), ("p99", 0.99)] {
            let t = stats::tail(sorted_us, q);
            let value = t.map_or(f64::NAN, |t| t.value);
            match t {
                Some(t) => self.note(format!(
                    "{prefix}_{label}_us: {value:.1} us = p{:.2} of {} samples, {} beyond",
                    t.quantile * 100.0,
                    t.n,
                    t.beyond
                )),
                None => self.note(format!(
                    "{prefix}_{label}_us: too few samples ({})",
                    sorted_us.len()
                )),
            }
            // A shed call is a missing sample: a tail landing on one has
            // no latency to report, only the largest representable one.
            self.metrics.push(metric(
                format!("{prefix}_{label}_us"),
                if value.is_infinite() { f64::MAX } else { value },
                "us",
            ));
        }
    }
}

/// A workload's prepared inputs.
enum Setup {
    Hcb(hcb::Setup),
    Bulk(bulk::Setup),
    Served(served::Setup),
}

fn setup(w: Workload, seed: u64, lanes: usize) -> Result<Setup, String> {
    Ok(match w {
        Workload::HcbSnappy => Setup::Hcb(hcb::setup(cdpu_fleet::Algorithm::Snappy, seed)),
        Workload::HcbZstd => Setup::Hcb(hcb::setup(cdpu_fleet::Algorithm::Zstd, seed)),
        Workload::Bulk => Setup::Bulk(bulk::setup(seed, lanes)),
        Workload::Served => Setup::Served(served::setup(seed)?),
    })
}

fn measure(s: &Setup, seconds: f64, trace: Option<&mut Trace>) -> Measured {
    match s {
        Setup::Hcb(s) => hcb::measure(s, seconds, trace),
        Setup::Bulk(s) => bulk::measure(s, seconds, trace),
        Setup::Served(s) => served::measure(s, seconds, trace),
    }
}

/// Peak resident set of this process, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: wallbench --workload <hcb-snappy|hcb-zstd|bulk|served> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn result_json(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn print_account(title: &str, m: &Measured) {
    eprintln!("== {title}");
    for n in &m.notes {
        eprintln!("   {n}");
    }
    for e in &m.errors {
        eprintln!("   CHECK FAILED: {e}");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let lanes = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_LANES);
    cdpu_par::set_threads(lanes);
    eprintln!(
        "wallbench: workload {} seed {} seconds {} trace {} lanes {lanes}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let out = if args.trace {
        traced_run(&args, lanes)
    } else {
        untraced_run(&args, lanes)
    };
    match out {
        Ok((correct, tally, metrics)) => {
            for m in &metrics {
                eprintln!("   {:<52} {:>14.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", result_json(correct, tally, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wallbench: {e}");
            ExitCode::FAILURE
        }
    }
}

type RunResult = Result<(bool, Tally, Vec<Metric>), String>;

/// Sets up [`SETUP_REPEATS`] times (keeping the last), measures, and
/// reports the end-to-end metrics.
fn untraced_run(args: &Args, lanes: usize) -> RunResult {
    let mut times = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(setup(args.workload, args.seed, lanes)?);
        times.push(t.elapsed().as_secs_f64());
    }
    let s = prepared.expect("at least one set-up");
    let m = measure(&s, args.seconds, None);
    print_account(args.workload.name(), &m);
    let setup_s = Summary::of(&times).map_or(f64::NAN, |s| s.median);
    eprintln!("   setup_s: {times:.3?}");
    let mut metrics = m.metrics;
    metrics.push(metric("peak_rss_mib", peak_rss_mib(), "MiB"));
    metrics.push(metric("setup_s", setup_s, "s"));
    let correct = m.errors.is_empty() && metrics.iter().all(|x| x.value.is_finite());
    Ok((correct, m.tally, metrics))
}

/// Measures the workload untraced and traced for the overhead, then every
/// other workload traced, and reports every per-layer metric.
fn traced_run(args: &Args, lanes: usize) -> RunResult {
    let half = args.seconds / 2.0;
    let own = setup(args.workload, args.seed, lanes)?;
    let plain = measure(&own, half, None);
    let mut trace = Trace::new();
    let traced = measure(&own, half, Some(&mut trace));
    drop(own);
    print_account(&format!("{} (untraced)", args.workload.name()), &plain);
    print_account(&format!("{} (traced)", args.workload.name()), &traced);
    eprintln!(
        "== tracing overhead on {} (traced minus untraced)",
        args.workload.name()
    );
    for (u, t) in plain.metrics.iter().zip(&traced.metrics) {
        eprintln!(
            "   {:<28} {:>12.3} -> {:>12.3} {:<5} ({:+.1}%)",
            u.name,
            u.value,
            t.value,
            u.unit,
            (t.value - u.value) / u.value * 100.0
        );
    }
    let overhead = 1.0 - traced.work_rate / plain.work_rate;
    let mut tally = plain.tally;
    tally.merge(traced.tally);
    let mut correct = plain.errors.is_empty() && traced.errors.is_empty();
    let mut layers = traced.layers;
    write_trace(args, args.workload, &trace);
    for other in Workload::ALL.into_iter().filter(|&w| w != args.workload) {
        let s = setup(other, args.seed, lanes)?;
        let mut trace = Trace::new();
        let m = measure(&s, half, Some(&mut trace));
        print_account(
            &format!("{} (traced, for its per-layer metrics)", other.name()),
            &m,
        );
        write_trace(args, other, &trace);
        tally.merge(m.tally);
        correct &= m.errors.is_empty();
        layers.extend(m.layers);
    }
    layers.sort_by(|a, b| a.name.cmp(&b.name));
    layers.push(metric("trace.overhead_frac", overhead, "frac"));
    correct &= layers.iter().all(|x| x.value.is_finite());
    Ok((correct, tally, layers))
}

/// Writes a workload's spans and prints its per-span summary.
fn write_trace(args: &Args, w: Workload, trace: &Trace) {
    eprintln!(
        "== spans measured on {} (count, total ms, self ms, MB/s)",
        w.name()
    );
    for (name, s) in trace.summary() {
        eprintln!(
            "   {name:<28} {:>8} {:>10.1} {:>10.1} {:>9.1}",
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            s.mb_s()
        );
    }
    let path = std::path::PathBuf::from(format!(
        "wallbench/trace-out/{}-{}-seed{}.jsonl",
        args.workload.name(),
        w.name(),
        args.seed
    ));
    match trace.write_jsonl(&path) {
        Ok(()) => eprintln!(
            "   {} spans written to {}",
            trace.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("   spans not written to {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "hcb-zstd",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::HcbZstd, 7, 10.0, true)
        );
        assert!(args(&[
            "--workload",
            "hcb",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "bulk",
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "bulk",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--workload", "bulk", "--seed", "7", "--seconds", "1"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_json(
            true,
            Tally {
                attempted: 3,
                failed: 0,
            },
            &[metric("setup_s", 0.5, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(
            result_json(true, Tally::default(), &[metric("x", f64::NAN, "s")]).contains("null")
        );
    }
}
