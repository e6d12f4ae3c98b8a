//! vodplace benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload certify|service|replay --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload is generated from `--seed` inside this process and
//! driven through the crates' public entry points. Every output is
//! checked; a failed check counts as a failed operation and makes the
//! process exit non-zero. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics (from
//! spans and counts taken around each library call) with `--trace 1`.
//! See `perfbench/README.md` for the metric definitions.

mod certify;
mod replay;
mod service;
mod spans;
mod stats;
mod world;

use stats::{quartiles, Metric, Report};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Run-wide settings shared by the workloads.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
    /// Explicit solver worker count, never "auto". One worker: on a
    /// small shared host a two-thread solve waits for whichever thread
    /// the host descheduled, and its wall spread is several times the
    /// single-thread one (certify: 7.0–8.3 s at 2 threads against
    /// 10.16–10.33 s at 1, same run length).
    pub threads: usize,
    /// Scratch root for service state dirs, inside the working
    /// directory (one filesystem for every schedule).
    pub scratch: PathBuf,
}

impl Ctx {
    /// True while the measured loop should keep going: until the time
    /// budget is spent, and at least `min_ops` operations ran (the
    /// identity checks compare repeats).
    pub fn more(&self, started: Instant, done: usize, min_ops: usize) -> bool {
        done < min_ops || started.elapsed() < self.budget
    }
}

/// Minimum set-up time sampled per input: cheap set-ups are rebuilt
/// until this much wall time has passed.
const SETUP_SAMPLE_S: f64 = 0.25;

/// Build an input at least once and until `SETUP_SAMPLE_S` seconds have
/// passed; returns the CPU seconds per build and the last build. The
/// CPU clock ticks in scheduler quanta (a few ms), so it is read once
/// around all builds rather than per build.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (f64, T) {
    let watch = Watch::start();
    let mut builds = 0;
    loop {
        let out = build();
        builds += 1;
        if watch.wall_s() >= SETUP_SAMPLE_S {
            return (watch.cpu_s() / f64::from(builds), out);
        }
    }
}

/// CPU time the calling thread has run, in seconds: the scheduler's
/// account in `/proc/thread-self/schedstat`, updated at scheduler ticks
/// and switches. Time the host steals from the virtual CPU is not in
/// it.
fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .next()
                .and_then(|ns| ns.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |ns| ns / 1e9)
}

/// Wall-clock and thread-CPU stopwatch. End-to-end times are CPU
/// seconds of the benchmark thread, which runs all the work (solver
/// threads = 1, serial replay): on a shared host the wall clock also
/// counts the time the host ran someone else, which swung the wall per
/// cycle of two `service` runs by 60 % at otherwise similar CPU time.
#[derive(Debug, Clone, Copy)]
pub struct Watch {
    wall: Instant,
    cpu: f64,
}

impl Watch {
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu: thread_cpu_s(),
        }
    }

    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    pub fn cpu_s(&self) -> f64 {
        thread_cpu_s() - self.cpu
    }
}

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, printed by every traced run; a layer the
/// workload does not exercise reports 0.
const PER_LAYER: [(&str, &str); 48] = [
    ("placement.cost", "GB-hop"),
    ("placement.peak_link_mbps", "Mb/s"),
    ("epf.solve_s", "s"),
    ("epf.passes", "count"),
    ("epf.block_steps", "count"),
    ("epf.ms_per_pass", "ms"),
    ("epf.cert_s", "s"),
    ("epf.nocert_passes", "count"),
    ("epf.approx_mb", "MB"),
    ("rounding.s", "s"),
    ("rounding.rounded", "count"),
    ("audit.s", "s"),
    ("core.instance_s", "s"),
    ("ops.start_s", "s"),
    ("ops.estimate_s", "s"),
    ("ops.solve_s", "s"),
    ("ops.round_s", "s"),
    ("ops.validate_s", "s"),
    ("ops.simulate_s", "s"),
    ("ops.delta_s", "s"),
    ("ops.service_s", "s"),
    ("ops.stage_sum_frac", "fraction"),
    ("ops.steps", "count"),
    ("ops.retries", "count"),
    ("ops.degraded", "count"),
    ("ops.moved", "count"),
    ("ops.deferred_max", "count"),
    ("ops.repairs", "count"),
    ("ops.denial_rate", "fraction"),
    ("json.writes", "count"),
    ("json.reads", "count"),
    ("json.state_bytes", "bytes"),
    ("json.write_ms", "ms"),
    ("sim.nocache.req_per_s", "req/s"),
    ("sim.lru5.req_per_s", "req/s"),
    ("sim.lfu5.req_per_s", "req/s"),
    ("sim.lru25.req_per_s", "req/s"),
    ("sim.storm.req_per_s", "req/s"),
    ("sim.req_per_s", "req/s"),
    ("sim.cache_hit_ratio", "fraction"),
    ("sim.denied", "count"),
    ("sim.denial_rate", "fraction"),
    ("sim.gb_hops", "GB-hops"),
    ("trace.generate_s", "s"),
    ("trace.requests", "count"),
    ("net.paths_s", "s"),
    ("tracing.overhead_frac", "fraction"),
    ("host.run_frac", "fraction"),
];

/// Order `metrics` as `canon`, filling absent ones with 0. A name or
/// unit outside `canon` is a bug in the workload code.
fn canonical(mut metrics: Vec<Metric>, canon: &[(&'static str, &'static str)]) -> Vec<Metric> {
    let out = canon
        .iter()
        .map(
            |&(name, unit)| match metrics.iter().position(|m| m.name == name) {
                Some(i) => {
                    let m = metrics.swap_remove(i);
                    assert_eq!(m.unit, unit, "unit of {name}");
                    m
                }
                None => Metric {
                    name,
                    unit,
                    value: 0.0,
                    samples: vec![0.0],
                },
            },
        )
        .collect();
    assert!(metrics.is_empty(), "unlisted metrics: {metrics:?}");
    out
}

/// Write the traced run's spans (JSON lines) under `.perfbench_spans/`.
pub fn finish_trace(ctx: &Ctx, tr: &spans::Tracer, rep: &mut Report) {
    let dir = PathBuf::from(".perfbench_spans");
    let name = ctx
        .scratch
        .file_name()
        .map_or_else(|| "run".into(), |n| n.to_string_lossy().into_owned());
    let path = dir.join(format!("{name}.jsonl"));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| tr.write(&path)) {
        rep.check(false, || {
            format!("writing spans to {}: {e}", path.display())
        });
    }
    for name in tr.names() {
        println!(
            "# span {name:<28} n={:<6} total={:.6} s self={:.6} s",
            tr.count(name),
            tr.total_s(name),
            tr.self_s(name)
        );
    }
    println!("# spans written to {}", path.display());
}

fn arg<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload certify|service|replay --seed N --seconds S --trace 0|1"
    );
    ExitCode::from(2)
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding `path` (from mountinfo).
fn fs_type(path: &std::path::Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let Some(workload) = arg(&args, "--workload") else {
        return usage("missing --workload");
    };
    let Some(seed) = arg(&args, "--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("missing or invalid --seed");
    };
    let Some(seconds) = arg(&args, "--seconds").and_then(|s| s.parse::<f64>().ok()) else {
        return usage("missing or invalid --seconds");
    };
    let trace = match arg(&args, "--trace") {
        Some("1") => true,
        Some("0") | None => false,
        Some(_) => return usage("--trace takes 0 or 1"),
    };
    if !seconds.is_finite() || seconds <= 0.0 {
        return usage("--seconds must be positive");
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let scratch =
        PathBuf::from(".perfbench_run").join(format!("{workload}-{seed}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(1);
    }
    let ctx = Ctx {
        seed,
        budget: Duration::from_secs_f64(seconds),
        trace,
        threads: 1,
        scratch,
    };

    println!(
        "# perfbench workload={workload} seed={seed} seconds={seconds} trace={}",
        u8::from(trace)
    );
    println!(
        "# nproc={nproc} solver_threads={} rustc=\"{}\"",
        ctx.threads,
        rustc_version()
    );
    println!(
        "# state_dir={} fs={}",
        ctx.scratch.display(),
        fs_type(&ctx.scratch)
    );

    let mut report = match workload {
        "certify" => certify::run(&ctx),
        "service" => service::run(&ctx),
        "replay" => replay::run(&ctx),
        other => {
            let _ = std::fs::remove_dir_all(&ctx.scratch);
            return usage(&format!("unknown workload {other:?}"));
        }
    };
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    let _ = std::fs::remove_dir(".perfbench_run");

    let metrics = if trace {
        canonical(std::mem::take(&mut report.per_layer), &PER_LAYER)
    } else {
        canonical(std::mem::take(&mut report.end_to_end), &END_TO_END)
    };
    for m in &metrics {
        let (q1, _, q3) = quartiles(&m.samples);
        if m.samples.len() > 1 {
            println!(
                "{:<24} {:>14.6} {:<12} (q1 {:.6}, q3 {:.6}, n={})",
                m.name,
                m.value,
                m.unit,
                q1,
                q3,
                m.samples.len()
            );
        } else {
            println!("{:<24} {:>14.6} {}", m.name, m.value, m.unit);
        }
    }
    println!(
        "# attempted={} failed={} failed_frac={}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for e in &report.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = report.failed == 0 && report.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
