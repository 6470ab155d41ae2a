//! End-to-end and per-layer benchmark of the Holmes planner and simulator.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/perfbench/Cargo.toml -- \
//!     --workload paper_grid --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One caller issues the workload's operations one after another (a closed
//! loop). `setup_s` is timed on cold set-ups, each in a fresh process of this
//! benchmark started with `--setup-only 1`. Every run attempts whole passes
//! over the workload's operations, in a seeded order, until `--seconds` have
//! passed and the tail percentile has at least ten samples beyond it.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
//! and traced passes, runs the layer sections once, and prints the per-layer
//! metrics. The last line of standard output is one JSON object.

mod churn_recovery;
mod hetero_autotune;
mod paper_grid;
mod sections;
mod stats;
mod trace;

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::Instant;

use stats::{median, mix, percentile, SplitMix};
use trace::Tracer;

/// One workload: a fixed list of operations plus the checks on their
/// outputs.
pub trait Workload {
    /// What one operation returns.
    type Out;
    /// The part of an output the checks and metrics keep.
    type Digest;

    /// Operations in one pass.
    fn ops(&self) -> usize;
    /// A name for operation `i` in failure reports.
    fn label(&self, i: usize) -> String;
    /// Percentile reported as `op_tail_ms`.
    fn tail_pct(&self) -> f64;
    /// Run operation `i` — the timed part.
    fn run(&self, i: usize, tr: &mut Tracer) -> Self::Out;
    /// Check the output of operation `i` against properties the method must
    /// have and against `reference`, the same operation's warm-up digest.
    /// Returns whether every check held.
    fn check(
        &mut self,
        i: usize,
        out: Self::Out,
        reference: Option<&Self::Digest>,
        tr: &mut Tracer,
    ) -> (bool, Self::Digest);
    /// Checks across one whole pass: indices of operations that fail them.
    fn check_pass(&self, pass: &[Self::Digest]) -> Vec<usize>;
    /// Training samples completed and simulated seconds of one operation.
    fn sim(&self, d: &Self::Digest) -> (f64, f64);
    /// Per-layer sections of the traced run. Returns false when a check
    /// inside a section fails.
    fn sections(&mut self, tr: &mut Tracer, metrics: &mut Metrics) -> bool;
}

/// Named metrics with units, in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                // A missing measurement must not read as a best score.
                let v = if v.is_finite() {
                    format!("{v:?}")
                } else {
                    "null".to_string()
                };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    fn all_finite(&self) -> bool {
        self.0.iter().all(|(_, v, _)| v.is_finite())
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            "--setup-only" => args.setup_only = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Cold set-ups timed per run; `setup_s` is their median, so that one slow
/// set-up does not decide it.
const SETUP_REPS: usize = 3;

/// Host time of one cold set-up: from spawning a fresh process of this
/// benchmark with `--setup-only 1` to its first timed operation, which it
/// announces with a `ready` line. NaN if the child fails.
fn cold_setup_s(args: &Args) -> f64 {
    let run = || -> std::io::Result<f64> {
        let start = Instant::now();
        let mut child = Command::new(std::env::current_exe()?)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string(), "--setup-only", "1"])
            .stdout(Stdio::piped())
            .spawn()?;
        let mut line = String::new();
        if let Some(out) = child.stdout.take() {
            BufReader::new(out).read_line(&mut line)?;
        }
        let elapsed = start.elapsed().as_secs_f64();
        let ok = child.wait()?.success() && line.trim() == "ready";
        Ok(if ok { elapsed } else { f64::NAN })
    };
    run().unwrap_or_else(|e| {
        eprintln!("cold set-up failed: {e}");
        f64::NAN
    })
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn drive<W: Workload>(build: impl Fn(&mut Tracer) -> W, args: &Args) -> Outcome {
    let mut tr = Tracer::new(args.trace);

    // Set-up: build the inputs, then one untimed warm-up pass.
    if args.setup_only {
        let w = build(&mut tr);
        for i in 0..w.ops() {
            w.run(i, &mut tr);
        }
        println!("ready");
        let _ = std::io::stdout().flush();
        std::process::exit(0);
    }
    let setups: Vec<f64> = if args.trace {
        Vec::new()
    } else {
        (0..SETUP_REPS).map(|_| cold_setup_s(args)).collect()
    };
    // This process's own set-up is untimed: its warm-up digests are the
    // reference for the repeatability checks.
    let mut w = tr.span("bench.setup", |tr| build(tr));
    let reference: Vec<W::Digest> = (0..w.ops())
        .map(|i| {
            let out = w.run(i, &mut tr);
            w.check(i, out, None, &mut tr).1
        })
        .collect();

    let n = w.ops();
    let tail = w.tail_pct();
    let min_ops = (10.0 / (1.0 - tail / 100.0)).ceil() as usize;
    let mut lat = Vec::new();
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut sim: Option<(f64, f64)> = None;
    let mut correct = true;
    let start = Instant::now();
    let mut pass = 0u64;
    loop {
        // In a traced run even passes are untraced and odd passes traced;
        // work counts come from the first traced pass only.
        let traced = args.trace && !pass.is_multiple_of(2);
        tr.set_on(traced);
        tr.set_counting(pass == 1);
        let order = SplitMix::new(mix(args.seed, pass)).permutation(n);
        let mut digests: Vec<Option<W::Digest>> = (0..n).map(|_| None).collect();
        let mut ok = vec![true; n];
        for &i in &order {
            let t = Instant::now();
            let out = w.run(i, &mut tr);
            let dt = t.elapsed().as_secs_f64();
            if traced {
                traced_s += dt;
            } else {
                untraced_s += dt;
                lat.push(dt);
            }
            let (good, d) = w.check(i, out, Some(&reference[i]), &mut tr);
            ok[i] = good;
            digests[i] = Some(d);
        }
        let digests: Vec<W::Digest> = digests
            .into_iter()
            .map(|d| d.expect("every operation ran"))
            .collect();
        for i in w.check_pass(&digests) {
            ok[i] = false;
        }
        attempted += n as u64;
        failed += ok.iter().filter(|&&g| !g).count() as u64;
        if pass == 0 {
            for i in (0..n).filter(|&i| !ok[i]) {
                eprintln!("failed: {}", w.label(i));
            }
        }
        let pass_sim = digests.iter().fold((0.0, 0.0), |(s, t), d| {
            let (ds, dt) = w.sim(d);
            (s + ds, t + dt)
        });
        // Simulated figures are deterministic: every pass must agree.
        match sim {
            None => sim = Some(pass_sim),
            Some(first) => correct &= first == pass_sim,
        }
        pass += 1;
        let done = start.elapsed().as_secs_f64() >= args.seconds && lat.len() >= min_ops;
        if done && (!args.trace || pass.is_multiple_of(2)) {
            break;
        }
    }
    tr.set_on(args.trace);

    let mut metrics = Metrics::default();
    if args.trace {
        tr.set_counting(true);
        correct &= w.sections(&mut tr, &mut metrics);
        sections::layer_metrics(&tr, &mut metrics);
        metrics.put("bench.trace_overhead", traced_s / untraced_s, "ratio");
        let path = std::path::Path::new("crates/bench/perfbench/out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tr.write_jsonl(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
    } else {
        let (samples, seconds) = sim.expect("at least one pass");
        let op_s: f64 = lat.iter().sum();
        metrics.put("setup_s", median(&setups), "s");
        metrics.put("ops_per_s", lat.len() as f64 / op_s, "1/s");
        metrics.put("op_p50_ms", median(&lat) * 1e3, "ms");
        metrics.put("op_tail_ms", percentile(&lat, tail) * 1e3, "ms");
        metrics.put("sim_samples_per_s", samples / seconds, "samples/s");
        metrics.put("peak_rss_mb", peak_rss_mb(), "MiB");
        eprintln!(
            "{} operations timed in {pass} passes of {n}; op_tail_ms is p{tail}",
            lat.len()
        );
    }
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
    }
}

/// Peak resident set of this process in MiB, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "paper_grid" => drive(paper_grid::PaperGrid::new, &args),
        "hetero_autotune" => drive(hetero_autotune::HeteroAutotune::new, &args),
        "churn_recovery" => drive(
            |tr| churn_recovery::ChurnRecovery::new(args.seed, tr),
            &args,
        ),
        other => {
            eprintln!("unknown workload {other:?}: paper_grid, hetero_autotune, churn_recovery");
            std::process::exit(2);
        }
    };
    for (name, value, unit) in &outcome.metrics.0 {
        eprintln!("{name:32} {value:>16.6} {unit}");
    }
    let correct = outcome.correct && outcome.metrics.all_finite();
    eprintln!(
        "attempted {} failed {} correct {correct}",
        outcome.attempted, outcome.failed
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        outcome.metrics.json()
    );
}
