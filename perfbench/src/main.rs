//! Benchmark of the ftvod service and simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_scale --seed 1 --seconds 30 --trace 0
//! ```
//!
//! A run repeats one pass of the workload (every simulation seed of the
//! benchmark seed) until `--seconds` is used, at least once, and reports
//! host times as medians over passes. Each seed is set up once more before
//! every slice of its run, so the set-up samples spread over the whole run
//! like the run samples do. Simulated metrics must be identical on every
//! pass and, when only one pass fits, on the block's first seed run once
//! more. With `--trace 1` each pass also runs the traced build (handlers
//! timed per layer) and, on recorded workloads, an unrecorded build; both
//! must reproduce the untraced pass exactly. The last line of standard output is one JSON object; see
//! `perfbench/README.md`.

mod outcome;
mod provenance;
mod traced;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use ftvod_core::oracle::{OracleConfig, OracleReport};
use ftvod_core::FleetReport;
use simnet::SimTime;

use outcome::{median, percentile, tail, Outcome, NET_CLASSES};
use traced::{TracedSim, KEYS, REQUIRED_KEYS};
use workloads::Workload;

/// Slices of simulated time each seed's timed run is cut into; a set-up of
/// the seed is timed before each, and the seed's set-up time is their
/// median.
const SETUP_SLICES: u32 = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace,
    })
}

/// Host seconds of one pass, summed over its simulation seeds. The
/// set-up times are each seed's median over its set-ups.
#[derive(Clone, Copy, Debug, Default)]
struct HostTimes {
    plan_s: f64,
    build_s: f64,
    run_until_s: f64,
    oracle_s: f64,
    report_s: f64,
}

impl HostTimes {
    fn setup_s(&self) -> f64 {
        self.plan_s + self.build_s
    }

    fn run_s(&self) -> f64 {
        self.run_until_s + self.oracle_s + self.report_s
    }
}

fn secs(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64()
}

/// Runs every simulation seed through the repository's builders; returns
/// each seed's outcome. The run of each seed is cut into `slices` slices of
/// simulated time, with an extra, timed set-up of the seed before every
/// slice but the first.
fn untraced_pass(
    w: Workload,
    seeds: &[u64],
    record: bool,
    slices: u32,
) -> Result<(Vec<Outcome>, HostTimes), String> {
    let end = w.end();
    let mut outcomes = Vec::with_capacity(seeds.len());
    let mut times = HostTimes::default();
    for &seed in seeds {
        let workloads::Setup {
            mut sim,
            plan,
            plan_s,
            build_s,
        } = w.setup(seed, record);
        let (mut plan_samples, mut build_samples) = (vec![plan_s], vec![build_s]);
        let mut run_until_s = 0.0;
        for k in 1..=slices {
            if k > 1 {
                let extra = w.setup(seed, record);
                plan_samples.push(extra.plan_s);
                build_samples.push(extra.build_s);
            }
            let until = SimTime::ZERO + (end - SimTime::ZERO) * k / slices;
            let t = Instant::now();
            sim.run_until(until);
            run_until_s += t.elapsed().as_secs_f64();
        }
        times.plan_s += median(&plan_samples);
        times.build_s += median(&build_samples);
        let t1 = Instant::now();
        let oracle = sim
            .trace()
            .with_recorder(|rec| OracleReport::check(rec, &OracleConfig::paper_default()));
        let t2 = Instant::now();
        let run = sim.report();
        let fleet = FleetReport::from_sim(&plan, &sim, end);
        let t3 = Instant::now();
        let ring = sim
            .trace()
            .with_recorder(|r| (r.len() as u64 + r.dropped(), r.dropped()));
        let out = Outcome::collect(
            &plan,
            end,
            |c| sim.client_stats(c),
            |n| sim.server_stats(n),
            sim.net_stats(),
            run.as_ref(),
            oracle.as_ref(),
            ring,
        );
        if u64::from(fleet.never_served) != out.never_served
            || u64::from(fleet.served) + out.never_served != out.sessions
            || fleet.unserved_seconds.to_bits() != out.unserved_s.to_bits()
            || fleet.stalled_seconds.to_bits() != out.stalled_s.to_bits()
        {
            return Err(format!(
                "{} seed {seed}: FleetReport and the benchmark's fold disagree",
                w.name()
            ));
        }
        times.run_until_s += run_until_s;
        times.oracle_s += secs(t1, t2);
        times.report_s += secs(t2, t3);
        outcomes.push(out);
    }
    Ok((outcomes, times))
}

/// Host seconds and engine counters of one traced pass.
#[derive(Clone, Debug, Default)]
struct TracedTimes {
    run_until_s: f64,
    dispatch_s: f64,
    oracle_s: f64,
    report_s: f64,
    layers: Vec<(f64, u64)>,
    events: u64,
    timers_set: u64,
    timers_cancelled: u64,
    peak_queue_depth: u64,
}

impl TracedTimes {
    fn run_s(&self) -> f64 {
        self.run_until_s + self.oracle_s + self.report_s
    }

    fn handlers_s(&self) -> f64 {
        self.layers.iter().map(|&(s, _)| s).sum()
    }
}

/// Runs every simulation seed through the timed wrappers.
fn traced_pass(w: Workload, seeds: &[u64]) -> (Outcome, TracedTimes) {
    let end = w.end();
    let mut total = Outcome::default();
    let mut times = TracedTimes {
        layers: vec![(0.0, 0); KEYS.len()],
        ..TracedTimes::default()
    };
    for &seed in seeds {
        let deployment = w.deployment(seed);
        let mut sim = TracedSim::build(&deployment);
        let t0 = Instant::now();
        sim.run_until(end);
        let t1 = Instant::now();
        let oracle = sim
            .trace()
            .with_recorder(|rec| OracleReport::check(rec, &OracleConfig::paper_default()));
        let t2 = Instant::now();
        let run = sim.trace().report();
        let ring = sim
            .trace()
            .with_recorder(|r| (r.len() as u64 + r.dropped(), r.dropped()));
        // The fold stands in for `FleetReport::from_sim`, which needs a
        // `VodSim`.
        let out = Outcome::collect(
            &deployment.plan,
            end,
            |c| sim.client_stats(c),
            |n| sim.server_stats(n),
            sim.sim().stats(),
            run.as_ref(),
            oracle.as_ref(),
            ring,
        );
        let t3 = Instant::now();
        times.run_until_s += secs(t0, t1);
        times.oracle_s += secs(t1, t2);
        times.report_s += secs(t2, t3);
        for (sum, (s, calls)) in times.layers.iter_mut().zip(sim.clock().totals()) {
            sum.0 += s;
            sum.1 += calls;
        }
        let profile = sim.sim().profile().expect("traced runs enable profiling");
        times.dispatch_s += profile.dispatch_ns as f64 * 1e-9;
        times.events += profile.events_total();
        times.timers_set += profile.timers_set;
        times.timers_cancelled += profile.timers_cancelled;
        times.peak_queue_depth = times.peak_queue_depth.max(profile.peak_queue_depth);
        total.absorb(out);
    }
    (total, times)
}

/// The outcome of a whole seed block.
fn fold(outcomes: Vec<Outcome>) -> Outcome {
    let mut total = Outcome::default();
    for out in outcomes {
        total.absorb(out);
    }
    total
}

/// One pass: the untraced run, plus the traced and unrecorded runs when
/// tracing.
struct Pass {
    outcome: Outcome,
    /// The outcome of the block's first seed alone.
    first: Outcome,
    host: HostTimes,
    traced: Option<(Outcome, TracedTimes)>,
    unrecorded: Option<(Outcome, HostTimes)>,
}

fn run_pass(w: Workload, seeds: &[u64], trace: bool) -> Result<Pass, String> {
    let (per_seed, host) = untraced_pass(w, seeds, w.recorded(), SETUP_SLICES)?;
    let first = per_seed[0].clone();
    let traced = trace.then(|| traced_pass(w, seeds));
    let unrecorded = if trace && w.recorded() {
        // Sliced like the recorded pass, so `trace.emit_s` compares like
        // with like.
        let (per_seed, times) = untraced_pass(w, seeds, false, SETUP_SLICES)?;
        Some((fold(per_seed), times))
    } else {
        None
    };
    Ok(Pass {
        outcome: fold(per_seed),
        first,
        host,
        traced,
        unrecorded,
    })
}

/// The correctness checks of a finished run; each failure is one line.
/// `repeat` is the block's first seed run once more, when only one pass
/// fitted.
fn check(passes: &[Pass], repeat: Option<&Outcome>) -> Vec<String> {
    let mut failures = Vec::new();
    if repeat.is_some_and(|r| *r != passes[0].first) {
        failures.push(
            "the block's first seed, run again, differs from pass 1: simulated metrics are not deterministic"
                .to_owned(),
        );
    }
    let first = &passes[0].outcome;
    for (i, pass) in passes.iter().enumerate().skip(1) {
        if pass.outcome != *first {
            failures.push(format!(
                "pass {} differs from pass 1: simulated metrics are not deterministic",
                i + 1
            ));
        }
    }
    for (i, pass) in passes.iter().enumerate() {
        if let Some((traced, times)) = &pass.traced {
            if traced != &pass.outcome {
                failures.push(format!(
                    "pass {}: the traced run does not reproduce the untraced run (equivalence gate)",
                    i + 1
                ));
            }
            for key in REQUIRED_KEYS {
                let i_key = KEYS.iter().position(|k| *k == key).expect("a layer key");
                if times.layers[i_key].1 == 0 {
                    failures.push(format!(
                        "pass {}: no handler call was filed under {key}; the timer tags in traced.rs no longer match the crates",
                        i + 1
                    ));
                }
            }
        }
        if let Some((unrecorded, _)) = &pass.unrecorded {
            if !unrecorded.same_service(&pass.outcome) {
                failures.push(format!(
                    "pass {}: recording changed the simulated outcome",
                    i + 1
                ));
            }
        }
    }
    failures
}

/// Median over passes of `f`.
fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Per-layer metrics of one traced pass: `(name, value, unit)`.
fn layer_metrics(pass: &Pass) -> Vec<(String, f64, &'static str)> {
    let (out, t) = pass.traced.as_ref().expect("traced pass");
    let host = &pass.host;
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let handlers = t.handlers_s();
    // What timing the handlers and profiling the engine add to
    // `run_until`; it lands in the engine's dispatch time, not in any
    // handler, so it is taken out of the engine's own share.
    let wrapper_s = t.run_until_s - host.run_until_s;
    let self_s = t.dispatch_s - handlers - wrapper_s;
    m.push(("simnet.events".into(), t.events as f64, "count"));
    m.push(("simnet.timers_set".into(), t.timers_set as f64, "count"));
    m.push((
        "simnet.timers_cancelled".into(),
        t.timers_cancelled as f64,
        "count",
    ));
    m.push((
        "simnet.peak_queue_depth".into(),
        t.peak_queue_depth as f64,
        "count",
    ));
    m.push(("simnet.self_s".into(), self_s, "s"));
    m.push((
        "simnet.ns_per_event".into(),
        self_s * 1e9 / t.events.max(1) as f64,
        "ns",
    ));
    for class in NET_CLASSES {
        let c = out.class(class);
        m.push((format!("net.{class}.msgs"), c.sent_msgs as f64, "count"));
        m.push((format!("net.{class}.bytes"), c.sent_bytes as f64, "bytes"));
        let dropped = c.dropped_loss + c.dropped_partition + c.dropped_dead;
        m.push((format!("net.{class}.dropped"), dropped as f64, "count"));
    }
    for (key, &(s, calls)) in KEYS.iter().zip(&t.layers) {
        m.push((format!("{key}.s"), s, "s"));
        m.push((format!("{key}.calls"), calls as f64, "count"));
    }
    m.push((
        "gcs.views_installed".into(),
        out.views_installed as f64,
        "count",
    ));
    m.push(("gcs.suspicions".into(), out.suspicions as f64, "count"));
    m.push((
        "server.admission_rejections".into(),
        out.admission_rejections as f64,
        "count",
    ));
    m.push(("server.bringups".into(), out.bringups as f64, "count"));
    let emit_s = pass
        .unrecorded
        .as_ref()
        .map_or(0.0, |(_, u)| host.run_until_s - u.run_until_s);
    m.push(("trace.emit_s".into(), emit_s, "s"));
    m.push(("trace.events".into(), out.trace_events as f64, "count"));
    m.push(("trace.dropped".into(), out.trace_dropped as f64, "count"));
    m.push(("trace.overhead_s".into(), t.run_s() - host.run_s(), "s"));
    m.push(("trace.wrapper_s".into(), wrapper_s, "s"));
    m.push(("oracle.check_s".into(), t.oracle_s, "s"));
    m.push(("report.s".into(), t.report_s, "s"));
    m.push((
        "report.takeovers".into(),
        out.takeover_s.len() as f64,
        "count",
    ));
    m.push(("traced.run_s".into(), t.run_s(), "s"));
    m.push((
        "traced.leftover_s".into(),
        t.run_s() - (handlers + self_s + wrapper_s + t.oracle_s + t.report_s),
        "s",
    ));
    m
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Prints the median and tail of latency `samples` (seconds) in ms.
fn print_latency(name: &str, samples: &[f64]) {
    let n = samples.len();
    match percentile(samples, 50.0) {
        Some(v) => println!("e2e {name}_p50_ms = {} ms ({n} samples)", v * 1e3),
        None => println!("e2e {name}_p50_ms = n/a (no samples)"),
    }
    match tail(samples) {
        Some((q, v)) => println!("e2e {name}_tail_ms = {} ms (p{q}, {n} samples)", v * 1e3),
        None => println!("e2e {name}_tail_ms = n/a ({n} samples: no percentile has 10 beyond it)"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fleet_scale|chaos_campaign|multidc_failover> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let seeds = w.sim_seeds(args.seed);
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        match run_pass(w, &seeds, args.trace) {
            Ok(pass) => passes.push(pass),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        let per_pass = elapsed / passes.len() as f64;
        if elapsed + per_pass > args.seconds {
            break;
        }
    }
    // Repeat determinism when only one pass fitted: the block's first seed
    // once more.
    let repeat = if passes.len() == 1 {
        match untraced_pass(w, &seeds[..1], w.recorded(), 1) {
            Ok((mut per_seed, _)) => Some(per_seed.remove(0)),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let failures = check(&passes, repeat.as_ref());
    let out = &passes[0].outcome;

    let setup_s = median_of(&passes, |p| p.host.setup_s());
    let run_s = median_of(&passes, |p| p.host.run_s());
    let peak_rss_mb = provenance::peak_rss_mb().unwrap_or(0.0);
    let ttff_p50 = percentile(&out.ttff_s, 50.0);
    let ttff_tail = tail(&out.ttff_s);
    let never_served_frac = out.never_served as f64 / out.sessions.max(1) as f64;

    println!(
        "workload {} seed {}: simulation seeds {}..={}, {} pass(es) in {:.1} s, trace {}",
        w.name(),
        args.seed,
        seeds[0],
        seeds[seeds.len() - 1],
        passes.len(),
        started.elapsed().as_secs_f64(),
        u8::from(args.trace),
    );
    let per_pass: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.5}", p.host.setup_s()))
        .collect();
    println!(
        "e2e setup_s = {setup_s} s (median of {} passes: {}; each seed's median of {SETUP_SLICES} set-ups)",
        passes.len(),
        per_pass.join(" ")
    );
    let per_pass: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.3}", p.host.run_s()))
        .collect();
    println!(
        "e2e run_s = {run_s} s (median of {} passes: {})",
        passes.len(),
        per_pass.join(" ")
    );
    println!("e2e peak_rss_mb = {peak_rss_mb} MiB");
    println!("e2e unserved_s = {} s", out.unserved_s);
    println!("e2e stalled_s = {} s", out.stalled_s);
    print_latency("ttff", &out.ttff_s);
    println!("e2e skipped_frames = {} count", out.skipped_frames);
    if w.recorded() {
        print_latency("takeover", &out.takeover_s);
    }
    println!(
        "e2e never_served_frac = {never_served_frac} ({} of {} sessions)",
        out.never_served, out.sessions
    );
    println!(
        "e2e oracle_violations = {} count (of {} verdicts; trace.dropped = {})",
        out.oracle_violations, out.oracle_verdicts, out.trace_dropped
    );

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let overhead = if args.trace {
        let per_pass: Vec<Vec<(String, f64, &str)>> = passes.iter().map(layer_metrics).collect();
        for (i, (name, _, unit)) in per_pass[0].iter().enumerate() {
            let values: Vec<f64> = per_pass.iter().map(|m| m[i].1).collect();
            metrics.push((name.clone(), median(&values), unit));
        }
        let service = [
            ("setup.plan_s", median_of(&passes, |p| p.host.plan_s), "s"),
            ("setup.build_s", median_of(&passes, |p| p.host.build_s), "s"),
            ("process.peak_rss_mb", peak_rss_mb, "MiB"),
            ("service.unserved_s", out.unserved_s, "s"),
            ("service.stalled_s", out.stalled_s, "s"),
            ("service.ttff_p50_ms", ttff_p50.unwrap_or(0.0) * 1e3, "ms"),
            (
                "service.ttff_tail_ms",
                ttff_tail.map_or(0.0, |(_, v)| v * 1e3),
                "ms",
            ),
            ("service.skipped_frames", out.skipped_frames as f64, "count"),
            ("service.never_served_frac", never_served_frac, "ratio"),
            (
                "service.oracle_violations",
                out.oracle_violations as f64,
                "count",
            ),
        ];
        metrics.extend(service.map(|(n, v, u)| (n.to_owned(), v, u)));
        for (name, value, unit) in &metrics {
            println!("layer {name} = {value} {unit}");
        }
        let get = |n: &str| metrics.iter().find(|m| m.0 == n).map_or(0.0, |m| m.1);
        let accounted: f64 = KEYS.iter().map(|k| get(&format!("{k}.s"))).sum::<f64>()
            + get("simnet.self_s")
            + get("trace.wrapper_s")
            + get("oracle.check_s")
            + get("report.s");
        println!(
            "accounting: traced run_s {} s = layers {} s + leftover {} s",
            get("traced.run_s"),
            accounted,
            get("traced.leftover_s")
        );
        format!("{} s", get("trace.overhead_s"))
    } else {
        // Only the host times go into the untraced JSON result: the
        // simulated service metrics and the memory high-water mark, printed
        // above, spread from seed to seed wider than any bound a regression
        // gate could use (see README.md).
        metrics.push(("setup_s".to_owned(), setup_s, "s"));
        metrics.push(("run_s".to_owned(), run_s, "s"));
        "n/a (untraced run)".to_owned()
    };
    println!(
        "provenance: rev={} date={} seed={} nproc={} tracing_overhead={overhead}",
        provenance::revision(),
        provenance::utc_now(),
        args.seed,
        provenance::nproc(),
    );
    for failure in &failures {
        println!("check FAILED: {failure}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failures.is_empty(),
        out.sessions,
        out.never_served,
        json_metrics(&metrics)
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
