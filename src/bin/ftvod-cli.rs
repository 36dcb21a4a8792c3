//! `ftvod-cli` — run fault-tolerant VoD scenarios from the command line.
//!
//! ```text
//! ftvod-cli lan [--seed N]                  the paper's Figure 4 scenario
//! ftvod-cli wan [--seed N]                  the paper's Figure 5 scenario
//! ftvod-cli trace <lan|wan> [--seed N] [--out FILE]
//!                                           run a preset and export the
//!                                           cross-layer event stream as
//!                                           JSON Lines (stdout by default)
//! ftvod-cli report <lan|wan> [--seed N] [--json]
//!                                           run a preset and print the
//!                                           derived run report: takeover
//!                                           latency breakdown (view-change
//!                                           + resume), delivery latency
//!                                           percentiles, glitch windows;
//!                                           --json emits the machine-readable
//!                                           form incl. oracle verdicts
//! ftvod-cli custom [options]                build your own deployment
//!   --servers N        replicas at start            (default 2)
//!   --clients M        viewers                      (default 1)
//!   --seconds S        how long to run              (default 60)
//!   --profile P        lan | wan | wan-reserved     (default lan)
//!   --crash T          crash the serving replica at T seconds (repeatable)
//!   --shutdown T       gracefully detach the serving replica at T
//!   --seed N           determinism seed             (default 42)
//! ftvod-cli fleet [options]                 generated fleet workload with
//!                                           dynamic replica management
//!   --servers N        VoD servers                  (default 4)
//!   --clients M        generated sessions           (default 96)
//!   --movies K         catalog size                 (default 6)
//!   --zipf S           popularity exponent          (default 1.1)
//!   --cap C            admission cap per server     (default 3M/2N)
//!   --seconds S        run length override
//!   --static           disable the dynamic replica manager
//!   --policy P         reactive | predictive | hybrid (default reactive)
//!   --prefix-secs S    enable the prefix-cache tier (default prefix 10s)
//!   --prefix-movies K  prefix-cache budget per server (default 4)
//!   --seed N           determinism seed             (default 42)
//! ftvod-cli flash [options]                 flash-crowd sweep: predictive
//!                                           placement + prefix cache vs a
//!                                           10x popularity shock; exits
//!                                           nonzero if the oracle fails
//!   --seeds N          number of sweep seeds        (default 10)
//!   --seed N           first seed                   (default 1)
//!   --compare          three-policy table on one seed
//! ftvod-cli chaos [options]                 seeded fault campaigns checked
//!                                           by the safety oracle; exits
//!                                           nonzero if any invariant fails
//!   --seeds N          number of campaign seeds     (default 5)
//!   --seed N           first seed                   (default 1)
//!   --faults K         fault slots per campaign     (default 6)
//!   --clients M        sessions per campaign        (default 24)
//!   --sync-ms MS       server sync interval         (default 500)
//!   --plan             print each campaign's fault schedule
//! ftvod-cli multidc [options]               two-datacenter site-crash sweep
//!                                           under remote-degraded failover,
//!                                           checked by the safety oracle;
//!                                           exits nonzero on any violation
//!   --seeds N          number of sweep seeds        (default 10)
//!   --seed N           first seed                   (default 1)
//!   --compare          three-mode table on one seed
//! ftvod-cli check [options]                 exhaustively model-check the
//!                                           membership state machine over a
//!                                           small scope; exits nonzero with
//!                                           a minimal counterexample trace
//!                                           if any invariant fails
//!   --nodes N          formed members               (default 3)
//!   --joiners J        extra nodes that may join    (default 0)
//!   --leaver ID        member that may leave gracefully
//!   --drops K          message-loss budget          (default 0)
//!   --clients M        clients for takeover coverage (default 4)
//!   --depth D          interleaving depth bound     (default 5)
//!   --max-states S     distinct-state cap           (default 400000)
//!   --revert-pr4-fix   disable the PR 4 expulsion fix (must fail)
//! ftvod-cli perf [options]                  run the fixed perf suite and
//!                                           emit BENCH_ftvod.json; with a
//!                                           baseline, gate on regressions
//!   --out FILE         where to write the BENCH file (default BENCH_ftvod.json)
//!   --baseline FILE    compare against a previous BENCH file
//!   --rev REV          git revision to record       (default "unknown")
//!   --date DATE        date to record               (default "unknown")
//!   --counters-only    omit wall-clock fields (byte-identical output)
//!   --flamechart FILE  export a Chrome-trace JSON of fig4_lan spans
//!   --max-wall-ratio R wall-clock regression threshold (default 5.0)
//! ```
//!
//! `lan`, `wan`, `custom` and `fleet` also accept `--net-csv FILE` to
//! export the per-class network traffic counters as CSV.
//!
//! Every subcommand also accepts `--help`/`-h`.

use std::process::ExitCode;
use std::time::Duration;

use ftvod::bench::perf::{run_suite, BenchReport, DEFAULT_MAX_WALL_RATIO};
use ftvod::prelude::*;
use ftvod_mc::{explore, CheckConfig, ProtoConfig, Scenario};

/// `print!` to stdout, except that a closed stdout ends the process
/// quietly; see `write_stdout`.
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` with the broken-pipe handling of `out!`.
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Exit status when the reader of stdout goes away: 128 + SIGPIPE, what a
/// shell reports for a C tool killed by the signal.
const BROKEN_PIPE_STATUS: i32 = 141;

/// Writes to stdout. When the reader has closed the pipe (`ftvod-cli fleet
/// | head -1`), nothing is left to report to, so the process exits at
/// once, without the panic `print!` raises. Any other write error still
/// panics, as `print!` does.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(err) = std::io::stdout().lock().write_fmt(args) {
        if err.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(BROKEN_PIPE_STATUS);
        }
        panic!("failed printing to stdout: {err}");
    }
}

#[derive(Debug, Clone, PartialEq)]
struct CustomOptions {
    servers: u32,
    clients: u32,
    seconds: u64,
    profile: String,
    crashes: Vec<u64>,
    shutdowns: Vec<u64>,
    seed: u64,
    net_csv: Option<String>,
}

impl Default for CustomOptions {
    fn default() -> Self {
        CustomOptions {
            servers: 2,
            clients: 1,
            seconds: 60,
            profile: "lan".to_owned(),
            crashes: Vec::new(),
            shutdowns: Vec::new(),
            seed: 42,
            net_csv: None,
        }
    }
}

fn parse_custom(args: &[String]) -> Result<CustomOptions, String> {
    let mut opts = CustomOptions::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--servers" => {
                opts.servers = value("--servers")?
                    .parse()
                    .map_err(|e| format!("--servers: {e}"))?
            }
            "--clients" => {
                opts.clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--profile" => opts.profile = value("--profile")?.clone(),
            "--crash" => opts.crashes.push(
                value("--crash")?
                    .parse()
                    .map_err(|e| format!("--crash: {e}"))?,
            ),
            "--shutdown" => opts.shutdowns.push(
                value("--shutdown")?
                    .parse()
                    .map_err(|e| format!("--shutdown: {e}"))?,
            ),
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--net-csv" => opts.net_csv = Some(value("--net-csv")?.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.servers == 0 || opts.clients == 0 {
        return Err("need at least one server and one client".to_owned());
    }
    if opts.servers <= opts.crashes.len() as u32 + opts.shutdowns.len() as u32 {
        return Err("cannot remove every replica".to_owned());
    }
    Ok(opts)
}

#[derive(Debug, Clone, PartialEq)]
struct FleetOptions {
    servers: u32,
    clients: u32,
    movies: u32,
    zipf: f64,
    cap: Option<u32>,
    seconds: Option<u64>,
    dynamic: bool,
    policy: PolicyKind,
    prefix_secs: Option<u64>,
    prefix_movies: Option<u32>,
    seed: u64,
    net_csv: Option<String>,
}

impl FleetOptions {
    /// The prefix-cache tier configuration, if either prefix flag was
    /// given; the other falls back to the paper default.
    fn prefix_cache(&self) -> Option<PrefixCacheConfig> {
        if self.prefix_secs.is_none() && self.prefix_movies.is_none() {
            return None;
        }
        let mut cfg = PrefixCacheConfig::paper_default();
        if let Some(secs) = self.prefix_secs {
            cfg.prefix = Duration::from_secs(secs);
        }
        if let Some(budget) = self.prefix_movies {
            cfg.budget = budget;
        }
        Some(cfg)
    }
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            servers: 4,
            clients: 96,
            movies: 6,
            zipf: 1.1,
            cap: None,
            seconds: None,
            dynamic: true,
            policy: PolicyKind::Reactive,
            prefix_secs: None,
            prefix_movies: None,
            seed: 42,
            net_csv: None,
        }
    }
}

fn parse_fleet(args: &[String]) -> Result<FleetOptions, String> {
    let mut opts = FleetOptions::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--servers" => {
                opts.servers = value("--servers")?
                    .parse()
                    .map_err(|e| format!("--servers: {e}"))?
            }
            "--clients" => {
                opts.clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?
            }
            "--movies" => {
                opts.movies = value("--movies")?
                    .parse()
                    .map_err(|e| format!("--movies: {e}"))?
            }
            "--zipf" => {
                opts.zipf = value("--zipf")?
                    .parse()
                    .map_err(|e| format!("--zipf: {e}"))?
            }
            "--cap" => opts.cap = Some(value("--cap")?.parse().map_err(|e| format!("--cap: {e}"))?),
            "--seconds" => {
                opts.seconds = Some(
                    value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--static" => opts.dynamic = false,
            "--policy" => opts.policy = PolicyKind::parse(value("--policy")?)?,
            "--prefix-secs" => {
                opts.prefix_secs = Some(
                    value("--prefix-secs")?
                        .parse()
                        .map_err(|e| format!("--prefix-secs: {e}"))?,
                )
            }
            "--prefix-movies" => {
                opts.prefix_movies = Some(
                    value("--prefix-movies")?
                        .parse()
                        .map_err(|e| format!("--prefix-movies: {e}"))?,
                )
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--net-csv" => opts.net_csv = Some(value("--net-csv")?.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.servers == 0 || opts.clients == 0 || opts.movies == 0 {
        return Err("need at least one server, one client and one movie".to_owned());
    }
    if !opts.zipf.is_finite() || opts.zipf < 0.0 {
        return Err("--zipf must be a finite non-negative exponent".to_owned());
    }
    if opts.prefix_secs == Some(0) {
        return Err("--prefix-secs must be positive (omit it to disable the cache)".to_owned());
    }
    if opts.prefix_movies == Some(0) {
        return Err("--prefix-movies must be positive (omit it to disable the cache)".to_owned());
    }
    if !opts.dynamic && opts.policy != PolicyKind::Reactive {
        return Err("--policy needs the dynamic replica manager (drop --static)".to_owned());
    }
    Ok(opts)
}

fn run_fleet(opts: &FleetOptions) -> Result<(), String> {
    let mut profile = FleetProfile::small_fleet();
    profile.servers = opts.servers;
    profile.clients = opts.clients;
    profile.catalog_size = opts.movies;
    profile.zipf_exponent = opts.zipf;
    // Default cap: total fleet capacity is ~1.5x the offered load, so the
    // fleet as a whole has room, but a single-copy hot movie still
    // bottlenecks on its lone holder — the case dynamic replication fixes.
    let cap = opts
        .cap
        .unwrap_or_else(|| (opts.clients * 3 / 2).div_ceil(opts.servers).max(1));
    profile.sessions_per_server = Some(cap);
    let replication = opts.dynamic.then(ReplicationConfig::paper_default);
    let mut cfg = fleet_config(&profile, replication).with_placement(opts.policy);
    let prefix = opts.prefix_cache();
    if let Some(prefix) = prefix {
        cfg = cfg.with_prefix_cache(prefix);
    }
    let (mut builder, plan) = fleet_builder_with_config(&profile, opts.seed, cfg);
    builder.record_events(DEFAULT_EVENT_CAPACITY);
    let end = opts
        .seconds
        .map_or_else(|| profile.run_until(), SimTime::from_secs);
    let prefix_note = prefix.map_or(String::new(), |p| {
        format!(", prefix cache {}s x {}", p.prefix.as_secs(), p.budget)
    });
    outln!(
        "fleet: {} servers (cap {cap}), {} sessions over {} movies, zipf {:.2}, {} replication ({} placement){prefix_note}, seed {}",
        profile.servers,
        profile.clients,
        profile.catalog_size,
        profile.zipf_exponent,
        if opts.dynamic { "dynamic" } else { "static" },
        opts.policy.as_str(),
        opts.seed,
    );
    let mut sim = builder.build();
    sim.run_until(end);
    let report = FleetReport::from_sim(&plan, &sim, end);
    out!("{}", report.render());
    if let Some(run) = sim.report() {
        outln!(
            "replication: {} bring-up(s), {} retire(s)",
            run.replica_bringups,
            run.replica_retires
        );
        if run.prefix_serves > 0 {
            outln!(
                "prefix tier: {} serve(s), {} handoff(s), {:.1}s of waiting avoided",
                run.prefix_serves,
                run.prefix_handoffs,
                run.prefix_seconds_avoided
            );
        }
        outln!("\n{}", run.summary_line());
    }
    write_net_csv(&sim, opts.net_csv.as_deref())
}

#[derive(Debug, Clone, PartialEq)]
struct ChaosOptions {
    seeds: u32,
    seed: u64,
    faults: u32,
    clients: u32,
    sync_ms: u64,
    plan: bool,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            seeds: 5,
            seed: 1,
            faults: 6,
            clients: 24,
            sync_ms: 500,
            plan: false,
        }
    }
}

fn parse_chaos(args: &[String]) -> Result<ChaosOptions, String> {
    let mut opts = ChaosOptions::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--seeds" => {
                opts.seeds = value("--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--faults" => {
                opts.faults = value("--faults")?
                    .parse()
                    .map_err(|e| format!("--faults: {e}"))?
            }
            "--clients" => {
                opts.clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?
            }
            "--sync-ms" => {
                opts.sync_ms = value("--sync-ms")?
                    .parse()
                    .map_err(|e| format!("--sync-ms: {e}"))?
            }
            "--plan" => opts.plan = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.seeds == 0 {
        return Err("--seeds must be at least 1".to_owned());
    }
    if opts.clients == 0 {
        return Err("--clients must be at least 1".to_owned());
    }
    if opts.sync_ms == 0 {
        return Err("--sync-ms must be positive".to_owned());
    }
    Ok(opts)
}

/// The deployment every chaos campaign runs against: a four-server fleet
/// with two initial copies of each movie, sized down so a multi-seed
/// sweep stays fast.
fn chaos_fleet(clients: u32) -> FleetProfile {
    let mut profile = FleetProfile::small_fleet();
    profile.clients = clients;
    profile.catalog_size = 4;
    profile.initial_replicas = 2;
    profile.arrival_window = Duration::from_secs(15);
    profile
}

/// Runs one seeded campaign end to end and returns the oracle's verdicts
/// plus the plan it executed.
fn chaos_campaign(opts: &ChaosOptions, seed: u64) -> (ChaosPlan, OracleReport) {
    let profile = chaos_fleet(opts.clients);
    let (mut builder, _plan) =
        fleet_builder(&profile, seed, Some(ReplicationConfig::paper_default()));
    let mut cfg = VodConfig::paper_default()
        .with_sync_interval(Duration::from_millis(opts.sync_ms))
        .with_dynamic_replication(ReplicationConfig::paper_default());
    if let Some(cap) = profile.sessions_per_server {
        cfg = cfg.with_session_cap(cap);
    }
    builder.config(cfg);
    let mut chaos_profile = ChaosProfile::default_campaign();
    chaos_profile.faults = opts.faults;
    let chaos = ChaosPlan::generate(&chaos_profile, &profile.server_nodes(), seed);
    chaos.apply(&mut builder, &LinkProfile::lan());
    // Room for every event of the run: eviction would blind the oracle.
    builder.record_events(1 << 20);
    let mut sim = builder.build();
    // Past the fault window, the longest restart and the repair bound.
    let end = SimTime::from_secs_f64(profile.run_until().as_secs_f64().max(75.0));
    sim.run_until(end);
    let oracle = sim
        .trace()
        .with_recorder(|rec| OracleReport::check(rec, &OracleConfig::paper_default()))
        .expect("recording was enabled");
    (chaos, oracle)
}

fn run_chaos(opts: &ChaosOptions) -> Result<(), String> {
    outln!(
        "chaos: {} campaign(s) from seed {}, {} fault slot(s), {} session(s), sync {} ms",
        opts.seeds,
        opts.seed,
        opts.faults,
        opts.clients,
        opts.sync_ms
    );
    let mut failing: Vec<u64> = Vec::new();
    for i in 0..opts.seeds {
        let seed = opts.seed + u64::from(i);
        let (plan, oracle) = chaos_campaign(opts, seed);
        let (crashes, partitions, bursts) = plan.kind_counts();
        outln!(
            "seed {seed}: {}  [{crashes} crash/restart, {partitions} partition, {bursts} burst]",
            ftvod_core::oracle::summary_token(&oracle)
        );
        if opts.plan {
            out!("{}", plan.render());
        }
        if !oracle.pass() {
            out!("{oracle}");
            failing.push(seed);
        }
    }
    if failing.is_empty() {
        outln!(
            "chaos: {}/{} campaign(s) passed the oracle",
            opts.seeds,
            opts.seeds
        );
        Ok(())
    } else {
        let first = failing[0];
        Err(format!(
            "{} of {} campaign(s) violated a safety invariant (seeds {:?}); replay with: ftvod-cli chaos --seeds 1 --seed {first} --plan",
            failing.len(),
            opts.seeds,
            failing
        ))
    }
}

#[derive(Debug, Clone, PartialEq)]
struct FlashOptions {
    seeds: u32,
    seed: u64,
    compare: bool,
}

impl Default for FlashOptions {
    fn default() -> Self {
        FlashOptions {
            seeds: 10,
            seed: 1,
            compare: false,
        }
    }
}

fn parse_flash(args: &[String]) -> Result<FlashOptions, String> {
    let mut opts = FlashOptions::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--seeds" => {
                opts.seeds = value("--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--compare" => opts.compare = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.seeds == 0 {
        return Err("--seeds must be at least 1".to_owned());
    }
    Ok(opts)
}

/// Outcome of one flash-crowd run, reduced to the comparison columns.
struct FlashOutcome {
    oracle: String,
    /// The full per-invariant report, rendered (printed on failure).
    oracle_detail: String,
    pass: bool,
    unserved_seconds: f64,
    never_served: u32,
    bringups: u64,
    /// First bring-up of the shocked tail movie at or after the shock.
    first_bringup: Option<SimTime>,
    prefix_serves: u64,
    prefix_handoffs: u64,
}

/// Runs the fixed flash-crowd profile under one placement policy and
/// reads the headline numbers back out of the trace.
fn flash_campaign(policy: PolicyKind, prefix: bool, seed: u64) -> FlashOutcome {
    let profile = FleetProfile::flash_crowd();
    let shock = profile.shock.expect("flash_crowd has a shock");
    let tail = MovieId(profile.catalog_size);
    let end = profile.run_until();
    let mut cfg =
        fleet_config(&profile, Some(ReplicationConfig::paper_default())).with_placement(policy);
    if prefix {
        cfg = cfg.with_prefix_cache(PrefixCacheConfig::paper_default());
    }
    let (mut builder, plan) = fleet_builder_with_config(&profile, seed, cfg);
    // Room for every event of the run: eviction would blind the oracle.
    builder.record_events(1 << 20);
    let mut sim = builder.build();
    sim.run_until(end);
    let fleet = FleetReport::from_sim(&plan, &sim, end);
    let run = sim.report().expect("recording was enabled");
    let oracle = sim
        .trace()
        .with_recorder(|rec| OracleReport::check(rec, &OracleConfig::paper_default()))
        .expect("recording was enabled");
    let first_bringup = sim
        .trace()
        .with_recorder(|rec| {
            rec.events()
                .filter_map(|e| match e {
                    VodEvent::ReplicaBringUp { at, movie, .. }
                        if *movie == tail && at.as_micros() >= shock.at.as_micros() as u64 =>
                    {
                        Some(*at)
                    }
                    _ => None,
                })
                .min()
        })
        .expect("recording was enabled");
    FlashOutcome {
        oracle: ftvod_core::oracle::summary_token(&oracle),
        oracle_detail: oracle.to_string(),
        pass: oracle.pass(),
        unserved_seconds: fleet.unserved_seconds,
        never_served: fleet.never_served,
        bringups: run.replica_bringups,
        first_bringup,
        prefix_serves: run.prefix_serves,
        prefix_handoffs: run.prefix_handoffs,
    }
}

fn flash_line(o: &FlashOutcome) -> String {
    format!(
        "{}  unserved {:.1}s, never served {}, {} bring-up(s), first tail bring-up {}, prefix {}/{}",
        o.oracle,
        o.unserved_seconds,
        o.never_served,
        o.bringups,
        o.first_bringup
            .map_or("never".to_owned(), |t| format!("{:.1}s", t.as_secs_f64())),
        o.prefix_serves,
        o.prefix_handoffs,
    )
}

fn run_flash(opts: &FlashOptions) -> Result<(), String> {
    let profile = FleetProfile::flash_crowd();
    let shock = profile.shock.expect("flash_crowd has a shock");
    if opts.compare {
        // EXPERIMENTS.md E7: the three-policy table on one seed. The
        // reactive baseline runs bare; the forecast policies get the
        // prefix-cache tier they are designed to feed.
        outln!(
            "flash: policy comparison on seed {}, {}x shock at {}s on movie {}",
            opts.seed,
            shock.factor,
            shock.at.as_secs(),
            profile.catalog_size,
        );
        let mut any_fail = false;
        for (label, policy, prefix) in [
            ("reactive", PolicyKind::Reactive, false),
            ("predictive+prefix", PolicyKind::Predictive, true),
            ("hybrid+prefix", PolicyKind::Hybrid, true),
        ] {
            let outcome = flash_campaign(policy, prefix, opts.seed);
            any_fail |= !outcome.pass;
            outln!("{label:<18} {}", flash_line(&outcome));
            if !outcome.pass {
                out!("{}", outcome.oracle_detail);
            }
        }
        return if any_fail {
            Err("a comparison run violated a safety invariant".to_owned())
        } else {
            Ok(())
        };
    }
    outln!(
        "flash: {} run(s) from seed {}, predictive placement + prefix cache, {}x shock at {}s",
        opts.seeds,
        opts.seed,
        shock.factor,
        shock.at.as_secs(),
    );
    let mut failing: Vec<u64> = Vec::new();
    for i in 0..opts.seeds {
        let seed = opts.seed + u64::from(i);
        let outcome = flash_campaign(PolicyKind::Predictive, true, seed);
        outln!("seed {seed}: {}", flash_line(&outcome));
        if !outcome.pass {
            out!("{}", outcome.oracle_detail);
            failing.push(seed);
        }
    }
    if failing.is_empty() {
        outln!(
            "flash: {}/{} run(s) passed the oracle",
            opts.seeds,
            opts.seeds
        );
        Ok(())
    } else {
        let first = failing[0];
        Err(format!(
            "{} of {} run(s) violated a safety invariant (seeds {:?}); replay with: ftvod-cli flash --seeds 1 --seed {first} --compare",
            failing.len(),
            opts.seeds,
            failing
        ))
    }
}

#[derive(Debug, Clone, PartialEq)]
struct MultiDcOptions {
    seeds: u32,
    seed: u64,
    compare: bool,
}

impl Default for MultiDcOptions {
    fn default() -> Self {
        MultiDcOptions {
            seeds: 10,
            seed: 1,
            compare: false,
        }
    }
}

fn parse_multidc(args: &[String]) -> Result<MultiDcOptions, String> {
    let mut opts = MultiDcOptions::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--seeds" => {
                opts.seeds = value("--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--compare" => opts.compare = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.seeds == 0 {
        return Err("--seeds must be at least 1".to_owned());
    }
    Ok(opts)
}

/// Outcome of one multi-datacenter run, reduced to the comparison columns.
struct MultiDcOutcome {
    oracle: String,
    /// The full per-invariant report, rendered (printed on failure).
    oracle_detail: String,
    pass: bool,
    served: u32,
    never_served: u32,
    unserved_seconds: f64,
    stalled_seconds: f64,
    total_unserved: f64,
    degraded_serves: u64,
}

/// Runs the fixed two-site scenario (correlated east-site crash at 18s,
/// repair at 40s) under one failover mode and reads the headline numbers
/// back out of the trace.
fn multidc_campaign(mode: FailoverMode, seed: u64) -> MultiDcOutcome {
    let end = multidc_profile().run_until();
    let (mut builder, plan) = multidc_builder(seed, mode);
    // Room for every event of the run: eviction would blind the oracle.
    builder.record_events(1 << 20);
    let mut sim = builder.build();
    sim.run_until(end);
    let fleet = FleetReport::from_sim(&plan, &sim, end);
    let run = sim.trace().report().expect("recording was enabled");
    let oracle = sim
        .trace()
        .with_recorder(|rec| OracleReport::check(rec, &OracleConfig::paper_default()))
        .expect("recording was enabled");
    MultiDcOutcome {
        oracle: ftvod_core::oracle::summary_token(&oracle),
        oracle_detail: oracle.to_string(),
        pass: oracle.pass(),
        served: fleet.served,
        never_served: fleet.never_served,
        unserved_seconds: fleet.unserved_seconds,
        stalled_seconds: fleet.stalled_seconds,
        total_unserved: fleet.total_unserved(),
        degraded_serves: run.degraded_serves,
    }
}

fn multidc_line(o: &MultiDcOutcome) -> String {
    format!(
        "{}  served {}, never served {}, waited {:.3}s, stalled {:.3}s, unserved total {:.3}s, {} degraded serve(s)",
        o.oracle,
        o.served,
        o.never_served,
        o.unserved_seconds,
        o.stalled_seconds,
        o.total_unserved,
        o.degraded_serves,
    )
}

fn run_multidc(opts: &MultiDcOptions) -> Result<(), String> {
    if opts.compare {
        // EXPERIMENTS.md E8: the three-mode table on one seed. The
        // home-only baseline is expected to strand the east clients (and
        // thereby fail the repair invariants), so only the failover modes
        // are gated on the oracle.
        outln!(
            "multidc: failover comparison on seed {}, east site down {}s..{}s",
            opts.seed,
            MULTIDC_FAULT_AT.as_secs(),
            MULTIDC_HEAL_AT.as_secs(),
        );
        let mut any_fail = false;
        for (label, mode, gated) in [
            ("home-only", FailoverMode::HomeOnly, false),
            ("remote", FailoverMode::Remote, true),
            ("remote-degraded", FailoverMode::RemoteDegraded, true),
        ] {
            let outcome = multidc_campaign(mode, opts.seed);
            outln!("{label:<16} {}", multidc_line(&outcome));
            if gated && !outcome.pass {
                any_fail = true;
                out!("{}", outcome.oracle_detail);
            }
        }
        return if any_fail {
            Err("a failover run violated a safety invariant".to_owned())
        } else {
            Ok(())
        };
    }
    outln!(
        "multidc: {} run(s) from seed {}, remote-degraded failover, east site down {}s..{}s",
        opts.seeds,
        opts.seed,
        MULTIDC_FAULT_AT.as_secs(),
        MULTIDC_HEAL_AT.as_secs(),
    );
    let mut failing: Vec<u64> = Vec::new();
    for i in 0..opts.seeds {
        let seed = opts.seed + u64::from(i);
        let outcome = multidc_campaign(FailoverMode::RemoteDegraded, seed);
        outln!("seed {seed}: {}", multidc_line(&outcome));
        if !outcome.pass {
            out!("{}", outcome.oracle_detail);
            failing.push(seed);
        }
    }
    if failing.is_empty() {
        outln!(
            "multidc: {}/{} run(s) passed the oracle",
            opts.seeds,
            opts.seeds
        );
        Ok(())
    } else {
        let first = failing[0];
        Err(format!(
            "{} of {} run(s) violated a safety invariant (seeds {:?}); replay with: ftvod-cli multidc --seeds 1 --seed {first} --compare",
            failing.len(),
            opts.seeds,
            failing
        ))
    }
}

#[derive(Debug, Clone, PartialEq)]
struct CheckOptions {
    nodes: u32,
    joiners: u32,
    leaver: Option<u32>,
    drops: u32,
    clients: u32,
    depth: u32,
    max_states: usize,
    revert_pr4_fix: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            nodes: 3,
            joiners: 0,
            leaver: None,
            drops: 0,
            clients: 4,
            depth: 5,
            max_states: 400_000,
            revert_pr4_fix: false,
        }
    }
}

fn parse_check(args: &[String]) -> Result<CheckOptions, String> {
    let mut opts = CheckOptions::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--nodes" => {
                opts.nodes = value("--nodes")?
                    .parse()
                    .map_err(|e| format!("--nodes: {e}"))?
            }
            "--joiners" => {
                opts.joiners = value("--joiners")?
                    .parse()
                    .map_err(|e| format!("--joiners: {e}"))?
            }
            "--leaver" => {
                opts.leaver = Some(
                    value("--leaver")?
                        .parse()
                        .map_err(|e| format!("--leaver: {e}"))?,
                )
            }
            "--drops" => {
                opts.drops = value("--drops")?
                    .parse()
                    .map_err(|e| format!("--drops: {e}"))?
            }
            "--clients" => {
                opts.clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?
            }
            "--depth" => {
                opts.depth = value("--depth")?
                    .parse()
                    .map_err(|e| format!("--depth: {e}"))?
            }
            "--max-states" => {
                opts.max_states = value("--max-states")?
                    .parse()
                    .map_err(|e| format!("--max-states: {e}"))?
            }
            "--revert-pr4-fix" => opts.revert_pr4_fix = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.nodes < 2 {
        return Err("--nodes must be at least 2 (a singleton has no protocol to check)".to_owned());
    }
    if opts.nodes + opts.joiners > 5 {
        return Err("--nodes plus --joiners must stay at or below 5 (state explosion)".to_owned());
    }
    if let Some(l) = opts.leaver {
        if l == 0 || l > opts.nodes {
            return Err(format!(
                "--leaver must name a formed member (1..={})",
                opts.nodes
            ));
        }
    }
    if opts.depth == 0 {
        return Err("--depth must be at least 1".to_owned());
    }
    if opts.max_states == 0 {
        return Err("--max-states must be at least 1".to_owned());
    }
    Ok(opts)
}

fn run_check(opts: &CheckOptions) -> Result<(), String> {
    let mut scn = Scenario::formed(opts.nodes);
    scn.joiners = opts.joiners;
    scn.leavers = opts.leaver.into_iter().collect();
    scn.max_drops = opts.drops;
    scn.clients = opts.clients;
    if opts.revert_pr4_fix {
        scn.cfg = ProtoConfig {
            reform_on_expulsion: false,
        };
    }
    let cfg = CheckConfig {
        depth: opts.depth,
        max_states: opts.max_states,
        check_merge: true,
    };
    outln!(
        "check: {} member(s), {} joiner(s), {} leaver(s), budgets {} crash / {} partition / {} drop, depth {}{}",
        scn.members,
        scn.joiners,
        scn.leavers.len(),
        scn.max_crashes,
        scn.max_partitions,
        scn.max_drops,
        cfg.depth,
        if opts.revert_pr4_fix {
            " [PR 4 expulsion fix reverted]"
        } else {
            ""
        },
    );
    let report = explore(&scn, &cfg);
    out!("{report}");
    if report.pass() {
        Ok(())
    } else {
        Err("the model checker found an invariant violation".to_owned())
    }
}

fn profile_by_name(name: &str) -> Result<LinkProfile, String> {
    match name {
        "lan" => Ok(LinkProfile::lan()),
        "wan" => Ok(LinkProfile::wan()),
        "wan-reserved" => Ok(LinkProfile::wan_reserved()),
        other => Err(format!(
            "unknown profile {other} (lan | wan | wan-reserved)"
        )),
    }
}

fn seed_flag(args: &[String]) -> Result<u64, String> {
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--seed" {
            let value = it.next().ok_or("--seed needs a value")?;
            return value.parse().map_err(|e| format!("--seed: {e}"));
        }
    }
    Ok(42)
}

fn out_flag(args: &[String]) -> Result<Option<String>, String> {
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--out" {
            return match it.next() {
                Some(path) => Ok(Some(path.clone())),
                None => Err("--out needs a value".to_owned()),
            };
        }
    }
    Ok(None)
}

fn net_csv_flag(args: &[String]) -> Result<Option<String>, String> {
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--net-csv" {
            return match it.next() {
                Some(path) => Ok(Some(path.clone())),
                None => Err("--net-csv needs a value".to_owned()),
            };
        }
    }
    Ok(None)
}

/// Exports the per-class network counters as CSV when a path was given.
fn write_net_csv(sim: &VodSim, path: Option<&str>) -> Result<(), String> {
    let Some(path) = path else {
        return Ok(());
    };
    let csv = sim.net_stats().to_csv();
    std::fs::write(path, &csv).map_err(|e| format!("writing {path}: {e}"))?;
    outln!("wrote network counters to {path}");
    Ok(())
}

fn summarize(sim: &VodSim, clients: &[ClientId]) {
    outln!(
        "\n{:<8} {:>8} {:>10} {:>8} {:>8} {:>8} {:>8}   served by",
        "client",
        "received",
        "displayed",
        "late",
        "skipped",
        "stalls",
        "emerg"
    );
    for &c in clients {
        let Some(stats) = sim.client_stats(c) else {
            continue;
        };
        outln!(
            "{:<8} {:>8} {:>10} {:>8} {:>8} {:>8} {:>8}   {:?}",
            c.to_string(),
            stats.frames_received,
            sim.client_displayed(c).unwrap_or(0),
            stats.late.total(),
            stats.skipped.total(),
            stats.stalls.total(),
            stats.emergencies.total(),
            sim.owner_of(c),
        );
        for (at, dur) in &stats.interruptions {
            outln!("         interruption at t={at:.2}s for {dur:.2}s");
        }
    }
    outln!("\nnetwork traffic:\n{}", sim.net_stats());
}

fn run_preset(which: &str, seed: u64, net_csv: Option<&str>) -> Result<(), String> {
    let (mut builder, a, b) = match which {
        "lan" => presets::fig4_lan(seed),
        _ => presets::fig5_wan(seed),
    };
    builder.record_events(DEFAULT_EVENT_CAPACITY);
    let (first, second) = if which == "lan" {
        (("crash", a), ("load balance", b))
    } else {
        (("load balance", a), ("crash", b))
    };
    outln!("running the paper's {which} scenario (seed {seed}):");
    outln!("  {} at {}, {} at {}", first.0, first.1, second.0, second.1);
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(92));
    summarize(&sim, &[presets::CLIENT_ID]);
    if let Some(report) = sim.report() {
        outln!("\n{}", report.summary_line());
    }
    write_net_csv(&sim, net_csv)
}

/// Runs a preset with event recording and hands the finished sim back.
fn traced_preset(which: &str, seed: u64) -> VodSim {
    let (mut builder, _, _) = match which {
        "lan" => presets::fig4_lan(seed),
        _ => presets::fig5_wan(seed),
    };
    builder.record_events(DEFAULT_EVENT_CAPACITY);
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(92));
    sim
}

fn run_trace(which: &str, seed: u64, out: Option<&str>) -> Result<(), String> {
    let sim = traced_preset(which, seed);
    let jsonl = sim.events_jsonl().expect("recording was enabled");
    match out {
        Some(path) => {
            std::fs::write(path, &jsonl).map_err(|e| format!("writing {path}: {e}"))?;
            outln!("wrote {} events to {path}", jsonl.lines().count());
        }
        None => out!("{jsonl}"),
    }
    Ok(())
}

fn run_report(which: &str, seed: u64, json: bool) -> Result<(), String> {
    let sim = traced_preset(which, seed);
    let mut report = sim.report().expect("recording was enabled");
    let oracle = sim
        .trace()
        .with_recorder(|rec| OracleReport::check(rec, &OracleConfig::paper_default()))
        .expect("recording was enabled");
    let pass = oracle.pass();
    report.oracle = Some(oracle);
    if json {
        out!("{}", report.to_json());
    } else {
        outln!("{which} scenario, seed {seed}:\n");
        out!("{report}");
    }
    if pass {
        Ok(())
    } else {
        Err("the safety oracle flagged an invariant violation".to_owned())
    }
}

#[derive(Debug, Clone, PartialEq)]
struct PerfOptions {
    out: String,
    baseline: Option<String>,
    rev: String,
    date: String,
    counters_only: bool,
    flamechart: Option<String>,
    max_wall_ratio: f64,
}

impl Default for PerfOptions {
    fn default() -> Self {
        PerfOptions {
            out: "BENCH_ftvod.json".to_owned(),
            baseline: None,
            rev: "unknown".to_owned(),
            date: "unknown".to_owned(),
            counters_only: false,
            flamechart: None,
            max_wall_ratio: DEFAULT_MAX_WALL_RATIO,
        }
    }
}

fn parse_perf(args: &[String]) -> Result<PerfOptions, String> {
    let mut opts = PerfOptions::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--out" => opts.out = value("--out")?.clone(),
            "--baseline" => opts.baseline = Some(value("--baseline")?.clone()),
            "--rev" => opts.rev = value("--rev")?.clone(),
            "--date" => opts.date = value("--date")?.clone(),
            "--counters-only" => opts.counters_only = true,
            "--flamechart" => opts.flamechart = Some(value("--flamechart")?.clone()),
            "--max-wall-ratio" => {
                opts.max_wall_ratio = value("--max-wall-ratio")?
                    .parse()
                    .map_err(|e| format!("--max-wall-ratio: {e}"))?
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !opts.max_wall_ratio.is_finite() || opts.max_wall_ratio < 1.0 {
        return Err("--max-wall-ratio must be a finite ratio of at least 1".to_owned());
    }
    Ok(opts)
}

fn run_perf(opts: &PerfOptions) -> Result<(), String> {
    // Load the baseline first so a malformed file fails before the
    // minutes-long suite runs.
    let baseline = match &opts.baseline {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            Some(BenchReport::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?)
        }
        None => None,
    };
    outln!(
        "perf: running the fixed suite (fig4_lan, fig5_wan, fleet_e3, chaos_5seeds, flash_crowd), rev {}",
        opts.rev
    );
    let capacity = if opts.flamechart.is_some() {
        1 << 18
    } else {
        0
    };
    let (report, flamechart) = run_suite(&opts.rev, &opts.date, capacity);
    out!("{}", report.render_table());
    let json = report.to_json(!opts.counters_only);
    std::fs::write(&opts.out, &json).map_err(|e| format!("writing {}: {e}", opts.out))?;
    outln!("wrote {}", opts.out);
    if let Some(path) = &opts.flamechart {
        let trace = flamechart.ok_or("the suite produced no flamechart spans")?;
        std::fs::write(path, &trace).map_err(|e| format!("writing {path}: {e}"))?;
        outln!("wrote flamechart to {path} (open in a Chrome-trace viewer)");
    }
    if let Some(baseline) = baseline {
        let regressions = BenchReport::compare(&baseline, &report, opts.max_wall_ratio);
        if regressions.is_empty() {
            outln!(
                "perf gate: no regressions against {}",
                opts.baseline.as_deref().unwrap_or("baseline")
            );
        } else {
            let mut msg = format!("{} perf regression(s):", regressions.len());
            for r in &regressions {
                msg.push_str("\n  ");
                msg.push_str(r);
            }
            return Err(msg);
        }
    }
    Ok(())
}

fn run_custom(opts: &CustomOptions) -> Result<(), String> {
    let profile = profile_by_name(&opts.profile)?;
    let servers: Vec<NodeId> = (1..=opts.servers).map(NodeId).collect();
    let clients: Vec<ClientId> = (1..=opts.clients).map(ClientId).collect();
    let movie = Movie::generate(
        MovieId(1),
        &MovieSpec::paper_default().with_duration(Duration::from_secs(opts.seconds + 40)),
    );
    let mut builder = ScenarioBuilder::new(opts.seed);
    builder.network(profile).movie(movie, &servers);
    for &s in &servers {
        builder.server(s);
    }
    for (i, &c) in clients.iter().enumerate() {
        builder.client(
            c,
            NodeId(100 + c.0),
            MovieId(1),
            SimTime::from_secs(2 + i as u64 / 4),
        );
    }
    // Crashes/shutdowns target the highest-id replicas (the serving order).
    let mut victims = servers.clone();
    for &t in &opts.crashes {
        if let Some(victim) = victims.pop() {
            outln!("scheduling crash of {victim} at t={t}s");
            builder.crash_at(SimTime::from_secs(t), victim);
        }
    }
    for &t in &opts.shutdowns {
        if let Some(victim) = victims.pop() {
            outln!("scheduling graceful shutdown of {victim} at t={t}s");
            builder.shutdown_at(SimTime::from_secs(t), victim);
        }
    }
    builder.record_events(DEFAULT_EVENT_CAPACITY);
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(opts.seconds));
    summarize(&sim, &clients);
    if let Some(report) = sim.report() {
        outln!("\n{}", report.summary_line());
    }
    write_net_csv(&sim, opts.net_csv.as_deref())
}

fn preset_name(args: &[String]) -> Result<&'static str, String> {
    match args.first().map(String::as_str) {
        Some("lan") => Ok("lan"),
        Some("wan") => Ok("wan"),
        Some(other) => Err(format!(
            "expected a preset scenario (lan | wan), got \"{other}\""
        )),
        None => Err("expected a preset scenario (lan | wan)".to_owned()),
    }
}

fn exit_from(result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Per-subcommand usage text; anything else gets the overview.
fn usage_for(topic: &str) -> &'static str {
    match topic {
        "lan" | "wan" => {
            "usage: ftvod-cli <lan | wan> [--seed N] [--net-csv FILE]\n\n\
             Run the paper's Figure 4 (lan) or Figure 5 (wan) scenario and\n\
             print per-client statistics plus the run-report summary.\n\n\
             options:\n\
             \x20 --seed N        determinism seed (default 42)\n\
             \x20 --net-csv FILE  export per-class network counters as CSV"
        }
        "trace" => {
            "usage: ftvod-cli trace <lan | wan> [--seed N] [--out FILE]\n\n\
             Run a preset scenario and export the cross-layer event stream\n\
             as JSON Lines (stdout unless --out is given).\n\n\
             options:\n\
             \x20 --seed N     determinism seed (default 42)\n\
             \x20 --out FILE   write the JSONL stream to FILE"
        }
        "report" => {
            "usage: ftvod-cli report <lan | wan> [--seed N] [--json]\n\n\
             Run a preset scenario and print the derived run report:\n\
             takeover-latency breakdowns (view change + resume), delivery\n\
             latency percentiles, glitch windows, replication decisions.\n\n\
             options:\n\
             \x20 --seed N     determinism seed (default 42)\n\
             \x20 --json       emit the machine-readable report (schema\n\
             \x20              ftvod-report/v1) including oracle verdicts"
        }
        "custom" => {
            "usage: ftvod-cli custom [options]\n\n\
             Build your own deployment: N replicas serving one movie to M\n\
             viewers, with crash and graceful-shutdown injections.\n\n\
             options:\n\
             \x20 --servers N    replicas at start                  (default 2)\n\
             \x20 --clients M    viewers                            (default 1)\n\
             \x20 --seconds S    how long to run                    (default 60)\n\
             \x20 --profile P    lan | wan | wan-reserved           (default lan)\n\
             \x20 --crash T      crash the serving replica at T (repeatable)\n\
             \x20 --shutdown T   gracefully detach the serving replica at T\n\
             \x20 --seed N       determinism seed                   (default 42)\n\
             \x20 --net-csv FILE export per-class network counters as CSV"
        }
        "fleet" => {
            "usage: ftvod-cli fleet [options]\n\n\
             Generate a deterministic fleet workload (Zipf popularity,\n\
             Poisson arrivals, VCR mix, churn) and run it with demand-driven\n\
             dynamic replica management. The same seed always produces the\n\
             same report, byte for byte.\n\n\
             options:\n\
             \x20 --servers N    VoD servers                        (default 4)\n\
             \x20 --clients M    generated sessions                 (default 96)\n\
             \x20 --movies K     catalog size                       (default 6)\n\
             \x20 --zipf S       popularity exponent                (default 1.1)\n\
             \x20 --cap C        admission cap per server           (default 3M/2N)\n\
             \x20 --seconds S    run length override (default: until the plan ends)\n\
             \x20 --static       disable the dynamic replica manager\n\
             \x20 --policy P     reactive | predictive | hybrid     (default reactive)\n\
             \x20 --prefix-secs S    enable the prefix-cache tier: cache the\n\
             \x20                    first S seconds of hot movies  (default 10)\n\
             \x20 --prefix-movies K  prefix-cache budget per server (default 4)\n\
             \x20 --seed N       determinism seed                   (default 42)\n\
             \x20 --net-csv FILE export per-class network counters as CSV"
        }
        "flash" => {
            "usage: ftvod-cli flash [options]\n\n\
             Run the fixed flash-crowd scenario — a cold tail movie with a\n\
             single replica whose popularity multiplies mid-run while\n\
             replica bring-up takes seconds — under the predictive\n\
             placement policy with the prefix-cache tier, across a sweep\n\
             of seeds, replaying every trace through the safety oracle.\n\
             The same seed always produces the same line, byte for byte.\n\
             Exits nonzero if any run violates an invariant.\n\n\
             With --compare, one seed is run under all three placement\n\
             policies (reactive bare, predictive and hybrid with the\n\
             prefix cache) and the verdicts are printed side by side —\n\
             the EXPERIMENTS.md E7 table.\n\n\
             options:\n\
             \x20 --seeds N      number of sweep seeds              (default 10)\n\
             \x20 --seed N       first seed                         (default 1)\n\
             \x20 --compare      three-policy comparison on one seed"
        }
        "chaos" => {
            "usage: ftvod-cli chaos [options]\n\n\
             Run seeded fault campaigns — crash/restart cycles, pairwise\n\
             partitions with heals, correlated loss bursts — against a\n\
             four-server fleet, then replay each trace through the safety\n\
             oracle. The same seed always produces the same campaign and\n\
             the same verdicts, byte for byte. Exits nonzero if any\n\
             campaign violates an invariant, printing the first failing\n\
             seed for replay.\n\n\
             options:\n\
             \x20 --seeds N      number of campaign seeds           (default 5)\n\
             \x20 --seed N       first seed                         (default 1)\n\
             \x20 --faults K     fault slots per campaign           (default 6)\n\
             \x20 --clients M    sessions per campaign              (default 24)\n\
             \x20 --sync-ms MS   server sync interval in ms         (default 500)\n\
             \x20 --plan         print each campaign's fault schedule"
        }
        "multidc" => {
            "usage: ftvod-cli multidc [options]\n\n\
             Run the fixed two-datacenter scenario — east and west sites\n\
             over a WAN, geo-affine clients, every movie replicated on\n\
             both sites — with a correlated crash of the whole east site\n\
             mid-run, under remote-degraded failover, across a sweep of\n\
             seeds, replaying every trace through the safety oracle\n\
             (including the site-aware invariants: re-serve after a site\n\
             fault, geo-affinity restored after the heal, degraded serving\n\
             only while the home site is down). The same seed always\n\
             produces the same line, byte for byte. Exits nonzero if any\n\
             run violates an invariant.\n\n\
             With --compare, one seed is run under all three failover\n\
             modes (home-only, remote, remote-degraded) and the verdicts\n\
             are printed side by side — the EXPERIMENTS.md E8 table. The\n\
             home-only baseline strands the east clients by design, so\n\
             only the failover rows are gated on the oracle.\n\n\
             options:\n\
             \x20 --seeds N      number of sweep seeds              (default 10)\n\
             \x20 --seed N       first seed                         (default 1)\n\
             \x20 --compare      three-mode comparison on one seed"
        }
        "check" => {
            "usage: ftvod-cli check [options]\n\n\
             Exhaustively model-check the GCS membership state machine\n\
             (gcs::proto) over a small scope: breadth-first exploration of\n\
             every interleaving of message delivery, loss, crash, restart,\n\
             partition and heal, with safety invariants (view agreement,\n\
             member-in-own-view) checked at every distinct state and\n\
             liveness (eventual merge, takeover coverage) checked via a\n\
             deterministic fair closure. The same scope always renders the\n\
             same report, byte for byte. Exits nonzero with a minimal\n\
             counterexample trace if any invariant fails.\n\n\
             options:\n\
             \x20 --nodes N          formed members                 (default 3)\n\
             \x20 --joiners J        extra nodes that may join      (default 0)\n\
             \x20 --leaver ID        member that may leave gracefully\n\
             \x20 --drops K          message-loss budget            (default 0)\n\
             \x20 --clients M        clients for takeover coverage  (default 4)\n\
             \x20 --depth D          interleaving depth bound       (default 5)\n\
             \x20 --max-states S     distinct-state cap             (default 400000)\n\
             \x20 --revert-pr4-fix   disable the PR 4 expulsion fix; the\n\
             \x20                    checker must rediscover the merge\n\
             \x20                    deadlock and exit nonzero"
        }
        "perf" => {
            "usage: ftvod-cli perf [options]\n\n\
             Run the fixed perf suite (fig4_lan, fig5_wan, fleet_e3,\n\
             chaos_5seeds, flash_crowd) with hot-path cost profiling on and write the\n\
             schema-versioned BENCH_ftvod.json: per-scenario wall-clock,\n\
             events/second, peak concurrent sessions and the deterministic\n\
             counter table. With --baseline, compare against a previous\n\
             BENCH file and exit nonzero on any regression: counters must\n\
             match exactly, wall-clock must stay within the ratio\n\
             threshold.\n\n\
             options:\n\
             \x20 --out FILE          BENCH output path      (default BENCH_ftvod.json)\n\
             \x20 --baseline FILE     gate against a previous BENCH file\n\
             \x20 --rev REV           git revision to record (default unknown)\n\
             \x20 --date DATE         date to record         (default unknown)\n\
             \x20 --counters-only     omit wall-clock fields; output is\n\
             \x20                     byte-identical across runs\n\
             \x20 --flamechart FILE   export fig4_lan spans as Chrome-trace JSON\n\
             \x20 --max-wall-ratio R  wall-clock threshold   (default 5.0)"
        }
        _ => {
            "usage: ftvod-cli <command> [options]\n\n\
             commands:\n\
             \x20 lan | wan   the paper's Figure 4 / Figure 5 scenario\n\
             \x20 trace       run a preset, export the event stream as JSONL\n\
             \x20 report      run a preset, print the derived run report\n\
             \x20 custom      build your own deployment (crashes, shutdowns)\n\
             \x20 fleet       generated fleet workload with dynamic replication\n\
             \x20 flash       flash-crowd sweep: predictive placement + prefix\n\
             \x20             cache vs a 10x popularity shock\n\
             \x20 chaos       seeded fault campaigns checked by the safety oracle\n\
             \x20 multidc     two-datacenter site-crash sweep: cross-DC rescue\n\
             \x20             and degraded-mode serving vs a home-only baseline\n\
             \x20 check       exhaustively model-check the membership protocol\n\
             \x20 perf        run the perf suite, write BENCH_ftvod.json, gate\n\
             \x20             against a baseline\n\n\
             Run `ftvod-cli <command> --help` for the command's options."
        }
    }
}

fn wants_help(args: &[String]) -> bool {
    args.iter().any(|a| a == "--help" || a == "-h")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        eprintln!("{}", usage_for("overview"));
        return ExitCode::FAILURE;
    };
    if matches!(cmd, "help" | "--help" | "-h") {
        outln!(
            "{}",
            usage_for(args.get(1).map_or("overview", String::as_str))
        );
        return ExitCode::SUCCESS;
    }
    if wants_help(&args[1..]) {
        outln!("{}", usage_for(cmd));
        return ExitCode::SUCCESS;
    }
    match cmd {
        "lan" | "wan" => exit_from(seed_flag(&args).and_then(|seed| {
            let net_csv = net_csv_flag(&args)?;
            run_preset(cmd, seed, net_csv.as_deref())
        })),
        "trace" => exit_from(preset_name(&args[1..]).and_then(|which| {
            let seed = seed_flag(&args)?;
            let out = out_flag(&args)?;
            run_trace(which, seed, out.as_deref())
        })),
        "report" => exit_from(preset_name(&args[1..]).and_then(|which| {
            let json = args[1..].iter().any(|a| a == "--json");
            run_report(which, seed_flag(&args)?, json)
        })),
        "custom" => exit_from(parse_custom(&args[1..]).and_then(|opts| run_custom(&opts))),
        "fleet" => exit_from(parse_fleet(&args[1..]).and_then(|opts| run_fleet(&opts))),
        "flash" => exit_from(parse_flash(&args[1..]).and_then(|opts| run_flash(&opts))),
        "chaos" => exit_from(parse_chaos(&args[1..]).and_then(|opts| run_chaos(&opts))),
        "multidc" => exit_from(parse_multidc(&args[1..]).and_then(|opts| run_multidc(&opts))),
        "check" => exit_from(parse_check(&args[1..]).and_then(|opts| run_check(&opts))),
        "perf" => exit_from(parse_perf(&args[1..]).and_then(|opts| run_perf(&opts))),
        other => {
            eprintln!("unknown command \"{other}\"\n\n{}", usage_for("overview"));
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn defaults_parse() {
        let opts = parse_custom(&[]).unwrap();
        assert_eq!(opts, CustomOptions::default());
    }

    #[test]
    fn full_flag_set_parses() {
        let opts = parse_custom(&strings(&[
            "--servers",
            "4",
            "--clients",
            "3",
            "--seconds",
            "90",
            "--profile",
            "wan",
            "--crash",
            "20",
            "--crash",
            "40",
            "--shutdown",
            "60",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(opts.servers, 4);
        assert_eq!(opts.clients, 3);
        assert_eq!(opts.seconds, 90);
        assert_eq!(opts.profile, "wan");
        assert_eq!(opts.crashes, vec![20, 40]);
        assert_eq!(opts.shutdowns, vec![60]);
        assert_eq!(opts.seed, 7);
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        assert!(parse_custom(&strings(&["--bogus"])).is_err());
        assert!(parse_custom(&strings(&["--servers"])).is_err());
        assert!(parse_custom(&strings(&["--servers", "x"])).is_err());
    }

    #[test]
    fn rejects_removing_every_replica() {
        let err = parse_custom(&strings(&[
            "--servers",
            "2",
            "--crash",
            "10",
            "--crash",
            "20",
        ]))
        .unwrap_err();
        assert!(err.contains("every replica"));
    }

    #[test]
    fn trace_and_report_args_parse() {
        assert_eq!(preset_name(&strings(&["lan"])), Ok("lan"));
        assert_eq!(preset_name(&strings(&["wan", "--seed", "7"])), Ok("wan"));
        assert!(preset_name(&strings(&["atm"])).is_err());
        assert!(preset_name(&[]).is_err());
        assert_eq!(
            out_flag(&strings(&["trace", "lan", "--out", "e.jsonl"])),
            Ok(Some("e.jsonl".to_owned()))
        );
        assert_eq!(out_flag(&strings(&["trace", "lan"])), Ok(None));
        assert!(out_flag(&strings(&["trace", "lan", "--out"])).is_err());
        assert_eq!(seed_flag(&strings(&["lan"])), Ok(42));
        assert_eq!(seed_flag(&strings(&["lan", "--seed", "7"])), Ok(7));
        assert!(seed_flag(&strings(&["lan", "--seed", "banana"])).is_err());
        assert!(seed_flag(&strings(&["lan", "--seed"])).is_err());
    }

    #[test]
    fn profiles_resolve() {
        assert!(profile_by_name("lan").is_ok());
        assert!(profile_by_name("wan").is_ok());
        assert!(profile_by_name("wan-reserved").is_ok());
        assert!(profile_by_name("atm").is_err());
    }

    #[test]
    fn fleet_defaults_parse() {
        let opts = parse_fleet(&[]).unwrap();
        assert_eq!(opts, FleetOptions::default());
        assert!(opts.dynamic);
    }

    #[test]
    fn fleet_full_flag_set_parses() {
        let opts = parse_fleet(&strings(&[
            "--servers",
            "8",
            "--clients",
            "500",
            "--movies",
            "12",
            "--zipf",
            "1.3",
            "--cap",
            "40",
            "--seconds",
            "120",
            "--static",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(opts.servers, 8);
        assert_eq!(opts.clients, 500);
        assert_eq!(opts.movies, 12);
        assert!((opts.zipf - 1.3).abs() < 1e-12);
        assert_eq!(opts.cap, Some(40));
        assert_eq!(opts.seconds, Some(120));
        assert!(!opts.dynamic);
        assert_eq!(opts.seed, 7);
    }

    #[test]
    fn fleet_policy_and_prefix_flags_parse() {
        let opts = parse_fleet(&strings(&[
            "--policy",
            "predictive",
            "--prefix-secs",
            "8",
            "--prefix-movies",
            "2",
        ]))
        .unwrap();
        assert_eq!(opts.policy, PolicyKind::Predictive);
        let prefix = opts.prefix_cache().unwrap();
        assert_eq!(prefix.prefix, Duration::from_secs(8));
        assert_eq!(prefix.budget, 2);
        // Either prefix flag alone enables the tier, defaulting the other.
        let secs_only = parse_fleet(&strings(&["--prefix-secs", "8"])).unwrap();
        assert_eq!(
            secs_only.prefix_cache().unwrap().budget,
            PrefixCacheConfig::paper_default().budget
        );
        let movies_only = parse_fleet(&strings(&["--prefix-movies", "2"])).unwrap();
        assert_eq!(
            movies_only.prefix_cache().unwrap().prefix,
            PrefixCacheConfig::paper_default().prefix
        );
        // Neither flag leaves the cache off.
        assert_eq!(parse_fleet(&[]).unwrap().prefix_cache(), None);
        let hybrid = parse_fleet(&strings(&["--policy", "hybrid"])).unwrap();
        assert_eq!(hybrid.policy, PolicyKind::Hybrid);
    }

    #[test]
    fn fleet_rejects_bad_inputs() {
        assert!(parse_fleet(&strings(&["--bogus"])).is_err());
        assert!(parse_fleet(&strings(&["--servers", "0"])).is_err());
        assert!(parse_fleet(&strings(&["--movies", "0"])).is_err());
        assert!(parse_fleet(&strings(&["--zipf", "-1"])).is_err());
        assert!(parse_fleet(&strings(&["--zipf", "nan"])).is_err());
        assert!(parse_fleet(&strings(&["--cap"])).is_err());
        assert!(parse_fleet(&strings(&["--policy", "psychic"])).is_err());
        assert!(parse_fleet(&strings(&["--policy"])).is_err());
        assert!(parse_fleet(&strings(&["--prefix-secs", "0"])).is_err());
        assert!(parse_fleet(&strings(&["--prefix-movies", "0"])).is_err());
        assert!(parse_fleet(&strings(&["--static", "--policy", "predictive"])).is_err());
    }

    #[test]
    fn flash_defaults_parse() {
        let opts = parse_flash(&[]).unwrap();
        assert_eq!(opts, FlashOptions::default());
        assert_eq!(opts.seeds, 10);
        assert_eq!(opts.seed, 1);
        assert!(!opts.compare);
    }

    #[test]
    fn flash_full_flag_set_parses() {
        let opts = parse_flash(&strings(&["--seeds", "3", "--seed", "9", "--compare"])).unwrap();
        assert_eq!(opts.seeds, 3);
        assert_eq!(opts.seed, 9);
        assert!(opts.compare);
    }

    #[test]
    fn flash_rejects_bad_inputs() {
        assert!(parse_flash(&strings(&["--bogus"])).is_err());
        assert!(parse_flash(&strings(&["--seeds", "0"])).is_err());
        assert!(parse_flash(&strings(&["--seeds"])).is_err());
        assert!(parse_flash(&strings(&["--seed", "x"])).is_err());
    }

    #[test]
    fn chaos_defaults_parse() {
        let opts = parse_chaos(&[]).unwrap();
        assert_eq!(opts, ChaosOptions::default());
        assert_eq!(opts.seeds, 5);
        assert_eq!(opts.sync_ms, 500);
        assert!(!opts.plan);
    }

    #[test]
    fn chaos_full_flag_set_parses() {
        let opts = parse_chaos(&strings(&[
            "--seeds",
            "25",
            "--seed",
            "9",
            "--faults",
            "4",
            "--clients",
            "12",
            "--sync-ms",
            "20000",
            "--plan",
        ]))
        .unwrap();
        assert_eq!(opts.seeds, 25);
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.faults, 4);
        assert_eq!(opts.clients, 12);
        assert_eq!(opts.sync_ms, 20000);
        assert!(opts.plan);
    }

    #[test]
    fn chaos_rejects_bad_inputs() {
        assert!(parse_chaos(&strings(&["--bogus"])).is_err());
        assert!(parse_chaos(&strings(&["--seeds", "0"])).is_err());
        assert!(parse_chaos(&strings(&["--clients", "0"])).is_err());
        assert!(parse_chaos(&strings(&["--sync-ms", "0"])).is_err());
        assert!(parse_chaos(&strings(&["--seeds"])).is_err());
    }

    #[test]
    fn multidc_defaults_parse() {
        let opts = parse_multidc(&[]).unwrap();
        assert_eq!(opts, MultiDcOptions::default());
        assert_eq!(opts.seeds, 10);
        assert_eq!(opts.seed, 1);
        assert!(!opts.compare);
    }

    #[test]
    fn multidc_full_flag_set_parses() {
        let opts = parse_multidc(&strings(&["--seeds", "3", "--seed", "9", "--compare"])).unwrap();
        assert_eq!(opts.seeds, 3);
        assert_eq!(opts.seed, 9);
        assert!(opts.compare);
    }

    #[test]
    fn multidc_rejects_bad_inputs() {
        assert!(parse_multidc(&strings(&["--bogus"])).is_err());
        assert!(parse_multidc(&strings(&["--seeds", "0"])).is_err());
        assert!(parse_multidc(&strings(&["--seeds"])).is_err());
        assert!(parse_multidc(&strings(&["--seed", "x"])).is_err());
    }

    #[test]
    fn check_defaults_parse() {
        let opts = parse_check(&[]).unwrap();
        assert_eq!(opts, CheckOptions::default());
        assert_eq!(opts.nodes, 3);
        assert_eq!(opts.depth, 5);
        assert!(!opts.revert_pr4_fix);
    }

    #[test]
    fn check_full_flag_set_parses() {
        let opts = parse_check(&strings(&[
            "--nodes",
            "2",
            "--joiners",
            "1",
            "--leaver",
            "2",
            "--drops",
            "2",
            "--clients",
            "6",
            "--depth",
            "6",
            "--max-states",
            "100000",
            "--revert-pr4-fix",
        ]))
        .unwrap();
        assert_eq!(opts.nodes, 2);
        assert_eq!(opts.joiners, 1);
        assert_eq!(opts.leaver, Some(2));
        assert_eq!(opts.drops, 2);
        assert_eq!(opts.clients, 6);
        assert_eq!(opts.depth, 6);
        assert_eq!(opts.max_states, 100_000);
        assert!(opts.revert_pr4_fix);
    }

    #[test]
    fn check_rejects_bad_inputs() {
        assert!(parse_check(&strings(&["--bogus"])).is_err());
        assert!(parse_check(&strings(&["--nodes", "1"])).is_err());
        assert!(parse_check(&strings(&["--nodes", "4", "--joiners", "2"])).is_err());
        assert!(parse_check(&strings(&["--leaver", "4"])).is_err());
        assert!(parse_check(&strings(&["--leaver", "0"])).is_err());
        assert!(parse_check(&strings(&["--depth", "0"])).is_err());
        assert!(parse_check(&strings(&["--max-states", "0"])).is_err());
        assert!(parse_check(&strings(&["--depth"])).is_err());
    }

    #[test]
    fn every_command_has_usage_text() {
        for cmd in [
            "lan", "wan", "trace", "report", "custom", "fleet", "flash", "chaos", "multidc",
            "check", "perf", "overview",
        ] {
            let text = usage_for(cmd);
            assert!(text.starts_with("usage:"), "{cmd} usage malformed");
        }
        assert!(usage_for("fleet").contains("--zipf"));
        assert!(usage_for("fleet").contains("--policy"));
        assert!(usage_for("fleet").contains("--prefix-secs"));
        assert!(usage_for("flash").contains("--compare"));
        assert!(usage_for("chaos").contains("--sync-ms"));
        assert!(usage_for("multidc").contains("--compare"));
        assert!(usage_for("overview").contains("multidc"));
        assert!(usage_for("overview").contains("flash"));
        assert!(usage_for("overview").contains("chaos"));
        assert!(usage_for("overview").contains("check"));
        assert!(usage_for("overview").contains("perf"));
        assert!(usage_for("perf").contains("flash_crowd"));
        assert!(usage_for("check").contains("--revert-pr4-fix"));
        assert!(usage_for("check").contains("--depth"));
        assert!(usage_for("perf").contains("--counters-only"));
        assert!(usage_for("report").contains("--json"));
        assert!(usage_for("fleet").contains("--net-csv"));
    }

    #[test]
    fn perf_defaults_parse() {
        let opts = parse_perf(&[]).unwrap();
        assert_eq!(opts, PerfOptions::default());
        assert_eq!(opts.out, "BENCH_ftvod.json");
        assert!(!opts.counters_only);
        assert!((opts.max_wall_ratio - DEFAULT_MAX_WALL_RATIO).abs() < 1e-12);
    }

    #[test]
    fn perf_full_flag_set_parses() {
        let opts = parse_perf(&strings(&[
            "--out",
            "bench.json",
            "--baseline",
            "BENCH_ftvod.json",
            "--rev",
            "abc123",
            "--date",
            "2026-08-07",
            "--counters-only",
            "--flamechart",
            "flame.json",
            "--max-wall-ratio",
            "3.5",
        ]))
        .unwrap();
        assert_eq!(opts.out, "bench.json");
        assert_eq!(opts.baseline.as_deref(), Some("BENCH_ftvod.json"));
        assert_eq!(opts.rev, "abc123");
        assert_eq!(opts.date, "2026-08-07");
        assert!(opts.counters_only);
        assert_eq!(opts.flamechart.as_deref(), Some("flame.json"));
        assert!((opts.max_wall_ratio - 3.5).abs() < 1e-12);
    }

    #[test]
    fn perf_rejects_bad_inputs() {
        assert!(parse_perf(&strings(&["--bogus"])).is_err());
        assert!(parse_perf(&strings(&["--out"])).is_err());
        assert!(parse_perf(&strings(&["--max-wall-ratio", "0.5"])).is_err());
        assert!(parse_perf(&strings(&["--max-wall-ratio", "nan"])).is_err());
    }

    #[test]
    fn net_csv_flag_parses() {
        assert_eq!(
            net_csv_flag(&strings(&["lan", "--net-csv", "net.csv"])),
            Ok(Some("net.csv".to_owned()))
        );
        assert_eq!(net_csv_flag(&strings(&["lan"])), Ok(None));
        assert!(net_csv_flag(&strings(&["lan", "--net-csv"])).is_err());
        let custom = parse_custom(&strings(&["--net-csv", "net.csv"])).unwrap();
        assert_eq!(custom.net_csv.as_deref(), Some("net.csv"));
        let fleet = parse_fleet(&strings(&["--net-csv", "net.csv"])).unwrap();
        assert_eq!(fleet.net_csv.as_deref(), Some("net.csv"));
    }

    #[test]
    fn help_flags_are_detected() {
        assert!(wants_help(&strings(&["--servers", "4", "--help"])));
        assert!(wants_help(&strings(&["-h"])));
        assert!(!wants_help(&strings(&["--servers", "4"])));
    }
}
