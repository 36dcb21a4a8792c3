//! The three benchmark workloads. Each is set up twice over: once through
//! the repository's own builders (`fleet_builder_with_config`,
//! `ChaosPlan::apply`, `multidc_builder`, `ScenarioBuilder::build`) for the
//! untraced run, and once as a plain [`Deployment`] that the traced run
//! wires from the public process constructors. The equivalence gate in
//! `main` checks that both produce the same simulation.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ftvod_core::{
    fleet_builder_with_config, fleet_config, multidc_builder, multidc_profile, ChaosFault,
    ChaosPlan, ChaosProfile, FailoverMode, FleetPlan, FleetProfile, MultiDcConfig, PolicyKind,
    ReplicationConfig, SiteMap, VodConfig, VodSim, MULTIDC_FAULT_AT, MULTIDC_HEAL_AT,
};
use media::{Movie, MovieId, MovieSpec};
use simnet::{LinkProfile, NodeId, SimTime, SiteTopology};

/// Ring capacity of recorded workloads: room for every event of a run,
/// so the oracle never judges a truncated trace.
pub const RING_CAPACITY: usize = 1 << 20;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 768 sessions on 8 servers: data plane and engine cost per event.
    FleetScale,
    /// The chaos fixture at 96 sessions, recorded and oracle-checked.
    ChaosCampaign,
    /// The two-site failover fixture, recorded and oracle-checked.
    MultidcFailover,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::FleetScale,
        Workload::ChaosCampaign,
        Workload::MultidcFailover,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetScale => "fleet_scale",
            Workload::ChaosCampaign => "chaos_campaign",
            Workload::MultidcFailover => "multidc_failover",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Consecutive simulation seeds one pass runs.
    fn seeds_per_pass(self) -> u64 {
        match self {
            Workload::FleetScale => 4,
            Workload::ChaosCampaign => 16,
            Workload::MultidcFailover => 24,
        }
    }

    /// The simulation seeds of benchmark seed `seed`: disjoint blocks of
    /// consecutive seeds, so seed 0 of `chaos_campaign` replays
    /// `ftvod-cli chaos --clients 96 --seed 1 --seeds 16`.
    pub fn sim_seeds(self, seed: u64) -> Vec<u64> {
        let k = self.seeds_per_pass();
        let base = seed.wrapping_mul(k).wrapping_add(1);
        (0..k).map(|i| base.wrapping_add(i)).collect()
    }

    /// Whether the workload records its events for the oracle and
    /// `RunReport`.
    pub fn recorded(self) -> bool {
        self != Workload::FleetScale
    }

    /// The fleet profile the workload's sessions are drawn from.
    pub fn profile(self) -> FleetProfile {
        match self {
            Workload::FleetScale => {
                // `ftvod-cli fleet --servers 8 --movies 12 --clients 768`.
                let mut p = FleetProfile::small_fleet();
                p.servers = 8;
                p.clients = 768;
                p.catalog_size = 12;
                p.zipf_exponent = 1.1;
                p.sessions_per_server = Some((p.clients * 3 / 2).div_ceil(p.servers).max(1));
                p
            }
            Workload::ChaosCampaign => {
                // `ftvod-cli chaos --clients 96`.
                let mut p = FleetProfile::small_fleet();
                p.clients = 96;
                p.catalog_size = 4;
                p.initial_replicas = 2;
                p.arrival_window = Duration::from_secs(15);
                p
            }
            Workload::MultidcFailover => multidc_profile(),
        }
    }

    /// The simulated time each run ends at.
    pub fn end(self) -> SimTime {
        let profile = self.profile();
        match self {
            Workload::ChaosCampaign => {
                SimTime::from_secs_f64(profile.run_until().as_secs_f64().max(75.0))
            }
            _ => profile.run_until(),
        }
    }

    /// The service configuration (the multi-site one included).
    fn config(self) -> VodConfig {
        let profile = self.profile();
        match self {
            Workload::FleetScale => {
                fleet_config(&profile, Some(ReplicationConfig::paper_default()))
                    .with_placement(PolicyKind::Reactive)
            }
            Workload::ChaosCampaign => {
                let mut cfg = VodConfig::paper_default()
                    .with_sync_interval(Duration::from_millis(500))
                    .with_dynamic_replication(ReplicationConfig::paper_default());
                if let Some(cap) = profile.sessions_per_server {
                    cfg = cfg.with_session_cap(cap);
                }
                cfg
            }
            Workload::MultidcFailover => fleet_config(&profile, None).with_multidc(
                MultiDcConfig::new(sites().0).with_mode(FailoverMode::RemoteDegraded),
            ),
        }
    }

    /// Sets seed `seed` up through the repository's builders. Returns the
    /// runnable simulation, its session plan and the plan and build times.
    pub fn setup(self, seed: u64, record: bool) -> Setup {
        let started = Instant::now();
        let (mut builder, plan) = match self {
            Workload::FleetScale | Workload::ChaosCampaign => {
                fleet_builder_with_config(&self.profile(), seed, self.config())
            }
            Workload::MultidcFailover => multidc_builder(seed, FailoverMode::RemoteDegraded),
        };
        if self == Workload::ChaosCampaign {
            chaos_plan(&self.profile(), seed).apply(&mut builder, &LinkProfile::lan());
        }
        if record {
            builder.record_events(RING_CAPACITY);
        }
        let planned = Instant::now();
        let sim = builder.build();
        Setup {
            sim,
            plan,
            plan_s: planned.duration_since(started).as_secs_f64(),
            build_s: planned.elapsed().as_secs_f64(),
        }
    }

    /// The same deployment as [`Workload::setup`], as plain data.
    pub fn deployment(self, seed: u64) -> Deployment {
        let profile = self.profile();
        let plan = FleetPlan::generate(&profile, seed);
        let servers = profile.server_nodes();
        let spec = MovieSpec::paper_default().with_duration(profile.movie_len);
        let replicas = (profile.initial_replicas.max(1) as usize).min(servers.len());
        let movies = (0..profile.catalog_size)
            .map(|m| {
                let holders = (0..replicas)
                    .map(|r| servers[(m as usize + r) % servers.len()])
                    .collect();
                (Arc::new(Movie::generate(MovieId(1 + m), &spec)), holders)
            })
            .collect();
        let mut d = Deployment {
            seed,
            cfg: self.config(),
            topology: None,
            movies,
            servers,
            plan,
            faults: Faults::default(),
            record: self.recorded().then_some(RING_CAPACITY),
        };
        match self {
            Workload::FleetScale => {}
            Workload::ChaosCampaign => d.faults.compile(&chaos_plan(&profile, seed)),
            Workload::MultidcFailover => {
                let (_, topology, east) = sites();
                d.topology = Some(topology);
                let fault = SimTime::ZERO + MULTIDC_FAULT_AT;
                let heal = SimTime::ZERO + MULTIDC_HEAL_AT;
                for node in east {
                    d.faults.crashes.push((fault, node));
                    d.faults.restarts.push((heal, node));
                }
            }
        }
        d
    }
}

/// A simulation built by the repository's builders, with its setup times.
pub struct Setup {
    /// The runnable simulation.
    pub sim: VodSim,
    /// Its planned sessions.
    pub plan: FleetPlan,
    /// Host seconds generating the plans and filling the builder.
    pub plan_s: f64,
    /// Host seconds in `ScenarioBuilder::build`.
    pub build_s: f64,
}

fn chaos_plan(profile: &FleetProfile, seed: u64) -> ChaosPlan {
    ChaosPlan::generate(
        &ChaosProfile::default_campaign(),
        &profile.server_nodes(),
        seed,
    )
}

/// The two-site layout of `multidc_builder`: the service's site map, the
/// network topology and the east servers that crash.
fn sites() -> (SiteMap, SiteTopology, [NodeId; 2]) {
    let profile = multidc_profile();
    let east_servers = [NodeId(1), NodeId(2)];
    let west_servers = [NodeId(3), NodeId(4)];
    let (east_clients, west_clients): (Vec<NodeId>, Vec<NodeId>) = (0..profile.clients)
        .map(|i| NodeId(1000 + i))
        .partition(|n| n.0 % 2 == 0);
    let mut map = SiteMap::new();
    let east = map.add_site("east", &east_servers);
    let west = map.add_site("west", &west_servers);
    map.home_clients(east, &east_clients);
    map.home_clients(west, &west_clients);
    let mut topo = SiteTopology::new(LinkProfile::lan(), LinkProfile::wan());
    let t_east = topo.add_site("east", &east_servers);
    let t_west = topo.add_site("west", &west_servers);
    topo.home_nodes(t_east, &east_clients);
    topo.home_nodes(t_west, &west_clients);
    (map, topo, east_servers)
}

/// A scheduled override of the links between two node sets; `None`
/// restores the topology's profile.
type LinkOverride = (SimTime, Vec<NodeId>, Vec<NodeId>, Option<LinkProfile>);

/// Scheduled fault events, in the order `ScenarioBuilder` stores them.
#[derive(Clone, Debug, Default)]
pub struct Faults {
    pub crashes: Vec<(SimTime, NodeId)>,
    pub restarts: Vec<(SimTime, NodeId)>,
    pub partitions: Vec<(SimTime, Vec<NodeId>, Vec<NodeId>)>,
    pub heals: Vec<(SimTime, Vec<NodeId>, Vec<NodeId>)>,
    pub profile_changes: Vec<(SimTime, LinkProfile)>,
    pub link_overrides: Vec<LinkOverride>,
}

impl Faults {
    /// Mirrors `ChaosPlan::apply` on a LAN base profile.
    fn compile(&mut self, plan: &ChaosPlan) {
        let normal = LinkProfile::lan();
        let degraded = ChaosPlan::degraded_profile(&normal);
        for fault in &plan.faults {
            match fault {
                ChaosFault::CrashRestart {
                    at,
                    node,
                    restart_at,
                } => {
                    self.crashes.push((*at, *node));
                    self.restarts.push((*restart_at, *node));
                }
                ChaosFault::Partition { at, a, b, heal_at }
                | ChaosFault::SitePartition {
                    at, a, b, heal_at, ..
                } => {
                    self.partitions.push((*at, a.clone(), b.clone()));
                    self.heals.push((*heal_at, a.clone(), b.clone()));
                }
                ChaosFault::Burst { at, until } => {
                    self.profile_changes.push((*at, degraded.clone()));
                    self.profile_changes.push((*until, normal.clone()));
                }
                ChaosFault::WanDegrade {
                    at, a, b, heal_at, ..
                } => {
                    let brownout = ChaosPlan::brownout_profile();
                    self.link_overrides
                        .push((*at, a.clone(), b.clone(), Some(brownout)));
                    self.link_overrides
                        .push((*heal_at, a.clone(), b.clone(), None));
                }
                ChaosFault::SiteCrash {
                    at,
                    servers,
                    restart_at,
                    ..
                } => {
                    for &node in servers {
                        self.crashes.push((*at, node));
                        self.restarts.push((*restart_at, node));
                    }
                }
            }
        }
    }
}

/// Everything a simulation is built from, as plain data.
#[derive(Clone, Debug)]
pub struct Deployment {
    /// Simulation seed.
    pub seed: u64,
    /// Service configuration.
    pub cfg: VodConfig,
    /// Site topology, if the deployment spans sites.
    pub topology: Option<SiteTopology>,
    /// Movies in id order, with their initial holders.
    pub movies: Vec<(Arc<Movie>, Vec<NodeId>)>,
    /// Servers booted at time zero, in id order.
    pub servers: Vec<NodeId>,
    /// Sessions and their VCR scripts.
    pub plan: FleetPlan,
    /// Scheduled faults.
    pub faults: Faults,
    /// Trace ring capacity, when recorded.
    pub record: Option<usize>,
}
