//! The traced run: the deployment wired from the public constructors, each
//! process wrapped in [`Timed`], which times its handlers from outside and
//! files the time under a fixed layer key.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use ftvod_core::{
    ClientId, ClientStats, Replica, ServerStats, TraceHandle, VcrOp, VodClient, VodEvent,
    VodServer, VodWire, WatchRequest,
};
use simnet::{Context, Endpoint, NodeId, Payload, Process, SimTime, Simulation, Timer};

use crate::workloads::Deployment;

/// Layer keys a handler call is filed under. Each names the module whose
/// work the call does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Key {
    GcsHb,
    GcsCtl,
    ServerVideo,
    ServerSync,
    ServerFlow,
    ServerCtl,
    ServerOther,
    ClientVideo,
    ClientDisplay,
    ClientSample,
    ClientRetry,
    ClientOther,
}

/// Every key with its metric prefix, in report order.
pub const KEYS: [&str; 12] = [
    "gcs.hb",
    "gcs.ctl",
    "server.video",
    "server.sync",
    "server.flow",
    "server.ctl",
    "server.other",
    "client.video",
    "client.display",
    "client.sample",
    "client.retry",
    "client.other",
];

/// Keys every workload exercises: a run that files no call under one of
/// them fails, which catches the timer tags below going stale.
pub const REQUIRED_KEYS: [&str; 8] = [
    "gcs.hb",
    "gcs.ctl",
    "server.video",
    "server.sync",
    "server.flow",
    "client.video",
    "client.display",
    "client.sample",
];

// Timer tags of `VodServer` (low byte) and `VodClient`. They copy the
// private `tag` modules of `crates/core/src/{server,client}/mod.rs`, which
// the crates do not export; if those are renumbered, handler time is filed
// under the wrong key. `REQUIRED_KEYS` turns the likely case, a tag that
// no longer matches and lands under `*.other`, into a failed run.
const GCS_TICK: u64 = 1;
const SERVER_SYNC: u64 = 2;
const SERVER_SEND: u64 = 3;
const CLIENT_DISPLAY: u64 = 2;
const CLIENT_SAMPLE: u64 = 3;
const CLIENT_OPEN_RETRY: u64 = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    Server,
    Client,
}

impl Role {
    fn datagram_key(self, class: &str) -> Key {
        match (self, class) {
            (_, "gcs-hb") => Key::GcsHb,
            (_, "gcs-ctl") => Key::GcsCtl,
            (Role::Server, "vod-sync") => Key::ServerSync,
            (Role::Server, "vod-flow") => Key::ServerFlow,
            (Role::Server, "vod-ctl") => Key::ServerCtl,
            (Role::Server, _) => Key::ServerOther,
            (Role::Client, "video") => Key::ClientVideo,
            (Role::Client, _) => Key::ClientOther,
        }
    }

    fn timer_key(self, tag: u64) -> Key {
        match self {
            Role::Server => match tag & 0xFF {
                GCS_TICK => Key::GcsHb,
                SERVER_SYNC => Key::ServerSync,
                SERVER_SEND => Key::ServerVideo,
                _ => Key::ServerOther,
            },
            Role::Client => match tag {
                GCS_TICK => Key::GcsHb,
                CLIENT_DISPLAY => Key::ClientDisplay,
                CLIENT_SAMPLE => Key::ClientSample,
                CLIENT_OPEN_RETRY => Key::ClientRetry,
                _ => Key::ClientOther,
            },
        }
    }

    fn start_key(self) -> Key {
        match self {
            Role::Server => Key::ServerOther,
            Role::Client => Key::ClientOther,
        }
    }
}

/// Host nanoseconds and calls per layer key, shared by every wrapper of
/// one simulation.
#[derive(Debug, Default)]
pub struct Clock {
    ns: [Cell<u64>; KEYS.len()],
    calls: [Cell<u64>; KEYS.len()],
}

impl Clock {
    fn charge(&self, key: Key, since: Instant) {
        let i = key as usize;
        self.ns[i].set(self.ns[i].get() + since.elapsed().as_nanos() as u64);
        self.calls[i].set(self.calls[i].get() + 1);
    }

    /// `(seconds, calls)` per key, in [`KEYS`] order.
    pub fn totals(&self) -> Vec<(f64, u64)> {
        (0..KEYS.len())
            .map(|i| (self.ns[i].get() as f64 * 1e-9, self.calls[i].get()))
            .collect()
    }
}

/// A process whose handlers are timed into a shared [`Clock`].
struct Timed<P> {
    inner: P,
    role: Role,
    clock: Rc<Clock>,
}

impl<P> Timed<P> {
    fn new(inner: P, role: Role, clock: &Rc<Clock>) -> Self {
        Timed {
            inner,
            role,
            clock: Rc::clone(clock),
        }
    }
}

impl<P: Process<VodWire>> Process<VodWire> for Timed<P> {
    fn on_start(&mut self, ctx: &mut Context<'_, VodWire>) {
        let t = Instant::now();
        self.inner.on_start(ctx);
        self.clock.charge(self.role.start_key(), t);
    }

    fn on_datagram(
        &mut self,
        ctx: &mut Context<'_, VodWire>,
        from: Endpoint,
        to: Endpoint,
        msg: VodWire,
    ) {
        let key = self.role.datagram_key(msg.class());
        let t = Instant::now();
        self.inner.on_datagram(ctx, from, to, msg);
        self.clock.charge(key, t);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, VodWire>, timer: Timer) {
        let key = self.role.timer_key(timer.tag);
        let t = Instant::now();
        self.inner.on_timer(ctx, timer);
        self.clock.charge(key, t);
    }
}

/// A deployment built with timed processes, driven like `VodSim`.
pub struct TracedSim {
    sim: Simulation<VodWire>,
    clients: BTreeMap<ClientId, NodeId>,
    script: Vec<(SimTime, ClientId, VcrOp)>,
    next_script: usize,
    trace: TraceHandle,
    clock: Rc<Clock>,
}

impl TracedSim {
    /// Wires `d` the way `ScenarioBuilder::build` does, in the same order,
    /// with every process wrapped in [`Timed`] and engine profiling on.
    pub fn build(d: &Deployment) -> TracedSim {
        let clock = Rc::new(Clock::default());
        let mut sim: Simulation<VodWire> = Simulation::new(d.seed);
        sim.set_default_profile(simnet::LinkProfile::lan());
        if let Some(topology) = &d.topology {
            sim.set_topology(topology.clone());
        }
        let trace = d
            .record
            .map_or_else(TraceHandle::disabled, TraceHandle::recording);
        if trace.is_enabled() {
            let handle = trace.clone();
            sim.set_tracer(move |event| handle.emit(|| VodEvent::from_net(event)));
        }
        sim.enable_profiling();
        let universe: Vec<NodeId> = d
            .servers
            .iter()
            .copied()
            .chain(d.movies.iter().flat_map(|(_, h)| h.iter().copied()))
            .chain(d.faults.restarts.iter().map(|&(_, n)| n))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let catalog: Vec<Arc<media::Movie>> = d.movies.iter().map(|(m, _)| Arc::clone(m)).collect();
        let server = |node: NodeId| {
            let replicas = d
                .movies
                .iter()
                .filter(|(_, holders)| holders.contains(&node))
                .map(|(movie, holders)| Replica {
                    movie: Arc::clone(movie),
                    holders: holders.clone(),
                })
                .collect();
            VodServer::new(d.cfg.clone(), node, universe.clone(), replicas)
                .with_catalog(catalog.iter().cloned())
                .with_trace(trace.clone())
        };
        for &node in &d.servers {
            sim.add_node(node, Timed::new(server(node), Role::Server, &clock));
        }
        for &(at, node) in &d.faults.crashes {
            sim.crash_at(at, node);
        }
        for &(at, node) in &d.faults.restarts {
            sim.restart_at(
                at,
                node,
                Timed::new(server(node).with_rejoin(), Role::Server, &clock),
            );
        }
        for (at, a, b) in &d.faults.partitions {
            sim.partition_at(*at, a, b);
        }
        for (at, a, b) in &d.faults.heals {
            sim.heal_at(*at, a, b);
        }
        for (at, profile) in &d.faults.profile_changes {
            sim.set_default_profile_at(*at, profile.clone());
        }
        for (at, a, b, profile) in &d.faults.link_overrides {
            sim.set_link_overrides_at(*at, a, b, profile.clone());
        }
        if let Some(multidc) = &d.cfg.multidc {
            let map = &multidc.map;
            for site in 0..map.site_count() {
                trace.emit(|| VodEvent::SiteDefined {
                    at: SimTime::ZERO,
                    site: site as u32,
                    name: map.site_name(site).unwrap_or_default().to_string(),
                    servers: map.servers(site).unwrap_or_default().to_vec(),
                    clients: map.client_nodes(site).unwrap_or_default().to_vec(),
                });
            }
        }
        let mut clients = BTreeMap::new();
        let mut script = Vec::new();
        for session in &d.plan.sessions {
            let (movie, _) = d
                .movies
                .iter()
                .find(|(m, _)| m.id() == session.movie)
                .expect("plan only names catalog movies");
            let client = VodClient::new(
                d.cfg.clone(),
                session.client,
                session.node,
                universe.clone(),
                WatchRequest::full_quality(movie),
            )
            .with_trace(trace.clone())
            .with_retry_seed(d.seed);
            sim.start_node_at(
                session.start,
                session.node,
                Timed::new(client, Role::Client, &clock),
            );
            clients.insert(session.client, session.node);
            script.extend(session.vcr.iter().map(|v| (v.at, session.client, v.op)));
        }
        script.sort_by_key(|&(at, _, _)| at);
        TracedSim {
            sim,
            clients,
            script,
            next_script: 0,
            trace,
            clock,
        }
    }

    /// Runs the simulation and the VCR script up to `until`.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(&(at, client, op)) = self.script.get(self.next_script) {
            if at > until {
                break;
            }
            self.next_script += 1;
            self.sim.run_until(at);
            let Some(&node) = self.clients.get(&client) else {
                continue;
            };
            self.sim
                .invoke(node, |c: &mut Timed<VodClient>, ctx| match op {
                    VcrOp::Pause => c.inner.pause(ctx),
                    VcrOp::Resume => c.inner.resume(ctx),
                    VcrOp::Seek(position) => c.inner.seek(ctx, position),
                    VcrOp::SetQuality(fps) => c.inner.set_quality(ctx, fps),
                    VcrOp::SetSpeed(percent) => c.inner.set_speed(ctx, percent),
                    VcrOp::Stop => c.inner.stop(ctx),
                });
        }
        self.sim.run_until(until);
    }

    /// The statistics of `client`.
    pub fn client_stats(&self, client: ClientId) -> Option<ClientStats> {
        let node = self.clients.get(&client)?;
        self.sim
            .with_process(*node, |c: &Timed<VodClient>| c.inner.stats().clone())
    }

    /// The statistics of the server on `node`.
    pub fn server_stats(&self, node: NodeId) -> Option<ServerStats> {
        self.sim
            .with_process(node, |s: &Timed<VodServer>| s.inner.stats().clone())
    }

    /// The underlying simulation (network counters, engine profile).
    pub fn sim(&self) -> &Simulation<VodWire> {
        &self.sim
    }

    /// The trace handle (disabled unless the deployment records).
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// Handler time per layer key.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }
}
