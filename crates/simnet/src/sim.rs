//! The discrete-event simulation engine.
//!
//! [`Simulation`] owns the event queue, the simulated hosts and the network
//! model. It is fully deterministic: given the same seed and the same
//! sequence of API calls, two runs produce identical event orders, identical
//! random draws and therefore identical results — the property that makes
//! every figure in the experiment harness exactly reproducible.

use std::time::{Duration, Instant};

use crate::hash::{FastMap, FastSet};
use crate::net::{Endpoint, LinkProfile, NodeId, Payload};
use crate::process::{AnyProcess, Context, Effect, Process, Timer, TimerId};
use crate::profile::SimProfile;
use crate::queue::EventQueue;
use crate::rng::SimRng;
use crate::stats::NetStats;
use crate::time::SimTime;
use crate::topo::SiteTopology;

/// Why a datagram never reached its destination process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropReason {
    /// The random loss model dropped it.
    Loss,
    /// Source and destination were partitioned.
    Partition,
    /// The destination node was crashed or absent.
    DeadNode,
}

impl DropReason {
    /// Stable lower-snake-case name, used by CSV and JSONL exports.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::Loss => "loss",
            DropReason::Partition => "partition",
            DropReason::DeadNode => "dead_node",
        }
    }
}

/// A structured observability event, delivered to the tracer installed
/// with [`Simulation::set_tracer`]. Tracing is entirely passive: it cannot
/// affect the run.
#[derive(Clone, Debug)]
pub enum TraceEvent {
    /// A datagram was submitted to the network.
    Sent {
        /// Simulated time of the send.
        at: SimTime,
        /// Source endpoint.
        from: Endpoint,
        /// Destination endpoint.
        to: Endpoint,
        /// Traffic class of the payload.
        class: &'static str,
        /// Payload size in bytes.
        bytes: usize,
    },
    /// A datagram reached a live destination process.
    Delivered {
        /// Simulated time of the delivery.
        at: SimTime,
        /// Simulated time at which the datagram was submitted to the
        /// network (so `at - sent_at` is the end-to-end latency, including
        /// serialization, propagation and reordering).
        sent_at: SimTime,
        /// Source endpoint.
        from: Endpoint,
        /// Destination endpoint.
        to: Endpoint,
        /// Traffic class of the payload.
        class: &'static str,
    },
    /// A datagram was dropped.
    Dropped {
        /// Simulated time of the drop decision.
        at: SimTime,
        /// Source endpoint.
        from: Endpoint,
        /// Destination endpoint.
        to: Endpoint,
        /// Traffic class of the payload.
        class: &'static str,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// A node booted (its `on_start` is about to run).
    NodeStarted {
        /// Simulated time of the boot.
        at: SimTime,
        /// The node.
        node: NodeId,
    },
    /// A node crashed.
    NodeCrashed {
        /// Simulated time of the crash.
        at: SimTime,
        /// The node.
        node: NodeId,
    },
    /// A previously crashed node booted again (repair): its `on_start` is
    /// about to run on a fresh process. Emitted instead of
    /// [`TraceEvent::NodeStarted`] when the node had crashed before.
    NodeRestarted {
        /// Simulated time of the reboot.
        at: SimTime,
        /// The node.
        node: NodeId,
    },
    /// A partition came up between two sets of nodes.
    Partitioned {
        /// Simulated time the partition took effect.
        at: SimTime,
        /// One side of the cut.
        a: Vec<NodeId>,
        /// The other side of the cut.
        b: Vec<NodeId>,
    },
    /// A partition was healed. Empty node lists mean *all* partitions were
    /// removed at once ([`Simulation::heal_all_at`]).
    Healed {
        /// Simulated time the heal took effect.
        at: SimTime,
        /// One side of the former cut.
        a: Vec<NodeId>,
        /// The other side of the former cut.
        b: Vec<NodeId>,
    },
    /// Per-link profile overrides between two node sets were installed
    /// (`degraded = true`) or removed (`degraded = false`) — the WAN
    /// brownout/restore primitive of
    /// [`Simulation::set_link_overrides_at`].
    LinkOverride {
        /// Simulated time the change took effect.
        at: SimTime,
        /// One side of the affected links.
        a: Vec<NodeId>,
        /// The other side of the affected links.
        b: Vec<NodeId>,
        /// Whether overrides were installed (`true`) or cleared (`false`).
        degraded: bool,
    },
}

type Tracer = Box<dyn FnMut(&TraceEvent)>;

/// Index of a node in the dense node table.
type NodeIx = u32;

/// A scheduled event. Datagrams and timers carry their node's dense
/// index, resolved once when they are sent or armed, and a datagram its
/// class's index into [`NetStats`]. Boots and crashes, scheduled by the
/// harness while it builds a run, resolve their node when they fire, so
/// building a run does no table work.
enum EventKind<M: Payload> {
    Deliver {
        from: Endpoint,
        to: Endpoint,
        dst: NodeIx,
        class: usize,
        sent_at: SimTime,
        msg: M,
    },
    Timer {
        node: NodeIx,
        id: TimerId,
        tag: u64,
    },
    Start {
        node: NodeId,
        process: Box<dyn AnyProcess<M>>,
    },
    Crash {
        node: NodeId,
    },
    Partition {
        a: Vec<NodeId>,
        b: Vec<NodeId>,
    },
    Heal {
        a: Vec<NodeId>,
        b: Vec<NodeId>,
    },
    HealAll,
    // The two profile events are rare and a `LinkProfile` is large: boxed,
    // they stay no larger than a datagram, which sets the slab slot size.
    SetDefaultProfile {
        profile: Box<LinkProfile>,
    },
    SetLinkOverrides {
        a: Vec<NodeId>,
        b: Vec<NodeId>,
        profile: Option<Box<LinkProfile>>,
    },
}

/// One entry of the dense node table: everything the engine keeps per
/// node, reached by index on every event.
struct NodeSlot<M: Payload> {
    id: NodeId,
    /// The node's process; `None` until its first boot (and, briefly,
    /// while one of its handlers runs).
    process: Option<Box<dyn AnyProcess<M>>>,
    alive: bool,
    /// Crashed and not restarted since; lets the tracer distinguish a
    /// first boot from a post-crash repair.
    crashed: bool,
    /// When the node's NIC finishes serializing what it has already
    /// queued; only links with a bandwidth touch it.
    egress_busy: SimTime,
}

/// A deterministic discrete-event simulation of a set of communicating
/// processes.
///
/// # Examples
///
/// ```
/// use simnet::{Context, Endpoint, NodeId, Payload, Port, Process, Simulation, SimTime, Timer};
///
/// #[derive(Clone, Debug)]
/// struct Ping;
/// impl Payload for Ping {
///     fn size_bytes(&self) -> usize { 8 }
/// }
///
/// #[derive(Default)]
/// struct Counter { received: u32 }
/// impl Process<Ping> for Counter {
///     fn on_datagram(&mut self, _ctx: &mut Context<'_, Ping>, _from: Endpoint,
///                    _to: Endpoint, _msg: Ping) {
///         self.received += 1;
///     }
///     fn on_timer(&mut self, _ctx: &mut Context<'_, Ping>, _t: Timer) {}
/// }
///
/// struct Sender;
/// impl Process<Ping> for Sender {
///     fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
///         ctx.send(Port(1), Endpoint::new(NodeId(2), Port(1)), Ping);
///     }
///     fn on_datagram(&mut self, _: &mut Context<'_, Ping>, _: Endpoint, _: Endpoint, _: Ping) {}
///     fn on_timer(&mut self, _: &mut Context<'_, Ping>, _: Timer) {}
/// }
///
/// let mut sim = Simulation::new(42);
/// sim.add_node(NodeId(1), Sender);
/// sim.add_node(NodeId(2), Counter::default());
/// sim.run_until(SimTime::from_secs(1));
/// let received = sim.with_process(NodeId(2), |c: &Counter| c.received).unwrap();
/// assert_eq!(received, 1);
/// ```
pub struct Simulation<M: Payload> {
    now: SimTime,
    queue: EventQueue<EventKind<M>>,
    /// The dense node table: a slot per node id ever named to the engine
    /// (booted, crashed or sent to), in first-seen order.
    nodes: Vec<NodeSlot<M>>,
    /// Node id to its index in `nodes`; grows with the number of distinct
    /// ids, never with their magnitude.
    node_index: FastMap<NodeId, NodeIx>,
    default_profile: LinkProfile,
    topology: Option<SiteTopology>,
    overrides: FastMap<(NodeId, NodeId), LinkProfile>,
    /// Directed pairs severed by active partitions, with a count per
    /// pair: overlapping partitions may cut the same link, and healing
    /// one must not reopen a pair the other still severs.
    blocked: FastMap<(NodeId, NodeId), u32>,
    /// Gilbert–Elliott state per directed link: `true` while the link is in
    /// the bad (bursty) state. Only touched when a profile sets `burst`.
    burst_bad: FastMap<(NodeId, NodeId), bool>,
    rng: SimRng,
    /// Ids of cancelled timers that have not been popped yet (plus any
    /// cancelled after they fired, which never match again). Almost always
    /// empty, so the check on a timer pop is usually one branch.
    cancelled: FastSet<u64>,
    next_timer_id: u64,
    stats: NetStats,
    effects: Vec<Effect<M>>,
    tracer: Option<Tracer>,
    /// Hot-path cost accounting; `None` (the default) means every
    /// profiling update in the engine is skipped entirely.
    profile: Option<SimProfile>,
}

impl<M: Payload> Simulation<M> {
    /// Creates an empty simulation seeded with `seed`.
    ///
    /// All randomness (link jitter, loss, application draws through
    /// [`Context::rng`]) derives from this seed.
    pub fn new(seed: u64) -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: EventQueue::default(),
            nodes: Vec::new(),
            node_index: FastMap::default(),
            default_profile: LinkProfile::ideal(),
            topology: None,
            overrides: FastMap::default(),
            blocked: FastMap::default(),
            burst_bad: FastMap::default(),
            rng: SimRng::seed_from_u64(seed),
            cancelled: FastSet::default(),
            next_timer_id: 0,
            stats: NetStats::new(),
            effects: Vec::new(),
            tracer: None,
            profile: None,
        }
    }

    /// Turns on hot-path cost accounting. Counters start from zero at the
    /// moment of the call; profiling is passive and cannot change the run
    /// (it touches no RNG, timers or messages — only its own counters and
    /// host wall-clock reads).
    pub fn enable_profiling(&mut self) {
        self.profile = Some(SimProfile::default());
    }

    /// The accumulated hot-path profile, or `None` when profiling was
    /// never enabled.
    pub fn profile(&self) -> Option<&SimProfile> {
        self.profile.as_ref()
    }

    /// Installs a tracer receiving a [`TraceEvent`] for every send,
    /// delivery, drop, boot and crash. Pass a closure appending to a log,
    /// printing, or counting — tracing is passive and does not perturb the
    /// run.
    pub fn set_tracer(&mut self, tracer: impl FnMut(&TraceEvent) + 'static) {
        self.tracer = Some(Box::new(tracer));
    }

    /// Removes the installed tracer.
    pub fn clear_tracer(&mut self) {
        self.tracer = None;
    }

    fn trace(&mut self, event: TraceEvent) {
        if let Some(tracer) = self.tracer.as_mut() {
            tracer(&event);
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Network traffic counters accumulated so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Sets the profile used for every link without an explicit override.
    pub fn set_default_profile(&mut self, profile: LinkProfile) {
        self.default_profile = profile;
    }

    /// Overrides the profile of the directed link `from → to`.
    pub fn set_link_profile(&mut self, from: NodeId, to: NodeId, profile: LinkProfile) {
        self.overrides.insert((from, to), profile);
    }

    /// Overrides the profile of both directions between `a` and `b`.
    pub fn set_link_profile_sym(&mut self, a: NodeId, b: NodeId, profile: LinkProfile) {
        self.overrides.insert((a, b), profile.clone());
        self.overrides.insert((b, a), profile);
    }

    /// Installs a multi-site topology: links between nodes of the same
    /// site use the topology's LAN profile, cross-site links its WAN
    /// profile. Explicit per-link overrides still win; nodes outside any
    /// site fall back to the LAN profile.
    pub fn set_topology(&mut self, topology: SiteTopology) {
        self.topology = Some(topology);
    }

    /// The installed topology, if any.
    pub fn topology(&self) -> Option<&SiteTopology> {
        self.topology.as_ref()
    }

    /// Schedules a symmetric per-link profile override between every node
    /// in `a` and every node in `b` at time `at`. `Some(profile)` installs
    /// the override (e.g. a WAN brownout profile); `None` removes the
    /// overrides, restoring whatever the topology or default profile
    /// dictates. The tracer sees [`TraceEvent::LinkOverride`].
    pub fn set_link_overrides_at(
        &mut self,
        at: SimTime,
        a: &[NodeId],
        b: &[NodeId],
        profile: Option<LinkProfile>,
    ) {
        self.schedule(
            at,
            EventKind::SetLinkOverrides {
                a: a.to_vec(),
                b: b.to_vec(),
                profile: profile.map(Box::new),
            },
        );
    }

    /// Boots `process` on node `id` at the current time.
    ///
    /// # Panics
    ///
    /// Panics if a live process already occupies `id`.
    pub fn add_node(&mut self, id: NodeId, process: impl Process<M>) {
        assert!(!self.is_alive(id), "node {id} already has a live process");
        self.start_node_at(self.now, id, process);
    }

    /// Schedules `process` to boot on node `id` at time `at` (the paper's
    /// "a new server may be brought up on the fly").
    pub fn start_node_at(&mut self, at: SimTime, id: NodeId, process: impl Process<M>) {
        let process: Box<dyn AnyProcess<M>> = Box::new(process);
        self.schedule(at, EventKind::Start { node: id, process });
    }

    /// Schedules a crash of node `id` at time `at`: the process stops
    /// receiving events, but its final state remains inspectable through
    /// [`Simulation::with_process`]. Messages already in flight *from* the
    /// node are still delivered (they left the NIC before the crash).
    pub fn crash_at(&mut self, at: SimTime, id: NodeId) {
        self.schedule(at, EventKind::Crash { node: id });
    }

    /// Schedules a fresh `process` to boot on the previously crashed node
    /// `id` at time `at` — the repair side of the crash/repair cycle. The
    /// replacement process starts from its initial state (a real machine
    /// reboot loses volatile memory); the tracer sees
    /// [`TraceEvent::NodeRestarted`] instead of `NodeStarted` when the node
    /// had crashed before.
    pub fn restart_at(&mut self, at: SimTime, id: NodeId, process: impl Process<M>) {
        self.start_node_at(at, id, process);
    }

    /// Schedules a replacement of the default link profile at time `at`
    /// (link overrides are untouched). Chaos campaigns use a pair of these
    /// to model a transient network degradation: degrade at `t`, restore
    /// the base profile at `t + duration`.
    pub fn set_default_profile_at(&mut self, at: SimTime, profile: LinkProfile) {
        self.schedule(
            at,
            EventKind::SetDefaultProfile {
                profile: Box::new(profile),
            },
        );
    }

    /// Schedules a network partition separating every node in `a` from every
    /// node in `b` (both directions) at time `at`.
    pub fn partition_at(&mut self, at: SimTime, a: &[NodeId], b: &[NodeId]) {
        self.schedule(
            at,
            EventKind::Partition {
                a: a.to_vec(),
                b: b.to_vec(),
            },
        );
    }

    /// Schedules the removal of the partition between `a` and `b` at `at`.
    pub fn heal_at(&mut self, at: SimTime, a: &[NodeId], b: &[NodeId]) {
        self.schedule(
            at,
            EventKind::Heal {
                a: a.to_vec(),
                b: b.to_vec(),
            },
        );
    }

    /// Schedules the removal of *all* partitions at `at`.
    pub fn heal_all_at(&mut self, at: SimTime) {
        self.schedule(at, EventKind::HealAll);
    }

    /// Whether node `id` currently hosts a live process.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.slot(id).is_some_and(|s| s.alive)
    }

    /// The ids of all nodes ever booted, in order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self
            .nodes
            .iter()
            .filter(|s| s.process.is_some())
            .map(|s| s.id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Runs every event scheduled at or before `until`, then advances the
    /// clock to exactly `until`.
    pub fn run_until(&mut self, until: SimTime) {
        let started = self.profile.as_ref().map(|_| Instant::now());
        while let Some((at, kind)) = self.queue.pop_until(until) {
            self.dispatch(at, kind);
        }
        if until > self.now {
            self.now = until;
        }
        if let (Some(profile), Some(started)) = (self.profile.as_mut(), started) {
            profile.dispatch_ns += started.elapsed().as_nanos() as u64;
        }
    }

    /// Runs for `d` of simulated time from the current clock.
    pub fn run_for(&mut self, d: Duration) {
        self.run_until(self.now + d);
    }

    /// Executes a single pending event. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some((at, kind)) => {
                let started = self.profile.as_ref().map(|_| Instant::now());
                self.dispatch(at, kind);
                if let (Some(profile), Some(started)) = (self.profile.as_mut(), started) {
                    profile.dispatch_ns += started.elapsed().as_nanos() as u64;
                }
                true
            }
            None => false,
        }
    }

    /// Borrows the process on `node` as concrete type `T`.
    ///
    /// Returns `None` if the node does not exist or hosts a different type.
    /// Works on crashed nodes too (post-mortem inspection).
    pub fn with_process<T: 'static, R>(&self, node: NodeId, f: impl FnOnce(&T) -> R) -> Option<R> {
        self.slot(node)?
            .process
            .as_ref()
            .and_then(|p| p.as_any().downcast_ref::<T>())
            .map(f)
    }

    /// Mutably borrows the process on `node` as concrete type `T`, without a
    /// [`Context`]: use this for passive inspection or test-only tweaks. To
    /// drive a process (e.g. issue a VCR command that must send messages),
    /// use [`Simulation::invoke`].
    pub fn with_process_mut<T: 'static, R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut T) -> R,
    ) -> Option<R> {
        let ix = *self.node_index.get(&node)?;
        self.nodes[ix as usize]
            .process
            .as_mut()
            .and_then(|p| p.as_any_mut().downcast_mut::<T>())
            .map(f)
    }

    /// Invokes `f` on the live process at `node` with a full [`Context`],
    /// applying any side effects it requests. This is how external drivers
    /// (scenario scripts, interactive examples) inject commands such as
    /// "pause" or "seek" into a process between events.
    ///
    /// Returns `None` if the node is not alive or hosts a different type.
    pub fn invoke<T: 'static, R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut T, &mut Context<'_, M>) -> R,
    ) -> Option<R> {
        let ix = *self.node_index.get(&node)?;
        let slot = &mut self.nodes[ix as usize];
        if !slot.alive {
            return None;
        }
        let mut process = slot.process.take()?;
        let mut effects = std::mem::take(&mut self.effects);
        let result = {
            let mut ctx = Context {
                now: self.now,
                node,
                rng: &mut self.rng,
                effects: &mut effects,
                next_timer_id: &mut self.next_timer_id,
            };
            process
                .as_any_mut()
                .downcast_mut::<T>()
                .map(|typed| f(typed, &mut ctx))
        };
        let exited = effects.iter().any(|e| matches!(e, Effect::Exit));
        let slot = &mut self.nodes[ix as usize];
        slot.process = Some(process);
        if exited && result.is_some() {
            slot.alive = false;
        }
        if result.is_some() {
            for effect in effects.drain(..) {
                self.apply_effect(ix, node, effect);
            }
        } else {
            effects.clear();
        }
        self.effects = effects;
        result
    }

    /// The table entry of node `id`, if the engine has ever seen it.
    fn slot(&self, id: NodeId) -> Option<&NodeSlot<M>> {
        let ix = *self.node_index.get(&id)?;
        Some(&self.nodes[ix as usize])
    }

    /// The dense index of node `id`, adding an empty, never-booted entry
    /// on first sight.
    fn intern(&mut self, id: NodeId) -> NodeIx {
        let next = NodeIx::try_from(self.nodes.len()).expect("more than 2^32 nodes");
        let ix = *self.node_index.entry(id).or_insert(next);
        if ix == next {
            self.nodes.push(NodeSlot {
                id,
                process: None,
                alive: false,
                crashed: false,
                egress_busy: SimTime::ZERO,
            });
        }
        ix
    }

    fn schedule(&mut self, at: SimTime, kind: EventKind<M>) {
        self.queue.push(at, kind);
        if let Some(profile) = self.profile.as_mut() {
            profile.peak_queue_depth = profile.peak_queue_depth.max(self.queue.len() as u64);
        }
    }

    /// Increments a profile counter, doing nothing when profiling is off.
    #[inline]
    fn count(&mut self, bump: impl FnOnce(&mut SimProfile)) {
        if let Some(profile) = self.profile.as_mut() {
            bump(profile);
        }
    }

    fn dispatch(&mut self, at: SimTime, kind: EventKind<M>) {
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        match kind {
            EventKind::Deliver {
                from,
                to,
                dst,
                class,
                sent_at,
                msg,
            } => {
                self.count(|p| p.deliver_events += 1);
                if !self.nodes[dst as usize].alive {
                    self.stats.at_mut(class).dropped_dead += 1;
                    if self.tracer.is_some() {
                        let class = self.stats.name(class);
                        self.trace(TraceEvent::Dropped {
                            at,
                            from,
                            to,
                            class,
                            reason: DropReason::DeadNode,
                        });
                    }
                    return;
                }
                self.stats.at_mut(class).delivered_msgs += 1;
                if self.tracer.is_some() {
                    let class = self.stats.name(class);
                    self.trace(TraceEvent::Delivered {
                        at,
                        sent_at,
                        from,
                        to,
                        class,
                    });
                }
                self.run_handler(dst, |process, ctx| {
                    process.on_datagram(ctx, from, to, msg);
                });
            }
            EventKind::Timer { node, id, tag } => {
                if !self.cancelled.is_empty() && self.cancelled.remove(&id.0) {
                    self.count(|p| p.timer_squashed += 1);
                    return;
                }
                if !self.nodes[node as usize].alive {
                    self.count(|p| p.timer_dead += 1);
                    return;
                }
                self.count(|p| p.timer_fired += 1);
                self.run_handler(node, |process, ctx| {
                    process.on_timer(ctx, Timer { id, tag });
                });
            }
            EventKind::Start { node, process } => {
                self.count(|p| p.start_events += 1);
                let ix = self.intern(node);
                let slot = &mut self.nodes[ix as usize];
                slot.process = Some(process);
                slot.alive = true;
                if std::mem::replace(&mut slot.crashed, false) {
                    self.trace(TraceEvent::NodeRestarted { at, node });
                } else {
                    self.trace(TraceEvent::NodeStarted { at, node });
                }
                self.run_handler(ix, |process, ctx| process.on_start(ctx));
            }
            EventKind::Crash { node } => {
                self.count(|p| p.crash_events += 1);
                let ix = self.intern(node);
                let slot = &mut self.nodes[ix as usize];
                slot.alive = false;
                slot.crashed = true;
                self.trace(TraceEvent::NodeCrashed { at, node });
            }
            EventKind::Partition { a, b } => {
                self.count(|p| p.partition_events += 1);
                for &x in &a {
                    for &y in &b {
                        *self.blocked.entry((x, y)).or_insert(0) += 1;
                        *self.blocked.entry((y, x)).or_insert(0) += 1;
                    }
                }
                if self.tracer.is_some() {
                    self.trace(TraceEvent::Partitioned { at, a, b });
                }
            }
            EventKind::Heal { a, b } => {
                self.count(|p| p.heal_events += 1);
                for &x in &a {
                    for &y in &b {
                        for pair in [(x, y), (y, x)] {
                            if let Some(count) = self.blocked.get_mut(&pair) {
                                *count -= 1;
                                if *count == 0 {
                                    self.blocked.remove(&pair);
                                }
                            }
                        }
                    }
                }
                if self.tracer.is_some() {
                    self.trace(TraceEvent::Healed { at, a, b });
                }
            }
            EventKind::HealAll => {
                self.count(|p| p.heal_events += 1);
                self.blocked.clear();
                if self.tracer.is_some() {
                    self.trace(TraceEvent::Healed {
                        at,
                        a: Vec::new(),
                        b: Vec::new(),
                    });
                }
            }
            EventKind::SetDefaultProfile { profile } => {
                self.count(|p| p.profile_change_events += 1);
                self.default_profile = *profile;
            }
            EventKind::SetLinkOverrides { a, b, profile } => {
                self.count(|p| p.profile_change_events += 1);
                for &x in &a {
                    for &y in &b {
                        match &profile {
                            Some(p) => {
                                self.overrides.insert((x, y), (**p).clone());
                                self.overrides.insert((y, x), (**p).clone());
                            }
                            None => {
                                self.overrides.remove(&(x, y));
                                self.overrides.remove(&(y, x));
                            }
                        }
                    }
                }
                if self.tracer.is_some() {
                    let degraded = profile.is_some();
                    self.trace(TraceEvent::LinkOverride { at, a, b, degraded });
                }
            }
        }
    }

    fn run_handler(
        &mut self,
        ix: NodeIx,
        f: impl FnOnce(&mut dyn AnyProcess<M>, &mut Context<'_, M>),
    ) {
        let slot = &mut self.nodes[ix as usize];
        let Some(mut process) = slot.process.take() else {
            return;
        };
        let node = slot.id;
        let mut effects = std::mem::take(&mut self.effects);
        {
            let mut ctx = Context {
                now: self.now,
                node,
                rng: &mut self.rng,
                effects: &mut effects,
                next_timer_id: &mut self.next_timer_id,
            };
            f(process.as_mut(), &mut ctx);
        }
        let exited = effects.iter().any(|e| matches!(e, Effect::Exit));
        let slot = &mut self.nodes[ix as usize];
        slot.process = Some(process);
        if exited {
            slot.alive = false;
        }
        for effect in effects.drain(..) {
            self.apply_effect(ix, node, effect);
        }
        self.effects = effects;
    }

    /// Applies one effect requested by the handler of node `node`, whose
    /// dense index is `ix`.
    fn apply_effect(&mut self, ix: NodeIx, node: NodeId, effect: Effect<M>) {
        match effect {
            Effect::Send { from, to, msg } => {
                debug_assert_eq!(from.node, node, "a process sends from its own node");
                self.route(ix, from, to, msg);
            }
            Effect::SetTimer { id, at, tag } => {
                self.count(|p| p.timers_set += 1);
                self.schedule(at, EventKind::Timer { node: ix, id, tag });
            }
            Effect::CancelTimer(id) => {
                self.count(|p| p.timers_cancelled += 1);
                self.cancelled.insert(id.0);
            }
            Effect::Exit => {}
        }
    }

    /// Submits `msg` to the network on behalf of the node at index `src`
    /// (always `from.node`).
    fn route(&mut self, src: NodeIx, from: Endpoint, to: Endpoint, msg: M) {
        self.count(|p| p.msgs_routed += 1);
        let name = msg.class();
        let class = self.stats.class_index(name);
        let size = msg.size_bytes();
        {
            let counters = self.stats.at_mut(class);
            counters.sent_msgs += 1;
            counters.sent_bytes += size as u64;
        }
        let at = self.now;
        self.trace(TraceEvent::Sent {
            at,
            from,
            to,
            class: name,
            bytes: size,
        });
        if self.blocked.contains_key(&(from.node, to.node)) {
            self.stats.at_mut(class).dropped_partition += 1;
            self.trace(TraceEvent::Dropped {
                at,
                from,
                to,
                class: name,
                reason: DropReason::Partition,
            });
            return;
        }
        let profile = match self.overrides.get(&(from.node, to.node)) {
            Some(p) => p.clone(),
            None => match &self.topology {
                Some(topo) => topo.profile_for(from.node, to.node).clone(),
                None => self.default_profile.clone(),
            },
        };
        // Loss: plain i.i.d. by default; with `burst` set, a Gilbert–Elliott
        // two-state chain advanced once per datagram (one transition draw,
        // then the state-dependent loss draw). Profiles without `burst` draw
        // nothing extra, keeping existing runs byte-identical.
        let loss_now = match profile.burst {
            None => profile.loss,
            Some(burst) => {
                let bad = self.burst_bad.entry((from.node, to.node)).or_insert(false);
                let transition = if *bad { burst.p_exit } else { burst.p_enter };
                if self.rng.gen_f64() < transition {
                    *bad = !*bad;
                }
                if *bad {
                    burst.loss_bad
                } else {
                    profile.loss
                }
            }
        };
        if loss_now > 0.0 && self.rng.gen_f64() < loss_now {
            self.stats.at_mut(class).dropped_loss += 1;
            self.trace(TraceEvent::Dropped {
                at,
                from,
                to,
                class: name,
                reason: DropReason::Loss,
            });
            return;
        }
        let mut depart = self.now;
        if let Some(bandwidth) = profile.bandwidth {
            let serialization = Duration::from_secs_f64(size as f64 / bandwidth as f64);
            let busy = &mut self.nodes[src as usize].egress_busy;
            let start = (*busy).max(self.now);
            *busy = start + serialization;
            depart = *busy;
        }
        let dst = self.intern(to.node);
        let duplicate = profile.duplicate > 0.0 && self.rng.gen_f64() < profile.duplicate;
        if duplicate {
            self.stats.at_mut(class).duplicated += 1;
            let delay = self.draw_delay(&profile);
            let copy = msg.clone();
            self.schedule(
                depart + delay,
                EventKind::Deliver {
                    from,
                    to,
                    dst,
                    class,
                    sent_at: at,
                    msg: copy,
                },
            );
        }
        let delay = self.draw_delay(&profile);
        self.schedule(
            depart + delay,
            EventKind::Deliver {
                from,
                to,
                dst,
                class,
                sent_at: at,
                msg,
            },
        );
    }

    fn draw_delay(&mut self, profile: &LinkProfile) -> Duration {
        let mut delay = profile.base_delay;
        if !profile.jitter.is_zero() {
            delay += profile.jitter.mul_f64(self.rng.gen_f64());
        }
        if profile.reorder > 0.0 && self.rng.gen_f64() < profile.reorder {
            delay += profile.reorder_extra;
        }
        delay
    }
}

impl<M: Payload> std::fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("pending_events", &self.queue.len())
            .field("nodes", &self.node_ids().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Port;

    #[derive(Clone, Debug)]
    struct Note(u64);

    impl Payload for Note {
        fn size_bytes(&self) -> usize {
            8
        }
    }

    /// A scripted reaction to a timer.
    type Reaction = fn(&mut Script, &mut Context<'_, Note>);

    /// Records every timer tag and datagram it sees, and runs a scripted
    /// reaction to each timer tag.
    #[derive(Default)]
    struct Script {
        fired: Vec<(u64, u64)>,
        heard: Vec<u64>,
        on_timer: Vec<(u64, Reaction)>,
        armed: Vec<TimerId>,
    }

    impl Process<Note> for Script {
        fn on_start(&mut self, ctx: &mut Context<'_, Note>) {
            ctx.set_timer_after(Duration::from_millis(1), 0);
        }

        fn on_datagram(&mut self, _: &mut Context<'_, Note>, _: Endpoint, _: Endpoint, msg: Note) {
            self.heard.push(msg.0);
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, Note>, timer: Timer) {
            self.fired.push((ctx.now().as_micros(), timer.tag));
            let reactions: Vec<_> = self
                .on_timer
                .iter()
                .filter(|(tag, _)| *tag == timer.tag)
                .map(|&(_, react)| react)
                .collect();
            for react in reactions {
                react(self, ctx);
            }
        }
    }

    fn fired(sim: &Simulation<Note>, node: NodeId) -> Vec<(u64, u64)> {
        sim.with_process(node, |s: &Script| s.fired.clone())
            .unwrap()
    }

    #[test]
    fn same_instant_timers_fire_in_arming_order_in_recycled_slots() {
        let mut sim = Simulation::new(1);
        let mut script = Script::default();
        // Tag 0 (at 1 ms) arms tags 1..=3 two milliseconds out; tag 1
        // fires first and frees its slot, then arms 4..=9 for the same
        // instant as 2 and 3, some of them in recycled slots.
        script.on_timer.push((0, |_, ctx| {
            for tag in 1..=3 {
                ctx.set_timer_after(Duration::from_millis(2), tag);
            }
        }));
        script.on_timer.push((1, |_, ctx| {
            for tag in 4..=9 {
                ctx.set_timer_at(SimTime::from_millis(3), tag);
            }
        }));
        sim.add_node(NodeId(1), script);
        sim.run_until(SimTime::from_secs(1));
        let tags: Vec<u64> = fired(&sim, NodeId(1)).iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, (0..=9).collect::<Vec<_>>());
        assert!(sim.queue.slots() < 10, "slots were reused");
    }

    #[test]
    fn cancelling_a_fired_timer_does_not_touch_the_event_in_its_slot() {
        let mut sim = Simulation::new(1);
        sim.enable_profiling();
        let mut script = Script::default();
        // Tag 0's slot is free while its handler runs, so the timer armed
        // there (tag 1) takes it; cancelling tag 0 afterwards must neither
        // squash tag 1 nor fire anything twice.
        script.on_timer.push((0, |s, ctx| {
            s.armed
                .push(ctx.set_timer_after(Duration::from_millis(5), 1));
            s.armed
                .push(ctx.set_timer_after(Duration::from_millis(6), 2));
        }));
        script.on_timer.push((1, |s, ctx| {
            // Cancel the already-fired tag 1 (its own id) and arm tag 3,
            // which reuses tag 1's slot, for before tag 2.
            ctx.cancel_timer(s.armed[0]);
            ctx.set_timer_after(Duration::from_micros(500), 3);
        }));
        sim.add_node(NodeId(1), script);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            fired(&sim, NodeId(1)),
            vec![(1_000, 0), (6_000, 1), (6_500, 3), (7_000, 2)]
        );
        let profile = sim.profile().unwrap();
        assert_eq!(profile.timer_squashed, 0);
        assert_eq!(profile.timer_fired, 4);
        assert_eq!(sim.queue.slots(), 2);
    }

    #[test]
    fn a_cancelled_pending_timer_squashes_only_itself() {
        let mut sim = Simulation::new(1);
        sim.enable_profiling();
        let mut script = Script::default();
        // Tag 0 arms 1 and 2 for the same instant and cancels 1; 1 is
        // squashed and its slot recycled by tag 3, armed by tag 2 at that
        // same instant. Only tag 1 may be lost.
        script.on_timer.push((0, |_, ctx| {
            let doomed = ctx.set_timer_after(Duration::from_millis(2), 1);
            ctx.set_timer_after(Duration::from_millis(2), 2);
            ctx.cancel_timer(doomed);
        }));
        script.on_timer.push((2, |_, ctx| {
            ctx.set_timer_after(Duration::ZERO, 3);
            ctx.set_timer_after(Duration::from_millis(1), 4);
        }));
        sim.add_node(NodeId(1), script);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            fired(&sim, NodeId(1)),
            vec![(1_000, 0), (3_000, 2), (3_000, 3), (4_000, 4)]
        );
        let profile = sim.profile().unwrap();
        assert_eq!(profile.timer_squashed, 1);
        assert_eq!(profile.timers_cancelled, 1);
        assert!(sim.cancelled.is_empty(), "the squash consumed the cancel");
    }

    /// Sends one note to `peer` every millisecond, numbered from 1.
    struct Pinger {
        peer: NodeId,
        sent: u64,
    }

    impl Process<Note> for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_, Note>) {
            ctx.set_timer_after(Duration::from_millis(1), 0);
        }

        fn on_datagram(&mut self, _: &mut Context<'_, Note>, _: Endpoint, _: Endpoint, _: Note) {}

        fn on_timer(&mut self, ctx: &mut Context<'_, Note>, _: Timer) {
            self.sent += 1;
            ctx.send(Port(1), Endpoint::new(self.peer, Port(1)), Note(self.sent));
            ctx.set_timer_after(Duration::from_millis(1), 0);
        }
    }

    /// A payload as large as the VoD wire enum.
    #[derive(Clone, Debug)]
    struct Wide([u64; 3]);

    impl Payload for Wide {
        fn size_bytes(&self) -> usize {
            8 * self.0.len()
        }
    }

    #[test]
    fn a_queued_24_byte_datagram_takes_a_72_byte_slot() {
        // Every pending event occupies one slab slot, sized by the largest
        // event kind: a new inline variant larger than a datagram would
        // grow all of them.
        assert_eq!(std::mem::size_of::<Wide>(), 24);
        assert!(std::mem::size_of::<Option<EventKind<Wide>>>() <= 72);
    }

    #[test]
    fn a_sparse_node_id_costs_one_table_slot() {
        let far = NodeId(u32::MAX - 1);
        let mut sim = Simulation::new(1);
        sim.set_default_profile(LinkProfile::lan());
        sim.add_node(NodeId(3), Pinger { peer: far, sent: 0 });
        sim.add_node(far, Script::default());
        sim.crash_at(SimTime::from_micros(10_100), far);
        sim.run_until(SimTime::from_millis(20));
        assert!(!sim.is_alive(far));
        assert_eq!(sim.node_ids(), vec![NodeId(3), far]);
        let heard = sim.with_process(far, |s: &Script| s.heard.clone()).unwrap();
        assert_eq!(
            heard,
            (1..=9).collect::<Vec<_>>(),
            "received until the crash"
        );
        assert!(sim.stats().class("default").dropped_dead > 0);
        // Two ids, two slots: nothing is sized by the id's magnitude.
        assert_eq!(sim.nodes.len(), 2);
        assert!(sim.nodes.capacity() < 64);
        assert_eq!(sim.node_index.len(), 2);
    }
}
