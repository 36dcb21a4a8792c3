//! The per-node group communication endpoint.
//!
//! [`GcsNode`] is designed to be *embedded* in a [`simnet::Process`]: the
//! application reserves one port and one timer tag for the GCS, forwards
//! matching datagrams to [`GcsNode::on_packet`] and the tick timer to
//! [`GcsNode::on_timer`], and reacts to the [`GcsEvent`]s these calls
//! return.
//!
//! # Protocol overview
//!
//! * **Failure detection** — heartbeats to every known peer; a peer silent
//!   for [`GcsConfig::suspect_timeout`] is suspected (any packet refreshes
//!   liveness).
//! * **Reliable FIFO multicast** — per-(group, sender) sequence numbers;
//!   receivers buffer out-of-order packets and NAK gaps back to the origin;
//!   senders retransmit from a send buffer; cumulative ACKs establish
//!   stability and garbage-collect retained messages. A node delivers its
//!   own multicasts immediately (loopback).
//! * **View-synchronous membership** — the minimum live member coordinates
//!   a two-phase view change (`Prepare` → `FlushAck` → `Install`).
//!   Candidates stop delivering when they promise, report their delivery
//!   floors and hand over all unstable messages; the coordinator computes a
//!   per-sender *cut* (the maximum delivered floor, extended through the
//!   pooled messages) and distributes the messages needed to bring every
//!   member up to the cut. All members of two consecutive views therefore
//!   deliver the same set of messages in between — the property the VoD
//!   servers rely on when agreeing on client migration.
//! * **Join / leave / merge** — joiners solicit membership via `JoinReq`
//!   (falling back to a singleton view when nobody answers); coordinators
//!   periodically announce their view to non-members, and the minimum
//!   coordinator merges components after a partition heals. After a merge,
//!   messages that became stable on one side only may be unrecoverable for
//!   the other; the node then *forces the gap closed* and counts it in
//!   [`GcsNode::forced_gaps`] — applications that exchange full state on
//!   every view change (as the VoD servers do) are unaffected.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::error::Error;
use std::fmt;
use std::ops::Bound;

use simnet::{Context, Endpoint, NodeId, Payload, Port, SimTime, Timer};

use crate::packet::{Carried, GcsPacket};
use crate::proto::{
    AnnounceOutcome, FlushProgress, GroupStatus, InstallDecision, LeaveStart, Membership,
    ProtoConfig, ProtoEvent, ProtoMsg,
};
use crate::types::{GcsConfig, GcsEvent, GroupId, View, ViewId};

/// Error returned when multicasting to a group the node is not (and is not
/// becoming) a member of.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotMemberError {
    /// The group that rejected the send.
    pub group: GroupId,
}

impl fmt::Display for NotMemberError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "not a member of group {}", self.group)
    }
}

impl Error for NotMemberError {}

/// A structured, passive observability event from the GCS layer, delivered
/// to the tracer installed with [`GcsNode::set_tracer`].
///
/// Tracing cannot perturb the protocol: events are only constructed when a
/// tracer is installed, and the tracer receives shared references — it has
/// no channel back into the endpoint.
#[derive(Clone, Debug)]
pub enum GcsTrace {
    /// The local failure detector started suspecting `peer`.
    Suspected {
        /// Simulated time the suspicion was raised.
        at: SimTime,
        /// The peer that went quiet.
        peer: NodeId,
    },
    /// A new view was installed locally (joins, leaves, crashes and merges
    /// all end in one of these).
    ViewInstalled {
        /// Simulated time of the install.
        at: SimTime,
        /// The group the view belongs to.
        group: GroupId,
        /// The freshly installed view.
        view: View,
    },
    /// The local node asked to join `group`.
    JoinRequested {
        /// Simulated time of the request.
        at: SimTime,
        /// The group being joined.
        group: GroupId,
    },
    /// The local node asked to leave `group`.
    LeaveRequested {
        /// Simulated time of the request.
        at: SimTime,
        /// The group being left.
        group: GroupId,
    },
    /// Agreed-delivery (total-order) requests stalled waiting on the
    /// sequencer and were re-sent — a persistent stream of these indicates
    /// a wedged or partitioned sequencer.
    AgreedStalled {
        /// Simulated time of the re-send sweep.
        at: SimTime,
        /// The group whose total-order requests are stalled.
        group: GroupId,
        /// How many requests are still waiting for sequencing.
        pending: usize,
    },
}

type GcsTracer = Box<dyn FnMut(&GcsTrace)>;

/// A passive probe receiving the [`ProtoEvent`] stream the live node
/// feeds its embedded membership state machine — `None` group means the
/// event is node-global (failure-detector suspicion). The replay
/// equivalence tests drive a pure [`crate::proto::ProtoNode`] from this
/// stream and assert it installs the same view sequence as the live node.
type ProtoProbe = Box<dyn FnMut(Option<GroupId>, &ProtoEvent)>;

struct RecvState<P> {
    /// Next sequence number to deliver from this sender.
    next: u64,
    /// Out-of-order buffer.
    buf: BTreeMap<u64, Carried<P>>,
}

impl<P> RecvState<P> {
    fn new(next: u64) -> Self {
        RecvState {
            next,
            buf: BTreeMap::new(),
        }
    }
}

/// Message-plane freight of an in-progress view change. The membership
/// half of the round (proposal id, candidates, acks) lives in the
/// embedded [`Membership::flush`]; the two are created and consumed
/// together.
struct VcData<P> {
    delivered_max: BTreeMap<NodeId, u64>,
    causal_max: BTreeMap<NodeId, u64>,
    pool: BTreeMap<(NodeId, u64), Carried<P>>,
    start_tick: u64,
    /// Tick of the most recent `Prepare` (re)transmission; lost prepares
    /// and flush-acks are re-solicited every couple of ticks.
    last_prepare_tick: u64,
}

impl<P> VcData<P> {
    fn new(ticks: u64) -> Self {
        VcData {
            delivered_max: BTreeMap::new(),
            causal_max: BTreeMap::new(),
            pool: BTreeMap::new(),
            start_tick: ticks,
            last_prepare_tick: ticks,
        }
    }

    /// Folds one flush report (our own or a candidate's) into the round.
    fn absorb(
        &mut self,
        delivered: Vec<(NodeId, u64)>,
        held: Vec<(NodeId, u64, Carried<P>)>,
        causal: Vec<(NodeId, u64)>,
    ) {
        for (sender, floor) in delivered {
            let entry = self.delivered_max.entry(sender).or_insert(0);
            *entry = (*entry).max(floor);
        }
        for (sender, seq, payload) in held {
            self.pool.insert((sender, seq), payload);
        }
        for (sender, count) in causal {
            let entry = self.causal_max.entry(sender).or_insert(0);
            *entry = (*entry).max(count);
        }
    }
}

/// A causal arrival waiting for its dependencies:
/// `(sender, dependency vector, payload)`.
type CausalPending<P> = (NodeId, Vec<(NodeId, u64)>, P);

struct GroupState<P> {
    /// The membership plane: every who-is-in-the-view decision is
    /// delegated to this pure state machine (shared with the model
    /// checker; see [`crate::proto`]).
    mem: Membership,
    promised_tick: u64,
    leave_tick: u64,
    last_leave_send_tick: u64,
    join_start_tick: u64,
    last_join_send_tick: u64,
    next_seq: u64,
    send_buf: BTreeMap<u64, Carried<P>>,
    recv: BTreeMap<NodeId, RecvState<P>>,
    retained: BTreeMap<(NodeId, u64), Carried<P>>,
    /// Each member's last reported delivery floors, as sent in its `Ack`
    /// (see [`floor_of`]).
    ack_floors: BTreeMap<NodeId, Vec<(NodeId, u64)>>,
    pending_sends: VecDeque<Carried<P>>,
    /// Agreed-multicast origin state: my next origin_seq, unsequenced
    /// payloads awaiting the sequencer, and the per-origin delivery floor
    /// (sequencer dedupe across coordinator changes).
    next_order_seq: u64,
    pending_order: BTreeMap<u64, P>,
    order_floor: BTreeMap<NodeId, u64>,
    /// Sequencer-side inbox of order requests not yet contiguous.
    order_inbox: BTreeMap<NodeId, BTreeMap<u64, P>>,
    /// Causal multicast: messages delivered per sender, and arrivals whose
    /// dependencies are not yet satisfied.
    causal_delivered: BTreeMap<NodeId, u64>,
    causal_waiting: Vec<CausalPending<P>>,
    /// Message-plane half of an in-progress view change; `Some` exactly
    /// when [`Membership::flush`] is.
    vc: Option<VcData<P>>,
    /// Freshness clocks for the foreign entries in [`Membership::foreign`]
    /// (time stays out of the pure machine).
    foreign_seen: BTreeMap<NodeId, u64>,
    last_nak_tick: BTreeMap<NodeId, u64>,
    /// A freshly computed install, blindly retransmitted a few ticks in a
    /// row so that a single lost datagram cannot strand a member in the
    /// old view (installs are idempotent).
    install_resend: Option<InstallResend<P>>,
}

struct InstallResend<P> {
    view: View,
    cut: Vec<(NodeId, u64)>,
    fill: Vec<(NodeId, u64, Carried<P>)>,
    causal: Vec<(NodeId, u64)>,
    remaining: u8,
}

/// What an incoming announce asks of the node. The blind
/// [`InstallResend`] burst above covers a single lost Install datagram;
/// `Resync` covers the unbounded case (every retransmission lost, or a
/// partition outlasting the burst) that the model checker surfaced.
enum AnnounceReaction {
    None,
    Reform { epoch: u64, candidates: Vec<NodeId> },
    Resync,
}

impl<P> GroupState<P> {
    fn new() -> Self {
        GroupState {
            mem: Membership::new(),
            promised_tick: 0,
            leave_tick: 0,
            last_leave_send_tick: 0,
            join_start_tick: 0,
            last_join_send_tick: 0,
            next_seq: 1,
            send_buf: BTreeMap::new(),
            recv: BTreeMap::new(),
            retained: BTreeMap::new(),
            ack_floors: BTreeMap::new(),
            pending_sends: VecDeque::new(),
            next_order_seq: 1,
            pending_order: BTreeMap::new(),
            order_floor: BTreeMap::new(),
            order_inbox: BTreeMap::new(),
            causal_delivered: BTreeMap::new(),
            causal_waiting: Vec::new(),
            vc: None,
            foreign_seen: BTreeMap::new(),
            last_nak_tick: BTreeMap::new(),
            install_resend: None,
        }
    }

    /// Snapshot of the causal delivery counts.
    fn causal_snapshot(&self) -> Vec<(NodeId, u64)> {
        self.causal_delivered
            .iter()
            .map(|(&n, &c)| (n, c))
            .collect()
    }

    /// Highest contiguously delivered sequence per sender (self included).
    fn floors(&self, me: NodeId) -> Vec<(NodeId, u64)> {
        let mut floors = vec![(me, self.next_seq - 1)];
        for (&sender, state) in &self.recv {
            if sender != me {
                floors.push((sender, state.next - 1));
            }
        }
        floors
    }

    /// Everything this node holds that may be unstable: own sent messages
    /// plus retained (delivered) and buffered (undelivered) foreign ones.
    fn held(&self, me: NodeId) -> Vec<(NodeId, u64, Carried<P>)>
    where
        P: Clone,
    {
        let mut held: Vec<(NodeId, u64, Carried<P>)> = self
            .send_buf
            .iter()
            .map(|(&seq, p)| (me, seq, p.clone()))
            .collect();
        for (&(sender, seq), p) in &self.retained {
            held.push((sender, seq, p.clone()));
        }
        for (&sender, state) in &self.recv {
            for (&seq, p) in &state.buf {
                held.push((sender, seq, p.clone()));
            }
        }
        held
    }
}

/// A group communication endpoint, embedded into one simulated process.
///
/// See the crate-level documentation for the protocol description and
/// the crate examples for the embedding pattern.
pub struct GcsNode<P: Payload> {
    node: NodeId,
    port: Port,
    tick_tag: u64,
    config: GcsConfig,
    bootstrap: Vec<NodeId>,
    ticks: u64,
    started: bool,
    last_heard: BTreeMap<NodeId, SimTime>,
    suspected: BTreeSet<NodeId>,
    groups: BTreeMap<GroupId, GroupState<P>>,
    next_nonmember_id: u64,
    nonmember_seen: BTreeMap<(NodeId, u64), u64>,
    forced_gaps: u64,
    views_installed: u64,
    /// Events produced in contexts that cannot return them directly
    /// (e.g. flush abandonment inside a tick); drained into the next batch.
    deferred_events: Vec<GcsEvent<P>>,
    tracer: Option<GcsTracer>,
    /// Protocol-variant knobs forwarded to the membership state machine.
    proto_cfg: ProtoConfig,
    /// Passive mirror of every event fed to the membership plane; see
    /// [`GcsNode::set_proto_probe`].
    proto_probe: Option<ProtoProbe>,
    /// Last simulated time observed through a [`Context`]; lets entry
    /// points without a context (e.g. [`GcsNode::create_group`]) stamp
    /// trace events.
    trace_now: SimTime,
    /// Reusable buffer for the per-tick peer sets; see
    /// [`GcsNode::take_peers`].
    peer_scratch: Vec<NodeId>,
    /// Reusable buffer for the per-sender stable floors of `on_ack`.
    stable_scratch: Vec<(NodeId, u64)>,
}

impl<P: Payload> fmt::Debug for GcsNode<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GcsNode")
            .field("node", &self.node)
            .field("groups", &self.groups.len())
            .field("suspected", &self.suspected)
            .finish()
    }
}

impl<P: Payload> GcsNode<P> {
    /// Creates an endpoint for `node`, exchanging GCS packets on `port` and
    /// driving itself from the application timer with tag `tick_tag`.
    ///
    /// `bootstrap` is the set of nodes contacted for joins, announces and
    /// non-member sends — typically "every node that might ever run a
    /// server". The local node may be included; it is skipped on send.
    pub fn new(
        config: GcsConfig,
        node: NodeId,
        port: Port,
        tick_tag: u64,
        bootstrap: Vec<NodeId>,
    ) -> Self {
        GcsNode {
            node,
            port,
            tick_tag,
            config,
            bootstrap,
            ticks: 0,
            started: false,
            last_heard: BTreeMap::new(),
            suspected: BTreeSet::new(),
            groups: BTreeMap::new(),
            next_nonmember_id: 1,
            nonmember_seen: BTreeMap::new(),
            forced_gaps: 0,
            views_installed: 0,
            deferred_events: Vec::new(),
            tracer: None,
            proto_cfg: ProtoConfig::default(),
            proto_probe: None,
            trace_now: SimTime::ZERO,
            peer_scratch: Vec::new(),
            stable_scratch: Vec::new(),
        }
    }

    /// Installs a passive probe receiving the exact [`ProtoEvent`] stream
    /// this node feeds its embedded membership state machine (`None`
    /// group = node-global failure-detector events). Replaying the stream
    /// through a pure [`crate::proto::ProtoNode`] must reproduce this
    /// node's view sequence — the replay-equivalence property tests hold
    /// the refactor to that.
    pub fn set_proto_probe(&mut self, probe: impl FnMut(Option<GroupId>, &ProtoEvent) + 'static) {
        self.proto_probe = Some(Box::new(probe));
    }

    /// Runs `make` and hands the event to the probe — only when one is
    /// installed, so the disabled path costs a single branch.
    fn probe(&mut self, group: Option<GroupId>, make: impl FnOnce() -> ProtoEvent) {
        if let Some(probe) = self.proto_probe.as_mut() {
            probe(group, &make());
        }
    }

    /// Installs a tracer receiving a [`GcsTrace`] for every suspicion, view
    /// install, join/leave request and agreed-delivery stall. Tracing is
    /// passive: events are constructed only while a tracer is installed and
    /// the tracer cannot influence the protocol.
    pub fn set_tracer(&mut self, tracer: impl FnMut(&GcsTrace) + 'static) {
        self.tracer = Some(Box::new(tracer));
    }

    /// Removes the installed tracer.
    pub fn clear_tracer(&mut self) {
        self.tracer = None;
    }

    /// Runs `make` and hands the event to the tracer — only when one is
    /// installed, so the disabled path costs a single branch.
    fn trace(&mut self, make: impl FnOnce() -> GcsTrace) {
        if let Some(tracer) = self.tracer.as_mut() {
            tracer(&make());
        }
    }

    /// The node this endpoint lives on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The port GCS packets travel on.
    pub fn port(&self) -> Port {
        self.port
    }

    /// Currently installed view of `group`, if this node is a member (or
    /// flushing toward the next view).
    pub fn view(&self, group: GroupId) -> Option<&View> {
        let state = self.groups.get(&group)?;
        match state.mem.status {
            GroupStatus::Member | GroupStatus::Flushing if state.mem.had_view => {
                Some(&state.mem.view)
            }
            _ => None,
        }
    }

    /// Membership status for `group`.
    pub fn status(&self, group: GroupId) -> GroupStatus {
        self.groups
            .get(&group)
            .map_or(GroupStatus::Idle, |g| g.mem.status)
    }

    /// Whether this node currently belongs to an installed view of `group`.
    pub fn is_member(&self, group: GroupId) -> bool {
        self.view(group).is_some_and(|v| v.contains(self.node))
    }

    /// Nodes currently suspected by the local failure detector.
    pub fn suspected(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.suspected.iter().copied()
    }

    /// Number of messages skipped to close unrecoverable gaps (possible
    /// only across partition merges; see the module docs).
    pub fn forced_gaps(&self) -> u64 {
        self.forced_gaps
    }

    /// Number of views this node has installed across all groups.
    pub fn views_installed(&self) -> u64 {
        self.views_installed
    }

    /// Arms the housekeeping timer. Call once from
    /// [`Process::on_start`](simnet::Process::on_start).
    pub fn start<M>(&mut self, ctx: &mut Context<'_, M>)
    where
        M: Payload + From<GcsPacket<P>>,
    {
        if !self.started {
            self.started = true;
            self.trace_now = ctx.now();
            ctx.set_timer_after(self.config.tick, self.tick_tag);
        }
    }

    /// Creates `group` with this node as its only member, effective
    /// immediately. Use when the caller owns the group's identity — e.g. a
    /// VoD client creating its own session group.
    pub fn create_group(&mut self, group: GroupId) -> Vec<GcsEvent<P>> {
        let node = self.node;
        self.probe(Some(group), || ProtoEvent::Create);
        let state = self.group_mut(group);
        let Some(view) = state.mem.create(node) else {
            return Vec::new();
        };
        self.views_installed += 1;
        let at = self.trace_now;
        self.trace(|| GcsTrace::ViewInstalled {
            at,
            group,
            view: view.clone(),
        });
        vec![GcsEvent::View { group, view }]
    }

    /// Starts joining `group`. Join requests go to the bootstrap set plus
    /// `contacts` (nodes known to be members — e.g. the client of a session
    /// group). If nobody answers within
    /// [`GcsConfig::singleton_form_ticks`], a singleton view is formed.
    pub fn join<M>(&mut self, ctx: &mut Context<'_, M>, group: GroupId, contacts: &[NodeId])
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let node = self.node;
        let ticks = self.ticks;
        self.probe(Some(group), || ProtoEvent::RequestJoin {
            contacts: contacts.to_vec(),
        });
        let state = self.group_mut(group);
        if !state.mem.start_join(contacts) {
            return;
        }
        state.join_start_tick = ticks;
        state.last_join_send_tick = ticks;
        let at = ctx.now();
        self.trace_now = at;
        self.trace(|| GcsTrace::JoinRequested { at, group });
        let targets = self.join_targets(group);
        for target in targets {
            self.emit(
                ctx,
                target,
                GcsPacket::JoinReq {
                    group,
                    joiner: node,
                },
            );
        }
    }

    /// Requests a graceful departure from `group`. The node keeps operating
    /// until a view excluding it is installed (or a local timeout forces
    /// the exit).
    pub fn leave<M>(&mut self, ctx: &mut Context<'_, M>, group: GroupId)
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let node = self.node;
        let ticks = self.ticks;
        self.probe(Some(group), || ProtoEvent::RequestLeave);
        let Some(state) = self.groups.get_mut(&group) else {
            return;
        };
        let start = state.mem.request_leave(node, &self.suspected);
        if start == LeaveStart::Ignored {
            return;
        }
        if start == LeaveStart::Dissolve {
            // Sole member: dissolve immediately.
            self.groups.remove(&group);
            return;
        }
        state.leave_tick = ticks;
        state.last_leave_send_tick = ticks;
        let at = ctx.now();
        self.trace_now = at;
        self.trace(|| GcsTrace::LeaveRequested { at, group });
        if let LeaveStart::Send(target) = start {
            self.emit(
                ctx,
                target,
                GcsPacket::LeaveReq {
                    group,
                    leaver: node,
                },
            );
        }
    }

    /// Reliably multicasts `payload` in `group` (FIFO per sender, view
    /// synchronous). The local node delivers its own message immediately —
    /// the returned events include that self-delivery.
    ///
    /// While a view change or join is in progress the message is queued and
    /// sent in the next view.
    ///
    /// # Errors
    ///
    /// Returns [`NotMemberError`] if the node is neither a member of
    /// `group` nor in the process of joining it.
    pub fn multicast<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        group: GroupId,
        payload: P,
    ) -> Result<Vec<GcsEvent<P>>, NotMemberError>
    where
        M: Payload + From<GcsPacket<P>>,
    {
        match self.status(group) {
            GroupStatus::Idle => Err(NotMemberError { group }),
            GroupStatus::Joining | GroupStatus::Flushing => {
                self.group_mut(group)
                    .pending_sends
                    .push_back(Carried::Plain(payload));
                Ok(Vec::new())
            }
            GroupStatus::Member => Ok(self.do_multicast(ctx, group, Carried::Plain(payload))),
        }
    }

    /// Reliably multicasts `payload` with *agreed* (total-order) delivery:
    /// every member of the view — the sender included — delivers all
    /// agreed messages of the group in the same order.
    ///
    /// Implementation: the group coordinator acts as the sequencer; agreed
    /// messages ride its FIFO stream, so view synchrony and recovery apply
    /// unchanged. Unlike [`GcsNode::multicast`] there is no immediate
    /// self-delivery — the sender, too, waits for the sequenced copy.
    /// Pending requests are re-sent across coordinator changes and deduped
    /// by `(origin, origin_seq)`.
    ///
    /// # Errors
    ///
    /// Returns [`NotMemberError`] if the node is neither a member of
    /// `group` nor in the process of joining it.
    pub fn multicast_agreed<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        group: GroupId,
        payload: P,
    ) -> Result<Vec<GcsEvent<P>>, NotMemberError>
    where
        M: Payload + From<GcsPacket<P>>,
    {
        if self.status(group) == GroupStatus::Idle {
            return Err(NotMemberError { group });
        }
        let node = self.node;
        let (origin_seq, sequencer) = {
            let state = self.group_mut(group);
            let seq = state.next_order_seq;
            state.next_order_seq += 1;
            state.pending_order.insert(seq, payload.clone());
            (seq, state.mem.view.coordinator_candidate())
        };
        match sequencer {
            Some(seq_node) if seq_node == node => {
                Ok(self.on_order_req(ctx, group, node, origin_seq, payload))
            }
            Some(seq_node) => {
                self.emit(
                    ctx,
                    seq_node,
                    GcsPacket::OrderReq {
                        group,
                        origin: node,
                        origin_seq,
                        payload,
                    },
                );
                Ok(Vec::new())
            }
            // Still joining: the pending queue re-sends once a view forms.
            None => Ok(Vec::new()),
        }
    }

    /// Sequencer side: buffer the request, then stamp and multicast every
    /// contiguous pending request per origin.
    fn on_order_req<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        group: GroupId,
        origin: NodeId,
        origin_seq: u64,
        payload: P,
    ) -> Vec<GcsEvent<P>>
    where
        M: Payload + From<GcsPacket<P>>,
    {
        if self.status(group) != GroupStatus::Member {
            return Vec::new();
        }
        let node = self.node;
        {
            let state = self.group_mut(group);
            if state.mem.view.coordinator_candidate() != Some(node) {
                return Vec::new(); // not the sequencer (stale request)
            }
            let floor = state.order_floor.get(&origin).copied().unwrap_or(0);
            if origin_seq <= floor {
                return Vec::new(); // already sequenced and delivered
            }
            state
                .order_inbox
                .entry(origin)
                .or_default()
                .insert(origin_seq, payload);
        }
        self.drain_order_inbox(ctx, group)
    }

    /// Multicasts every contiguously available order request. Also invoked
    /// after installs, when a new sequencer may have inherited an inbox.
    fn drain_order_inbox<M>(&mut self, ctx: &mut Context<'_, M>, group: GroupId) -> Vec<GcsEvent<P>>
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let node = self.node;
        let mut events = Vec::new();
        loop {
            let next: Option<(NodeId, u64, P)> = {
                let state = self.group_mut(group);
                if state.mem.view.coordinator_candidate() != Some(node) {
                    return events;
                }
                let mut found = None;
                for (&origin, inbox) in state.order_inbox.iter() {
                    let floor = state.order_floor.get(&origin).copied().unwrap_or(0);
                    if let Some(payload) = inbox.get(&(floor + 1)) {
                        found = Some((origin, floor + 1, payload.clone()));
                        break;
                    }
                }
                found
            };
            let Some((origin, origin_seq, payload)) = next else {
                return events;
            };
            events.extend(self.do_multicast(
                ctx,
                group,
                Carried::Ordered {
                    origin,
                    origin_seq,
                    payload,
                },
            ));
        }
    }

    /// Reliably multicasts `payload` with *causal* delivery: any message
    /// the sender had delivered before this multicast is delivered before
    /// it at every member. Stronger than FIFO, weaker (and cheaper: no
    /// sequencer round-trip) than [`GcsNode::multicast_agreed`].
    ///
    /// The returned events include the immediate self-delivery.
    ///
    /// # Errors
    ///
    /// Returns [`NotMemberError`] if the node is neither a member of
    /// `group` nor in the process of joining it.
    pub fn multicast_causal<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        group: GroupId,
        payload: P,
    ) -> Result<Vec<GcsEvent<P>>, NotMemberError>
    where
        M: Payload + From<GcsPacket<P>>,
    {
        if self.status(group) == GroupStatus::Idle {
            return Err(NotMemberError { group });
        }
        let deps: Vec<(NodeId, u64)> = {
            let state = self.group_mut(group);
            state
                .causal_delivered
                .iter()
                .map(|(&n, &c)| (n, c))
                .collect()
        };
        let carried = Carried::Causal { deps, payload };
        match self.status(group) {
            GroupStatus::Member => Ok(self.do_multicast(ctx, group, carried)),
            _ => {
                self.group_mut(group).pending_sends.push_back(carried);
                Ok(Vec::new())
            }
        }
    }

    /// Best-effort send from a non-member to every member of `group`
    /// (duplicate-suppressed at the receivers). Used by clients to contact
    /// the abstract server group without joining it.
    pub fn send_to_group<M>(&mut self, ctx: &mut Context<'_, M>, group: GroupId, payload: P)
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let msg_id = self.next_nonmember_id;
        self.next_nonmember_id += 1;
        let origin = self.node;
        let targets: Vec<NodeId> = self
            .bootstrap
            .iter()
            .copied()
            .filter(|&n| n != self.node)
            .collect();
        for target in targets {
            self.emit(
                ctx,
                target,
                GcsPacket::NonMemberSend {
                    group,
                    origin,
                    msg_id,
                    payload: payload.clone(),
                },
            );
        }
    }

    /// Handles an incoming GCS packet. Returns the upcalls it produced.
    pub fn on_packet<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        from: Endpoint,
        pkt: GcsPacket<P>,
    ) -> Vec<GcsEvent<P>>
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let peer = from.node;
        self.trace_now = ctx.now();
        self.last_heard.insert(peer, ctx.now());
        if self.suspected.remove(&peer) {
            self.probe(None, || ProtoEvent::Unsuspect(peer));
        }
        if self.proto_probe.is_some() {
            if let Some((group, msg)) = proto_msg_of(&pkt) {
                self.probe(Some(group), || ProtoEvent::Deliver { from: peer, msg });
            }
        }
        match pkt {
            GcsPacket::Heartbeat => Vec::new(),
            GcsPacket::JoinReq { group, joiner } => {
                self.on_join_req(ctx, group, joiner);
                Vec::new()
            }
            GcsPacket::LeaveReq { group, leaver } => {
                if let Some(state) = self.groups.get_mut(&group) {
                    state.mem.on_leave_req(leaver);
                }
                Vec::new()
            }
            GcsPacket::AppMsg {
                group,
                origin,
                seq,
                payload,
            } => self.on_app_msg(ctx, group, origin, seq, payload),
            GcsPacket::OrderReq {
                group,
                origin,
                origin_seq,
                payload,
            } => self.on_order_req(ctx, group, origin, origin_seq, payload),
            GcsPacket::Nak {
                group,
                origin,
                from_seq,
                to_seq,
            } => {
                self.on_nak(ctx, peer, group, origin, from_seq, to_seq);
                Vec::new()
            }
            GcsPacket::Ack { group, delivered } => {
                self.on_ack(ctx, group, peer, delivered);
                Vec::new()
            }
            GcsPacket::Prepare {
                group,
                vid,
                candidates,
            } => {
                self.on_prepare(ctx, group, vid, candidates);
                Vec::new()
            }
            GcsPacket::FlushAck {
                group,
                vid,
                delivered,
                held,
                causal,
            } => self.on_flush_ack(ctx, group, peer, vid, delivered, held, causal),
            GcsPacket::Install {
                group,
                view,
                cut,
                fill,
                causal,
            } => self.on_install(ctx, group, view, cut, fill, causal),
            GcsPacket::Announce {
                group,
                vid,
                members,
            } => {
                match self.on_announce(group, peer, vid, members) {
                    AnnounceReaction::Reform { epoch, candidates } => {
                        self.initiate_view_change(ctx, group, epoch, candidates);
                    }
                    AnnounceReaction::Resync => {
                        // We are listed in a newer view we never
                        // installed: the Install was lost. Ask the
                        // announcer to re-admit us.
                        let joiner = self.node;
                        self.emit(ctx, peer, GcsPacket::JoinReq { group, joiner });
                    }
                    AnnounceReaction::None => {}
                }
                Vec::new()
            }
            GcsPacket::NonMemberSend {
                group,
                origin,
                msg_id,
                payload,
            } => self.on_nonmember_send(group, origin, msg_id, payload),
        }
    }

    /// Handles the housekeeping timer. The application must forward timers
    /// whose tag equals the `tick_tag` passed at construction.
    pub fn on_timer<M>(&mut self, ctx: &mut Context<'_, M>, timer: Timer) -> Vec<GcsEvent<P>>
    where
        M: Payload + From<GcsPacket<P>>,
    {
        debug_assert_eq!(timer.tag, self.tick_tag, "timer routed to wrong component");
        self.trace_now = ctx.now();
        ctx.set_timer_after(self.config.tick, self.tick_tag);
        self.ticks += 1;
        let mut events = Vec::new();
        self.tick_failure_detector(ctx);
        if self.ticks.is_multiple_of(self.config.hb_every_ticks) {
            self.tick_heartbeats(ctx);
        }
        if self.ticks.is_multiple_of(self.config.ack_every_ticks) {
            self.tick_acks(ctx);
        }
        self.tick_naks(ctx);
        self.tick_resends(ctx);
        if self.ticks.is_multiple_of(4) {
            self.tick_order_resends(ctx);
        }
        events.extend(self.tick_joins(ctx));
        // Prune before the election: `Membership::election` treats every
        // remaining foreign entry as fresh, so stale ones must be expired
        // first. The prune's keep-predicate is exactly the freshness check
        // the election used to apply, evaluated at the same tick.
        self.tick_prune();
        self.tick_view_changes(ctx);
        if self.ticks.is_multiple_of(self.config.announce_every_ticks) {
            self.tick_announces(ctx);
        }
        events.append(&mut self.deferred_events);
        events
    }

    // ------------------------------------------------------------------
    // Multicast machinery
    // ------------------------------------------------------------------

    fn do_multicast<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        group: GroupId,
        payload: Carried<P>,
    ) -> Vec<GcsEvent<P>>
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let node = self.node;
        let state = self.group_mut(group);
        let seq = state.next_seq;
        state.next_seq += 1;
        state.send_buf.insert(seq, payload.clone());
        let peers: Vec<NodeId> = state
            .mem
            .view
            .members
            .iter()
            .copied()
            .filter(|&m| m != node)
            .collect();
        for member in peers {
            self.emit(
                ctx,
                member,
                GcsPacket::AppMsg {
                    group,
                    origin: node,
                    seq,
                    payload: payload.clone(),
                },
            );
        }
        let mut events: Vec<GcsEvent<P>> = self
            .deliver_carried(group, node, payload)
            .into_iter()
            .collect();
        events.extend(self.drain_causal_waiting(group));
        events
    }

    /// Unwraps a delivered envelope into the application upcall, doing the
    /// agreed-delivery bookkeeping for ordered messages.
    fn deliver_carried(
        &mut self,
        group: GroupId,
        appmsg_sender: NodeId,
        carried: Carried<P>,
    ) -> Option<GcsEvent<P>> {
        match carried {
            Carried::Plain(payload) => Some(GcsEvent::Deliver {
                group,
                sender: appmsg_sender,
                payload,
            }),
            Carried::Ordered {
                origin,
                origin_seq,
                payload,
            } => {
                let node = self.node;
                let state = self.group_mut(group);
                let floor = state.order_floor.entry(origin).or_insert(0);
                if origin_seq <= *floor {
                    return None; // duplicate across a sequencer change
                }
                *floor = origin_seq;
                if let Some(inbox) = state.order_inbox.get_mut(&origin) {
                    inbox.retain(|&s, _| s > origin_seq);
                }
                if origin == node {
                    state.pending_order.remove(&origin_seq);
                }
                Some(GcsEvent::DeliverAgreed {
                    group,
                    sender: origin,
                    payload,
                })
            }
            Carried::Causal { deps, payload } => {
                let state = self.group_mut(group);
                if causally_ready(&state.causal_delivered, &deps) {
                    *state.causal_delivered.entry(appmsg_sender).or_insert(0) += 1;
                    Some(GcsEvent::DeliverCausal {
                        group,
                        sender: appmsg_sender,
                        payload,
                    })
                } else {
                    state.causal_waiting.push((appmsg_sender, deps, payload));
                    None
                }
            }
        }
    }

    /// Delivers every waiting causal message whose dependencies became
    /// satisfied (to a fixpoint). Called after causal deliveries and at
    /// view installs.
    fn drain_causal_waiting(&mut self, group: GroupId) -> Vec<GcsEvent<P>> {
        let mut events = Vec::new();
        loop {
            let ready_idx = {
                let state = self.group_mut(group);
                state
                    .causal_waiting
                    .iter()
                    .position(|(_, deps, _)| causally_ready(&state.causal_delivered, deps))
            };
            let Some(idx) = ready_idx else {
                return events;
            };
            let (sender, _, payload) = {
                let state = self.group_mut(group);
                state.causal_waiting.remove(idx)
            };
            let state = self.group_mut(group);
            *state.causal_delivered.entry(sender).or_insert(0) += 1;
            events.push(GcsEvent::DeliverCausal {
                group,
                sender,
                payload,
            });
        }
    }

    fn on_app_msg<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        group: GroupId,
        origin: NodeId,
        seq: u64,
        payload: Carried<P>,
    ) -> Vec<GcsEvent<P>>
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let status = self.status(group);
        if status == GroupStatus::Idle {
            return Vec::new();
        }
        let node = self.node;
        if origin == node {
            return Vec::new();
        }
        let ticks = self.ticks;
        let state = self.group_mut(group);
        let recv = state
            .recv
            .entry(origin)
            .or_insert_with(|| RecvState::new(1));
        if seq < recv.next {
            return Vec::new(); // duplicate / already delivered
        }
        recv.buf.insert(seq, payload);
        let mut delivered: Vec<Carried<P>> = Vec::new();
        if status == GroupStatus::Member {
            // Deliver contiguously; flushing/joining nodes only buffer.
            while let Some(payload) = recv.buf.remove(&recv.next) {
                state.retained.insert((origin, recv.next), payload.clone());
                recv.next += 1;
                delivered.push(payload);
            }
        }
        let mut events = Vec::new();
        for carried in delivered {
            events.extend(self.deliver_carried(group, origin, carried));
        }
        // A causal delivery may unblock queued arrivals.
        events.extend(self.drain_causal_waiting(group));
        let state = self.group_mut(group);
        // NAK any remaining gap, rate-limited.
        let gap = state
            .recv
            .get(&origin)
            .and_then(|r| r.buf.keys().next().map(|&first| (r.next, first)));
        if let Some((next, first)) = gap {
            if first > next {
                let last_nak = state.last_nak_tick.get(&origin).copied().unwrap_or(0);
                if ticks.saturating_sub(last_nak) >= 2 || last_nak == 0 {
                    state.last_nak_tick.insert(origin, ticks.max(1));
                    self.emit(
                        ctx,
                        origin,
                        GcsPacket::Nak {
                            group,
                            origin,
                            from_seq: next,
                            to_seq: first - 1,
                        },
                    );
                }
            }
        }
        events
    }

    fn on_nak<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        requester: NodeId,
        group: GroupId,
        origin: NodeId,
        from_seq: u64,
        to_seq: u64,
    ) where
        M: Payload + From<GcsPacket<P>>,
    {
        if origin != self.node {
            return;
        }
        let Some(state) = self.groups.get(&group) else {
            return;
        };
        let resend: Vec<(u64, Carried<P>)> = state
            .send_buf
            .range(from_seq..=to_seq)
            .map(|(&s, p)| (s, p.clone()))
            .collect();
        for (seq, payload) in resend {
            self.emit(
                ctx,
                requester,
                GcsPacket::AppMsg {
                    group,
                    origin,
                    seq,
                    payload,
                },
            );
        }
    }

    fn on_ack<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        group: GroupId,
        member: NodeId,
        delivered: Vec<(NodeId, u64)>,
    ) where
        M: Payload + From<GcsPacket<P>>,
    {
        let node = self.node;
        let ticks = self.ticks;
        if self.status(group) == GroupStatus::Idle {
            return;
        }
        // Tail-gap detection: if any member (in particular the sender
        // itself, whose floor equals its send horizon) has delivered
        // further than we have, the missing suffix will never be revealed
        // by a successor packet — NAK it now.
        let mut tail_naks: Vec<(NodeId, u64, u64)> = Vec::new();
        {
            let state = self.group_mut(group);
            for &(sender, floor) in &delivered {
                if sender == node {
                    continue;
                }
                let recv = state
                    .recv
                    .entry(sender)
                    .or_insert_with(|| RecvState::new(1));
                let mine = recv.next - 1;
                if floor > mine && !recv.buf.contains_key(&recv.next) {
                    let last = state.last_nak_tick.get(&sender).copied().unwrap_or(0);
                    if ticks.saturating_sub(last) >= 2 {
                        state.last_nak_tick.insert(sender, ticks.max(1));
                        tail_naks.push((sender, recv.next, floor));
                    }
                }
            }
        }
        for (origin, from_seq, to_seq) in tail_naks {
            self.emit(
                ctx,
                origin,
                GcsPacket::Nak {
                    group,
                    origin,
                    from_seq,
                    to_seq,
                },
            );
        }
        let Some(state) = self.groups.get_mut(&group) else {
            return;
        };
        state.ack_floors.insert(member, delivered);
        // Stability: a message is stable once every current member has
        // delivered it; only then may retained copies be dropped.
        if state.mem.view.members.is_empty() {
            return;
        }
        let stable_floor = |sender: NodeId| -> Option<u64> {
            let min_floor = state
                .mem
                .view
                .members
                .iter()
                .map(|&m| {
                    if m == node {
                        if sender == node {
                            state.next_seq - 1
                        } else {
                            state.recv.get(&sender).map_or(0, |r| r.next - 1)
                        }
                    } else {
                        state
                            .ack_floors
                            .get(&m)
                            .and_then(|f| floor_of(f, sender))
                            .unwrap_or(0)
                    }
                })
                .min()
                .unwrap_or(u64::MAX);
            (min_floor > 0 && min_floor < u64::MAX).then_some(min_floor)
        };
        // Every sender but this node, ascending (the receive map's order),
        // with its stable floor; this node's own floor apart.
        let stable = &mut self.stable_scratch;
        stable.clear();
        stable.extend(
            state
                .recv
                .keys()
                .filter(|&&sender| sender != node)
                .filter_map(|&sender| stable_floor(sender).map(|floor| (sender, floor))),
        );
        let own = stable_floor(node);
        let floor = |sender: NodeId| -> u64 {
            if sender == node {
                own.unwrap_or(0)
            } else {
                stable
                    .binary_search_by_key(&sender, |&(s, _)| s)
                    .map_or(0, |i| stable[i].1)
            }
        };
        if let Some(own) = own {
            // The send buffer is keyed by sequence number: the stable
            // prefix is exactly the entries up to the floor.
            while let Some(entry) = state.send_buf.first_entry() {
                if *entry.key() > own {
                    break;
                }
                entry.remove();
            }
        }
        if !state.retained.is_empty() {
            state
                .retained
                .retain(|&(sender, seq), _| seq > floor(sender));
        }
    }

    // ------------------------------------------------------------------
    // Membership: joins, prepares, flush, install
    // ------------------------------------------------------------------

    fn on_join_req<M>(&mut self, ctx: &mut Context<'_, M>, group: GroupId, joiner: NodeId)
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let node = self.node;
        if joiner == node || self.status(group) == GroupStatus::Idle {
            return;
        }
        let Some(state) = self.groups.get_mut(&group) else {
            return;
        };
        // Relay to the coordinator in case the joiner does not know it.
        if let Some(coord) = state.mem.on_join_req(node, &self.suspected, joiner) {
            self.emit(ctx, coord, GcsPacket::JoinReq { group, joiner });
        }
    }

    fn on_prepare<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        group: GroupId,
        vid: ViewId,
        candidates: Vec<NodeId>,
    ) where
        M: Payload + From<GcsPacket<P>>,
    {
        let node = self.node;
        if !candidates.contains(&node) {
            return;
        }
        let ticks = self.ticks;
        let state = self.group_mut(group);
        // The machine refuses proposals that do not dominate what we
        // installed/promised, and never promises from Idle (membership
        // requires consent — the coordinator times out on the missing
        // flush-ack and drops us).
        if !state.mem.on_prepare(node, vid, &candidates) {
            return;
        }
        state.promised_tick = ticks;
        let delivered = state.floors(node);
        let held = state.held(node);
        let causal = state.causal_snapshot();
        self.emit(
            ctx,
            vid.coordinator,
            GcsPacket::FlushAck {
                group,
                vid,
                delivered,
                held,
                causal,
            },
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn on_flush_ack<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        group: GroupId,
        from: NodeId,
        vid: ViewId,
        delivered: Vec<(NodeId, u64)>,
        held: Vec<(NodeId, u64, Carried<P>)>,
        causal: Vec<(NodeId, u64)>,
    ) -> Vec<GcsEvent<P>>
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let Some(state) = self.groups.get_mut(&group) else {
            return Vec::new();
        };
        // Validate against the membership round before absorbing the
        // report (the machine consumes the round on completion).
        let valid = state
            .mem
            .flush
            .as_ref()
            .is_some_and(|fl| fl.vid == vid && fl.candidates.contains(&from));
        if !valid {
            return Vec::new();
        }
        state
            .vc
            .as_mut()
            .expect("flush round has message-plane data")
            .absorb(delivered, held, causal);
        match state.mem.on_flush_ack(from, vid) {
            FlushProgress::Complete { vid, candidates } => {
                self.complete_view_change(ctx, group, vid, candidates)
            }
            _ => Vec::new(),
        }
    }

    /// All candidates flushed: compute the cut, distribute `Install`.
    fn complete_view_change<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        group: GroupId,
        vid: ViewId,
        candidates: Vec<NodeId>,
    ) -> Vec<GcsEvent<P>>
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let node = self.node;
        let state = self.group_mut(group);
        let Some(vc) = state.vc.take() else {
            return Vec::new();
        };
        let mut cut: BTreeMap<NodeId, u64> = BTreeMap::new();
        for &candidate in &candidates {
            cut.insert(candidate, 0);
        }
        for (&sender, &floor) in &vc.delivered_max {
            cut.insert(sender, floor);
        }
        // Extend each sender's cut through the pooled messages: anything
        // contiguously available to the coordinator can be delivered by all.
        for (sender, horizon) in cut.iter_mut() {
            while vc.pool.contains_key(&(*sender, *horizon + 1)) {
                *horizon += 1;
            }
        }
        let fill: Vec<(NodeId, u64, Carried<P>)> = vc
            .pool
            .iter()
            .filter(|((sender, seq), _)| *seq <= cut.get(sender).copied().unwrap_or(0))
            .map(|(&(sender, seq), p)| (sender, seq, p.clone()))
            .collect();
        let view = View::new(vid, candidates);
        let cut_vec: Vec<(NodeId, u64)> = cut.into_iter().collect();
        let causal_vec: Vec<(NodeId, u64)> = vc.causal_max.iter().map(|(&n, &c)| (n, c)).collect();
        let peers: Vec<NodeId> = view
            .members
            .iter()
            .copied()
            .filter(|&m| m != node)
            .collect();
        for member in peers {
            self.emit(
                ctx,
                member,
                GcsPacket::Install {
                    group,
                    view: view.clone(),
                    cut: cut_vec.clone(),
                    fill: fill.clone(),
                    causal: causal_vec.clone(),
                },
            );
        }
        // Blindly re-send the install for a few ticks: a single lost
        // datagram must not strand a member in the old view.
        self.group_mut(group).install_resend = Some(InstallResend {
            view: view.clone(),
            cut: cut_vec.clone(),
            fill: fill.clone(),
            causal: causal_vec.clone(),
            remaining: 3,
        });
        self.on_install(ctx, group, view, cut_vec, fill, causal_vec)
    }

    fn on_install<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        group: GroupId,
        view: View,
        cut: Vec<(NodeId, u64)>,
        fill: Vec<(NodeId, u64, Carried<P>)>,
        causal: Vec<(NodeId, u64)>,
    ) -> Vec<GcsEvent<P>>
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let node = self.node;
        let mut events = Vec::new();
        let mut cut_deliveries: Vec<(NodeId, Carried<P>)> = Vec::new();
        let mut forced = 0u64;
        let decision = self
            .groups
            .get(&group)
            .map_or(InstallDecision::Refused, |s| {
                s.mem.install_decision(node, &view)
            });
        match decision {
            InstallDecision::Refused | InstallDecision::Stale => return events,
            InstallDecision::Excluded => {
                // We were excluded (graceful leave or false suspicion).
                events.push(GcsEvent::View {
                    group,
                    view: view.clone(),
                });
                self.groups.remove(&group);
                return events;
            }
            InstallDecision::Adopt => {}
        }
        {
            let state = self.group_mut(group);
            let was_member = state.mem.had_view;
            let cut: BTreeMap<NodeId, u64> = cut.into_iter().collect();
            // Merge the fill into receive buffers.
            for (sender, seq, payload) in fill {
                if sender == node {
                    continue;
                }
                let recv = state
                    .recv
                    .entry(sender)
                    .or_insert_with(|| RecvState::new(1));
                if seq >= recv.next {
                    recv.buf.entry(seq).or_insert(payload);
                }
            }
            for (&sender, &horizon) in &cut {
                if sender == node {
                    // All our own messages are covered by the cut (we
                    // deliver them on send), so the send buffer is stable.
                    debug_assert!(state.next_seq - 1 <= horizon);
                    state.next_seq = horizon + 1;
                    state.send_buf.clear();
                    continue;
                }
                let recv = state
                    .recv
                    .entry(sender)
                    .or_insert_with(|| RecvState::new(1));
                if was_member {
                    // Deliver up to the cut (the fill guarantees the
                    // messages exist except across lossy merges).
                    while recv.next <= horizon {
                        match recv.buf.remove(&recv.next) {
                            Some(payload) => {
                                recv.next += 1;
                                cut_deliveries.push((sender, payload));
                            }
                            None => {
                                forced += horizon + 1 - recv.next;
                                recv.next = horizon + 1;
                                break;
                            }
                        }
                    }
                } else {
                    // Joiners start fresh at the cut.
                    recv.buf.retain(|&seq, _| seq > horizon);
                    recv.next = recv.next.max(horizon + 1);
                }
            }
            let state = self.group_mut(group);
            // Keep receive state only for members of the new view.
            state.recv.retain(|sender, _| view.contains(*sender));
            state.retained.clear();
            state.ack_floors.clear();
            state.last_nak_tick.clear();
            state.mem.apply_install(node, &view);
            if state.mem.flush.is_none() {
                state.vc = None;
            }
            state
                .foreign_seen
                .retain(|n, _| state.mem.foreign.contains_key(n));
        }
        self.forced_gaps += forced;
        self.views_installed += 1;
        // Unwrap the deliveries that completed the old view (bookkeeping
        // for agreed messages included).
        for (sender, carried) in cut_deliveries {
            events.extend(self.deliver_carried(group, sender, carried));
        }
        events.extend(self.drain_causal_waiting(group));
        // Adopt the view's causal horizon (joiners start from it; old
        // members only move forward) and force-deliver any causal message
        // whose dependency became unrecoverable — deterministically, since
        // post-flush every member holds the same leftovers.
        {
            let state = self.group_mut(group);
            for (sender, count) in causal {
                let entry = state.causal_delivered.entry(sender).or_insert(0);
                *entry = (*entry).max(count);
            }
        }
        let install_at = ctx.now();
        self.trace(|| GcsTrace::ViewInstalled {
            at: install_at,
            group,
            view: view.clone(),
        });
        events.extend(self.drain_causal_waiting(group));
        let leftovers: Vec<CausalPending<P>> = {
            let state = self.group_mut(group);
            let mut left = std::mem::take(&mut state.causal_waiting);
            left.sort_by(|a, b| {
                (a.0, a.1.iter().map(|&(_, c)| c).sum::<u64>())
                    .cmp(&(b.0, b.1.iter().map(|&(_, c)| c).sum::<u64>()))
            });
            left
        };
        for (sender, _, payload) in leftovers {
            self.forced_gaps += 1;
            let state = self.group_mut(group);
            *state.causal_delivered.entry(sender).or_insert(0) += 1;
            events.push(GcsEvent::DeliverCausal {
                group,
                sender,
                payload,
            });
        }
        events.push(GcsEvent::View { group, view });
        // Flush sends queued during the change.
        let pending: Vec<Carried<P>> = {
            let state = self.group_mut(group);
            state.pending_sends.drain(..).collect()
        };
        for payload in pending {
            events.extend(self.do_multicast(ctx, group, payload));
        }
        // If we are the new sequencer, drain any inherited order requests;
        // origins also re-send pending requests on their next tick.
        events.extend(self.drain_order_inbox(ctx, group));
        // Refresh liveness for all members so a freshly installed view is
        // not immediately re-torn: a stale timestamp may linger from an
        // earlier non-member contact (e.g. a connection-establishment
        // broadcast long before this node shared any group with the peer).
        let now = ctx.now();
        let members = self.groups[&group].mem.view.members.clone();
        for m in members {
            if m != node {
                self.last_heard.insert(m, now);
                self.suspected.remove(&m);
            }
        }
        events
    }

    /// Handles a view announcement. Tells the caller whether to re-form
    /// a residual side (this node was expelled from a newer incarnation)
    /// or to re-sync (this node missed the Install of a newer view that
    /// lists it).
    fn on_announce(
        &mut self,
        group: GroupId,
        from: NodeId,
        vid: ViewId,
        members: Vec<NodeId>,
    ) -> AnnounceReaction {
        let ticks = self.ticks;
        let node = self.node;
        let cfg = self.proto_cfg;
        if self.status(group) == GroupStatus::Idle {
            return AnnounceReaction::None;
        }
        let Some(state) = self.groups.get_mut(&group) else {
            return AnnounceReaction::None;
        };
        match state
            .mem
            .on_announce(&cfg, node, &self.suspected, from, vid, members)
        {
            AnnounceOutcome::Reform { epoch, candidates } => {
                AnnounceReaction::Reform { epoch, candidates }
            }
            AnnounceOutcome::Resync => AnnounceReaction::Resync,
            AnnounceOutcome::Foreign => {
                state.foreign_seen.insert(from, ticks);
                AnnounceReaction::None
            }
            AnnounceOutcome::JoinContact => {
                // A live member announced itself: aim future join requests
                // at it. Restart the singleton clock: the group clearly
                // exists.
                state.join_start_tick = ticks;
                AnnounceReaction::None
            }
            AnnounceOutcome::Ignored => AnnounceReaction::None,
        }
    }

    fn on_nonmember_send(
        &mut self,
        group: GroupId,
        origin: NodeId,
        msg_id: u64,
        payload: P,
    ) -> Vec<GcsEvent<P>> {
        if self.status(group) != GroupStatus::Member {
            return Vec::new();
        }
        let ticks = self.ticks;
        if self
            .nonmember_seen
            .insert((origin, msg_id), ticks)
            .is_some()
        {
            return Vec::new();
        }
        vec![GcsEvent::Deliver {
            group,
            sender: origin,
            payload,
        }]
    }

    // ------------------------------------------------------------------
    // Housekeeping ticks
    // ------------------------------------------------------------------

    fn tick_failure_detector<M: Payload>(&mut self, ctx: &mut Context<'_, M>) {
        let now = ctx.now();
        let timeout = self.config.suspect_timeout;
        let peers = self.take_peers(|_| true);
        for &peer in &peers {
            let heard = self.last_heard.get(&peer).copied();
            match heard {
                Some(at) if now.saturating_since(at) > timeout => {
                    if self.suspected.insert(peer) {
                        self.probe(None, || ProtoEvent::Suspect(peer));
                        self.trace(|| GcsTrace::Suspected { at: now, peer });
                    }
                }
                Some(_) => {
                    // Recently heard: clear any stale suspicion (e.g. one
                    // acquired across an old partition).
                    if self.suspected.remove(&peer) {
                        self.probe(None, || ProtoEvent::Unsuspect(peer));
                    }
                }
                None => {
                    self.last_heard.insert(peer, now);
                }
            }
        }
        self.peer_scratch = peers;
    }

    fn tick_heartbeats<M>(&mut self, ctx: &mut Context<'_, M>)
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let peers = self.take_peers(|state| {
            matches!(
                state.mem.status,
                GroupStatus::Member | GroupStatus::Flushing
            )
        });
        for &peer in &peers {
            self.emit(ctx, peer, GcsPacket::Heartbeat);
        }
        self.peer_scratch = peers;
    }

    /// Every member of the views of the groups `include` selects, other
    /// than this node, ascending and without repeats. Built in the
    /// reusable `peer_scratch` buffer, which the caller hands back when
    /// done, so a tick allocates nothing once the buffer has grown.
    fn take_peers(&mut self, include: impl Fn(&GroupState<P>) -> bool) -> Vec<NodeId> {
        let mut peers = std::mem::take(&mut self.peer_scratch);
        peers.clear();
        for state in self.groups.values().filter(|s| include(s)) {
            peers.extend(
                state
                    .mem
                    .view
                    .members
                    .iter()
                    .copied()
                    .filter(|&m| m != self.node),
            );
        }
        peers.sort_unstable();
        peers.dedup();
        peers
    }

    /// The first group after `after` (or the first group at all), in
    /// group-id order, for which `pending` holds.
    ///
    /// Tick passes walk the groups with this cursor, so a pass allocates
    /// nothing and does work only where some is pending. A pass's
    /// per-group work does nothing to a group with nothing pending, so
    /// skipping such groups is exact; and because the predicate is
    /// evaluated against the state as the walk reaches each group, work
    /// done for one group (a suspicion raised by a flush timeout, say) is
    /// seen by the groups after it, as in a walk over every group. No pass
    /// adds or removes groups while it walks.
    fn next_group(
        &self,
        after: Option<GroupId>,
        pending: impl Fn(&GroupState<P>) -> bool,
    ) -> Option<GroupId> {
        let rest = match after {
            None => self.groups.range(..),
            Some(g) => self.groups.range((Bound::Excluded(g), Bound::Unbounded)),
        };
        rest.filter(|(_, s)| pending(s)).map(|(&g, _)| g).next()
    }

    fn tick_acks<M>(&mut self, ctx: &mut Context<'_, M>)
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let node = self.node;
        let acking = self
            .groups
            .iter()
            .filter(|(_, s)| s.mem.status == GroupStatus::Member && s.mem.view.len() > 1);
        for (&group, state) in acking {
            let delivered = state.floors(node);
            for &member in state.mem.view.members.iter().filter(|&&m| m != node) {
                self.emit(
                    ctx,
                    member,
                    GcsPacket::Ack {
                        group,
                        delivered: delivered.clone(),
                    },
                );
            }
        }
    }

    /// Re-issue NAKs for gaps that persist (the original NAK or its
    /// retransmission may itself have been lost).
    fn tick_naks<M>(&mut self, ctx: &mut Context<'_, M>)
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let ticks = self.ticks;
        let mut naks: Vec<(GroupId, NodeId, u64, u64)> = Vec::new();
        for (&group, state) in &mut self.groups {
            if state.mem.status != GroupStatus::Member {
                continue;
            }
            for (&sender, recv) in &state.recv {
                if let Some(&first) = recv.buf.keys().next() {
                    if first > recv.next {
                        let last = state.last_nak_tick.get(&sender).copied().unwrap_or(0);
                        if ticks.saturating_sub(last) >= 2 {
                            naks.push((group, sender, recv.next, first - 1));
                        }
                    }
                }
            }
            for &(g, sender, _, _) in naks.iter().filter(|n| n.0 == group) {
                debug_assert_eq!(g, group);
                state.last_nak_tick.insert(sender, ticks.max(1));
            }
        }
        for (group, origin, from_seq, to_seq) in naks {
            self.emit(
                ctx,
                origin,
                GcsPacket::Nak {
                    group,
                    origin,
                    from_seq,
                    to_seq,
                },
            );
        }
    }

    /// Retransmits in-flight `Prepare`s (to candidates that have not
    /// flush-acked) and freshly installed views; both are idempotent, and
    /// without retransmission a single lost control datagram could stall a
    /// view change for a whole timeout cycle.
    fn tick_resends<M>(&mut self, ctx: &mut Context<'_, M>)
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let node = self.node;
        let ticks = self.ticks;
        let mut cursor = None;
        while let Some(group) = self.next_group(cursor, |s| {
            s.install_resend.is_some()
                || (s.mem.flush.is_some()
                    && s.vc
                        .as_ref()
                        .is_some_and(|vc| ticks.saturating_sub(vc.last_prepare_tick) >= 2))
        }) {
            cursor = Some(group);
            // Re-send pending Prepares.
            let prepare: Option<(ViewId, Vec<NodeId>, Vec<NodeId>)> = {
                let state = self.group_mut(group);
                match (&state.mem.flush, state.vc.as_mut()) {
                    (Some(fl), Some(vc)) if ticks.saturating_sub(vc.last_prepare_tick) >= 2 => {
                        vc.last_prepare_tick = ticks;
                        let missing: Vec<NodeId> = fl
                            .candidates
                            .iter()
                            .copied()
                            .filter(|c| !fl.acked.contains(c) && *c != node)
                            .collect();
                        Some((fl.vid, fl.candidates.clone(), missing))
                    }
                    _ => None,
                }
            };
            if let Some((vid, candidates, missing)) = prepare {
                for candidate in missing {
                    self.emit(
                        ctx,
                        candidate,
                        GcsPacket::Prepare {
                            group,
                            vid,
                            candidates: candidates.clone(),
                        },
                    );
                }
            }
            // Re-send recent installs.
            type InstallParts<P> = (
                View,
                Vec<(NodeId, u64)>,
                Vec<(NodeId, u64, Carried<P>)>,
                Vec<(NodeId, u64)>,
            );
            let install: Option<InstallParts<P>> = {
                let state = self.group_mut(group);
                match state.install_resend.as_mut() {
                    Some(resend) if resend.remaining > 0 => {
                        resend.remaining -= 1;
                        Some((
                            resend.view.clone(),
                            resend.cut.clone(),
                            resend.fill.clone(),
                            resend.causal.clone(),
                        ))
                    }
                    Some(_) => {
                        state.install_resend = None;
                        None
                    }
                    None => None,
                }
            };
            if let Some((view, cut, fill, causal)) = install {
                let peers: Vec<NodeId> = view
                    .members
                    .iter()
                    .copied()
                    .filter(|&m| m != node)
                    .collect();
                for member in peers {
                    self.emit(
                        ctx,
                        member,
                        GcsPacket::Install {
                            group,
                            view: view.clone(),
                            cut: cut.clone(),
                            fill: fill.clone(),
                            causal: causal.clone(),
                        },
                    );
                }
            }
        }
    }

    /// Re-sends unsequenced agreed-multicast requests to the current
    /// sequencer (the original may have been lost, or the sequencer may
    /// have changed).
    fn tick_order_resends<M>(&mut self, ctx: &mut Context<'_, M>)
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let node = self.node;
        let mut resend: Vec<(GroupId, NodeId, u64, P)> = Vec::new();
        let mut local: Vec<(GroupId, u64, P)> = Vec::new();
        let mut stalled: Vec<(GroupId, usize)> = Vec::new();
        for (&group, state) in &self.groups {
            if state.mem.status != GroupStatus::Member || state.pending_order.is_empty() {
                continue;
            }
            stalled.push((group, state.pending_order.len()));
            match state.mem.view.coordinator_candidate() {
                Some(seq_node) if seq_node == node => {
                    for (&origin_seq, payload) in &state.pending_order {
                        local.push((group, origin_seq, payload.clone()));
                    }
                }
                Some(seq_node) => {
                    for (&origin_seq, payload) in &state.pending_order {
                        resend.push((group, seq_node, origin_seq, payload.clone()));
                    }
                }
                None => {}
            }
        }
        for (group, seq_node, origin_seq, payload) in resend {
            self.emit(
                ctx,
                seq_node,
                GcsPacket::OrderReq {
                    group,
                    origin: node,
                    origin_seq,
                    payload,
                },
            );
        }
        for (group, origin_seq, payload) in local {
            let events = self.on_order_req(ctx, group, node, origin_seq, payload);
            self.deferred_events.extend(events);
        }
        let at = self.trace_now;
        for (group, pending) in stalled {
            self.trace(|| GcsTrace::AgreedStalled { at, group, pending });
        }
    }

    fn tick_joins<M>(&mut self, ctx: &mut Context<'_, M>) -> Vec<GcsEvent<P>>
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let node = self.node;
        let ticks = self.ticks;
        let join_retry_ticks = self.config.join_retry_ticks;
        let singleton_form_ticks = self.config.singleton_form_ticks;
        let mut events = Vec::new();
        let joining: Vec<GroupId> = self
            .groups
            .iter()
            .filter(|(_, s)| s.mem.status == GroupStatus::Joining)
            .map(|(&g, _)| g)
            .collect();
        for group in joining {
            let (resend, form_singleton) = {
                let state = self.group_mut(group);
                let resend = ticks.saturating_sub(state.last_join_send_tick) >= join_retry_ticks;
                let form = ticks.saturating_sub(state.join_start_tick) >= singleton_form_ticks
                    && state.mem.promised.is_none();
                (resend, form)
            };
            if form_singleton {
                self.probe(Some(group), || ProtoEvent::SingletonForm);
                let state = self.group_mut(group);
                let Some(view) = state.mem.singleton_form(node) else {
                    continue;
                };
                self.views_installed += 1;
                let at = self.trace_now;
                self.trace(|| GcsTrace::ViewInstalled {
                    at,
                    group,
                    view: view.clone(),
                });
                events.push(GcsEvent::View { group, view });
                let pending: Vec<Carried<P>> = {
                    let state = self.group_mut(group);
                    state.pending_sends.drain(..).collect()
                };
                for payload in pending {
                    events.extend(self.do_multicast(ctx, group, payload));
                }
                continue;
            }
            if resend {
                self.group_mut(group).last_join_send_tick = ticks;
                let targets = self.join_targets(group);
                for target in targets {
                    self.emit(
                        ctx,
                        target,
                        GcsPacket::JoinReq {
                            group,
                            joiner: node,
                        },
                    );
                }
            }
        }
        // Re-send LeaveReqs periodically: the original may have hit a dead
        // target or a coordinator that abandoned its flush. The old code
        // only retried on an exact tick-modulo while `Member` — a leaver
        // whose coordinator went quiet mid-flush twice in a row (so the
        // node sat in `Flushing` across the modulo instants) never re-sent
        // and stalled until the force-quit. Track the last send explicitly
        // and retry while flushing too.
        let leave_retries: Vec<(GroupId, NodeId)> = self
            .groups
            .iter()
            .filter(|(_, s)| {
                s.mem.leaving
                    && matches!(s.mem.status, GroupStatus::Member | GroupStatus::Flushing)
                    && ticks.saturating_sub(s.last_leave_send_tick) >= join_retry_ticks
            })
            .filter_map(|(&g, s)| s.mem.leave_target(node, &self.suspected).map(|t| (g, t)))
            .collect();
        for (group, target) in leave_retries {
            self.group_mut(group).last_leave_send_tick = ticks;
            self.emit(
                ctx,
                target,
                GcsPacket::LeaveReq {
                    group,
                    leaver: node,
                },
            );
        }
        // Forced leave for nodes whose LeaveReq went unanswered.
        let stale_leavers: Vec<GroupId> = self
            .groups
            .iter()
            .filter(|(_, s)| {
                s.mem.leaving
                    && ticks.saturating_sub(s.leave_tick) > 2 * self.config.flush_timeout_ticks
            })
            .map(|(&g, _)| g)
            .collect();
        for group in stale_leavers {
            self.probe(Some(group), || ProtoEvent::ForceLeave);
            self.groups.remove(&group);
        }
        events
    }

    fn tick_view_changes<M>(&mut self, ctx: &mut Context<'_, M>)
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let node = self.node;
        let ticks = self.ticks;
        let flush_timeout_ticks = self.config.flush_timeout_ticks;
        let mut cursor = None;
        loop {
            let suspected = &self.suspected;
            let Some(group) = self.next_group(cursor, |s| {
                s.mem.flush.is_some()
                    || matches!(s.mem.status, GroupStatus::Flushing | GroupStatus::Joining)
                    || s.mem.election(node, suspected).is_some()
            }) else {
                break;
            };
            cursor = Some(group);
            // Abandon flushes whose coordinator went quiet, releasing any
            // sends that were queued behind the promise. A joiner's stale
            // promise is abandoned too: it blocks singleton formation,
            // and no surviving coordinator will ever resolve it.
            let abandoned = {
                let state = self.group_mut(group);
                let stale = ticks.saturating_sub(state.promised_tick) > 2 * flush_timeout_ticks;
                stale
                    && (state.mem.status == GroupStatus::Flushing
                        || (state.mem.status == GroupStatus::Joining
                            && state.mem.promised.is_some()))
            };
            if abandoned {
                self.probe(Some(group), || ProtoEvent::AbandonFlush);
                let pending: Vec<Carried<P>> = {
                    let state = self.group_mut(group);
                    state.mem.abandon_flush();
                    state.pending_sends.drain(..).collect()
                };
                for payload in pending {
                    let events = self.do_multicast(ctx, group, payload);
                    self.deferred_events.extend(events);
                }
            }
            // Coordinator-side timeout: drop unresponsive candidates, retry.
            let retry = {
                let state = self.group_mut(group);
                state.mem.flush.is_some()
                    && matches!(&state.vc,
                        Some(vc) if ticks.saturating_sub(vc.start_tick) > flush_timeout_ticks)
            };
            if retry {
                let state = self.group_mut(group);
                state.vc = None;
                if let Some(fl) = state.mem.flush_timeout() {
                    let now = ctx.now();
                    let timeout = self.config.suspect_timeout;
                    // A missing ack alone is not evidence of death: the
                    // ack may have been lost to churn right after a
                    // partition heals. Only suspect a non-acker that is
                    // also silent; a demonstrably live peer simply gets
                    // another chance in the retried view change.
                    let silent: Vec<NodeId> = fl
                        .candidates
                        .iter()
                        .copied()
                        .filter(|c| {
                            self.last_heard
                                .get(c)
                                .is_none_or(|&at| now.saturating_since(at) > timeout)
                        })
                        .collect();
                    self.probe(Some(group), || ProtoEvent::FlushTimeout {
                        silent: silent.clone(),
                    });
                    for candidate in &fl.candidates {
                        if !fl.acked.contains(candidate)
                            && silent.contains(candidate)
                            && self.suspected.insert(*candidate)
                        {
                            let peer = *candidate;
                            let at = self.trace_now;
                            self.trace(|| GcsTrace::Suspected { at, peer });
                        }
                    }
                }
            }
            // The membership election (stale foreign entries were expired
            // by `tick_prune` just before this runs).
            let Some(state) = self.groups.get(&group) else {
                continue;
            };
            if let Some((epoch, candidates)) = state.mem.election(node, &self.suspected) {
                self.probe(Some(group), || ProtoEvent::DoElection);
                self.initiate_view_change(ctx, group, epoch, candidates);
            }
        }
    }

    fn initiate_view_change<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        group: GroupId,
        epoch: u64,
        candidates: Vec<NodeId>,
    ) where
        M: Payload + From<GcsPacket<P>>,
    {
        let node = self.node;
        let ticks = self.ticks;
        let vid = {
            let state = self.group_mut(group);
            // Promises the proposal to this node, self-acks, clears the
            // foreign book and flips to `Flushing`.
            let vid = state.mem.begin_view_change(node, epoch, &candidates);
            state.foreign_seen.clear();
            state.vc = Some(VcData::new(ticks));
            state.promised_tick = ticks;
            vid
        };
        for &candidate in &candidates {
            if candidate != node {
                self.emit(
                    ctx,
                    candidate,
                    GcsPacket::Prepare {
                        group,
                        vid,
                        candidates: candidates.clone(),
                    },
                );
            }
        }
        // Flush ourselves inline (message-plane side of the self-ack).
        {
            let state = self.group_mut(group);
            let delivered = state.floors(node);
            let held = state.held(node);
            let causal = state.causal_snapshot();
            if let Some(vc) = state.vc.as_mut() {
                vc.absorb(delivered, held, causal);
            }
        }
        // Singleton proposals complete immediately; surface the install's
        // upcalls through the deferred queue (this runs inside a tick).
        if candidates == [node] {
            if let FlushProgress::Complete { vid, candidates } =
                self.group_mut(group).mem.on_flush_ack(node, vid)
            {
                let events = self.complete_view_change(ctx, group, vid, candidates);
                self.deferred_events.extend(events);
            }
        }
    }

    fn tick_announces<M>(&mut self, ctx: &mut Context<'_, M>)
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let node = self.node;
        let announces: Vec<(GroupId, ViewId, Vec<NodeId>)> = self
            .groups
            .iter()
            .filter_map(|(&g, s)| {
                s.mem
                    .announce_payload(node)
                    .map(|(vid, members)| (g, vid, members))
            })
            .collect();
        for (group, vid, members) in announces {
            // Members receive announces too: one that never installed
            // the announced view detects its lost Install and re-syncs.
            let targets: Vec<NodeId> = self
                .bootstrap
                .iter()
                .copied()
                .filter(|n| *n != node)
                .collect();
            for target in targets {
                self.emit(
                    ctx,
                    target,
                    GcsPacket::Announce {
                        group,
                        vid,
                        members: members.clone(),
                    },
                );
            }
        }
    }

    fn tick_prune(&mut self) {
        let ticks = self.ticks;
        let horizon = 10 * self.config.announce_every_ticks;
        self.nonmember_seen
            .retain(|_, &mut seen| ticks.saturating_sub(seen) <= horizon);
        let expiry = self.config.foreign_expiry_ticks;
        let stale = |seen: u64| ticks.saturating_sub(seen) > expiry;
        let mut cursor = None;
        while let Some(group) =
            self.next_group(cursor, |s| s.foreign_seen.values().any(|&seen| stale(seen)))
        {
            cursor = Some(group);
            let expired: Vec<NodeId> = self.groups[&group]
                .foreign_seen
                .iter()
                .filter(|(_, &seen)| stale(seen))
                .map(|(&peer, _)| peer)
                .collect();
            for peer in expired {
                self.probe(Some(group), || ProtoEvent::ExpireForeign(peer));
                let state = self.groups.get_mut(&group).expect("group exists");
                state.foreign_seen.remove(&peer);
                state.mem.expire_foreign(peer);
            }
        }
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn group_mut(&mut self, group: GroupId) -> &mut GroupState<P> {
        self.groups.entry(group).or_insert_with(GroupState::new)
    }

    fn join_targets(&self, group: GroupId) -> Vec<NodeId> {
        let mut targets: BTreeSet<NodeId> = self.bootstrap.iter().copied().collect();
        if let Some(state) = self.groups.get(&group) {
            targets.extend(state.mem.join_contacts.iter().copied());
        }
        targets.remove(&self.node);
        targets.into_iter().collect()
    }

    fn emit<M>(&self, ctx: &mut Context<'_, M>, dst: NodeId, pkt: GcsPacket<P>)
    where
        M: Payload + From<GcsPacket<P>>,
    {
        ctx.send(self.port, Endpoint::new(dst, self.port), M::from(pkt));
    }
}

/// The membership-plane projection of a packet: the [`ProtoMsg`] the pure
/// state machine would receive for it, if any. Only evaluated when a proto
/// probe is installed (replay-equivalence tests).
fn proto_msg_of<P: Payload>(pkt: &GcsPacket<P>) -> Option<(GroupId, ProtoMsg)> {
    match pkt {
        GcsPacket::JoinReq { group, joiner } => {
            Some((*group, ProtoMsg::JoinReq { joiner: *joiner }))
        }
        GcsPacket::LeaveReq { group, leaver } => {
            Some((*group, ProtoMsg::LeaveReq { leaver: *leaver }))
        }
        GcsPacket::Prepare {
            group,
            vid,
            candidates,
        } => Some((
            *group,
            ProtoMsg::Prepare {
                vid: *vid,
                candidates: candidates.clone(),
            },
        )),
        GcsPacket::FlushAck { group, vid, .. } => Some((*group, ProtoMsg::FlushAck { vid: *vid })),
        GcsPacket::Install { group, view, .. } => {
            Some((*group, ProtoMsg::Install { view: view.clone() }))
        }
        GcsPacket::Announce {
            group,
            vid,
            members,
        } => Some((
            *group,
            ProtoMsg::Announce {
                vid: *vid,
                members: members.clone(),
            },
        )),
        _ => None,
    }
}

/// The floor `sender` has in an `Ack`'s floor list, if listed. When a
/// sender is listed twice the last entry counts, as it would in a map
/// built from the list.
fn floor_of(floors: &[(NodeId, u64)], sender: NodeId) -> Option<u64> {
    floors
        .iter()
        .rev()
        .find(|&&(s, _)| s == sender)
        .map(|&(_, floor)| floor)
}

/// Whether every causal dependency is satisfied by the local delivery
/// counts.
fn causally_ready(delivered: &BTreeMap<NodeId, u64>, deps: &[(NodeId, u64)]) -> bool {
    deps.iter()
        .all(|(n, need)| delivered.get(n).copied().unwrap_or(0) >= *need)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn causal_readiness_checks_every_dependency() {
        let mut delivered = BTreeMap::new();
        delivered.insert(NodeId(1), 3u64);
        delivered.insert(NodeId(2), 1u64);
        assert!(causally_ready(&delivered, &[]));
        assert!(causally_ready(&delivered, &[(NodeId(1), 3)]));
        assert!(causally_ready(
            &delivered,
            &[(NodeId(1), 2), (NodeId(2), 1)]
        ));
        assert!(!causally_ready(&delivered, &[(NodeId(1), 4)]));
        assert!(
            !causally_ready(&delivered, &[(NodeId(3), 1)]),
            "unknown senders count as zero delivered"
        );
    }

    #[test]
    fn not_member_error_is_a_real_error() {
        let err = NotMemberError { group: GroupId(9) };
        assert_eq!(err.to_string(), "not a member of group g9");
        let boxed: Box<dyn std::error::Error> = Box::new(err);
        assert!(boxed.source().is_none());
    }

    #[test]
    fn group_state_floors_include_self() {
        // Fresh state: own floor is zero (next_seq starts at 1).
        let floors = GroupState::<u8>::new().floors(NodeId(5));
        assert_eq!(floors, vec![(NodeId(5), 0)]);
    }
}
