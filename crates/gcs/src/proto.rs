//! The membership plane of the GCS, extracted as a pure state machine.
//!
//! Everything that decides *who is in the group* — view changes, merges,
//! expulsions, joins and leaves — lives here, side-effect free:
//! `State × Event → (State′, Vec<Action>)`. The live [`GcsNode`] embeds a
//! [`Membership`] per group and routes every membership decision through
//! it; the in-house model checker (`ftvod-mc`) drives the same code via
//! [`ProtoNode`], exhaustively exploring crash/partition/merge
//! interleavings over small node counts. One source of truth, two
//! drivers — so a checker counterexample is a real protocol bug, and a
//! protocol change cannot silently bypass the checker.
//!
//! Time never appears in this module. Every timer-driven behaviour of the
//! live node (suspicion timeouts, flush abandonment, join retries,
//! announce periods, foreign-entry expiry) is abstracted into a
//! *nondeterministic event* ([`ProtoEvent`]) whose precondition the
//! driver checks; the checker fires them in all orders, the live node
//! fires them when its clocks say so. This keeps the reachable state
//! space finite.
//!
//! [`GcsNode`]: crate::GcsNode

use std::collections::{BTreeMap, BTreeSet};

use simnet::NodeId;

use crate::types::{View, ViewId};

/// Membership status of a node with respect to one group.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum GroupStatus {
    /// Not a member and not trying to become one.
    Idle,
    /// Join requested; waiting to be included in a view.
    Joining,
    /// Member of an installed view; sends and deliveries flow normally.
    Member,
    /// Promised a view change: deliveries are paused until the install.
    Flushing,
}

/// Protocol-variant knobs for the membership state machine.
///
/// Production behaviour is [`ProtoConfig::default`]. The sole knob exists
/// so the model checker can *re-introduce* a historical bug and prove it
/// rediscovers the counterexample (see `ftvod-cli check --revert-pr4-fix`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ProtoConfig {
    /// Whether a member that learns (via an announce) that a newer
    /// incarnation of the group expelled it re-forms the residual side.
    /// Disabling this reverts the expulsion/merge-deadlock fix found by
    /// the PR 4 chaos sweep: neither side then announces a view the other
    /// treats as foreign, and the split never heals.
    pub reform_on_expulsion: bool,
}

impl Default for ProtoConfig {
    fn default() -> Self {
        ProtoConfig {
            // Test-only compile-time revert used by the gcs test suite to
            // prove the live node inherits the fix from this module.
            reform_on_expulsion: cfg!(not(feature = "revert-pr4-deadlock")),
        }
    }
}

/// A view learned from another partition's coordinator announce.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ForeignView {
    /// The announced view id.
    pub vid: ViewId,
    /// The announced membership.
    pub members: Vec<NodeId>,
}

/// Coordinator-side state of an in-progress two-phase view change
/// (membership plane only: the live node keeps the flushed message pool
/// beside it).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct FlushRound {
    /// The proposed view id.
    pub vid: ViewId,
    /// The proposed membership (sorted).
    pub candidates: Vec<NodeId>,
    /// Candidates whose flush-ack arrived (the coordinator self-acks).
    pub acked: BTreeSet<NodeId>,
}

impl FlushRound {
    /// Whether every candidate has flush-acked.
    pub fn complete(&self) -> bool {
        self.candidates.iter().all(|c| self.acked.contains(c))
    }
}

/// What [`Membership::on_flush_ack`] did with an incoming flush-ack.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FlushProgress {
    /// Not coordinating, wrong round, or not a candidate: dropped.
    Ignored,
    /// Recorded; more acks outstanding.
    Acked,
    /// All candidates acked: the round is taken out of the state and the
    /// caller must install `View::new(vid, candidates)` everywhere.
    Complete {
        /// The completed proposal id.
        vid: ViewId,
        /// The membership to install.
        candidates: Vec<NodeId>,
    },
}

/// Pure verdict on an incoming `Install` (computed before any mutation).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InstallDecision {
    /// No local state for the group: membership requires consent, a node
    /// that never promised must not be pulled in by a replayed install.
    Refused,
    /// The install does not dominate the current view: ignored.
    Stale,
    /// The new view excludes this node (graceful leave or expulsion):
    /// the caller dissolves its local state after surfacing the view.
    Excluded,
    /// The new view includes this node: apply it.
    Adopt,
}

/// What [`Membership::on_announce`] concluded.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AnnounceOutcome {
    /// Nothing to do (own view, stale, or irrelevant status).
    Ignored,
    /// A newer incarnation of the group expelled this node; it is the
    /// minimum of the residual side and must re-form it with a view
    /// change so the merge election can later reunite both incarnations.
    Reform {
        /// Epoch for the re-forming view change.
        epoch: u64,
        /// The residual membership (old view minus the expelling view).
        candidates: Vec<NodeId>,
    },
    /// The announce revealed a foreign component; it was recorded for the
    /// next merge election. The live node stamps the entry's expiry clock.
    Foreign,
    /// The announced view is *newer and lists this node*, yet this node
    /// never installed it: the `Install` was lost, and without repair the
    /// group diverges permanently (the coordinator believes the view is
    /// in force; this node still delivers in the old one — a divergence
    /// the model checker found via a single dropped Install). The caller
    /// sends a `JoinReq` to the announcer; the stateless-member machinery
    /// then re-installs the membership under a fresh epoch.
    Resync,
    /// Heard while joining: the announcer becomes a join contact and the
    /// singleton-formation clock restarts (the group clearly exists).
    JoinContact,
}

/// How [`Membership::request_leave`] starts a graceful departure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LeaveStart {
    /// Not in the group: nothing to leave.
    Ignored,
    /// Sole member: the group dissolves immediately.
    Dissolve,
    /// Leave recorded; send a `LeaveReq` to this member.
    Send(NodeId),
    /// Leave recorded, but no live peer is reachable; retries and the
    /// local force-quit are the fallback.
    NoTarget,
}

/// Per-group membership state: every field that decides who is in the
/// view. The live [`GcsNode`](crate::GcsNode) embeds one per group (its
/// message-plane state — sequence numbers, buffers, flushed pools — lives
/// beside it); [`ProtoNode`] wraps one for the model checker.
///
/// No field measures time. The live node keeps its tick bookkeeping
/// (promise age, foreign-entry freshness, retry clocks) outside and
/// expresses expiry by calling [`Membership::expire_foreign`] /
/// [`Membership::abandon_flush`] / [`Membership::flush_timeout`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Membership {
    /// Local membership status.
    pub status: GroupStatus,
    /// Currently installed view (meaningful once `had_view`).
    pub view: View,
    /// Whether any view was ever installed locally.
    pub had_view: bool,
    /// Highest view id promised to a coordinator, if any.
    pub promised: Option<ViewId>,
    /// Highest view-change epoch ever observed (proposals included).
    pub max_epoch_seen: u64,
    /// Whether a graceful leave is in progress.
    pub leaving: bool,
    /// Known members to aim join requests at (learned from announces).
    pub join_contacts: BTreeSet<NodeId>,
    /// Join requests heard and not yet covered by a view.
    pub pending_joiners: BTreeSet<NodeId>,
    /// Leave requests heard and not yet covered by a view.
    pub pending_leavers: BTreeSet<NodeId>,
    /// Coordinator-side state of an in-progress view change.
    pub flush: Option<FlushRound>,
    /// Foreign components learned from announces, keyed by announcer.
    pub foreign: BTreeMap<NodeId, ForeignView>,
}

impl Default for Membership {
    fn default() -> Self {
        Membership::new()
    }
}

impl Membership {
    /// Fresh, idle state.
    pub fn new() -> Self {
        Membership {
            status: GroupStatus::Idle,
            view: View::default(),
            had_view: false,
            promised: None,
            max_epoch_seen: 0,
            leaving: false,
            join_contacts: BTreeSet::new(),
            pending_joiners: BTreeSet::new(),
            pending_leavers: BTreeSet::new(),
            flush: None,
            foreign: BTreeMap::new(),
        }
    }

    /// Creates the group with `node` as its only member, effective
    /// immediately. Returns the installed singleton view, or `None` if
    /// the node already has state for the group.
    pub fn create(&mut self, node: NodeId) -> Option<View> {
        if self.status != GroupStatus::Idle {
            return None;
        }
        let vid = ViewId {
            epoch: self.max_epoch_seen + 1,
            coordinator: node,
        };
        self.max_epoch_seen = vid.epoch;
        self.view = View::new(vid, vec![node]);
        self.had_view = true;
        self.status = GroupStatus::Member;
        Some(self.view.clone())
    }

    /// Starts joining; `contacts` are members known out of band. Returns
    /// `false` when the node is not idle (already joining or a member).
    pub fn start_join(&mut self, contacts: &[NodeId]) -> bool {
        if self.status != GroupStatus::Idle {
            return false;
        }
        self.status = GroupStatus::Joining;
        self.join_contacts.extend(contacts.iter().copied());
        true
    }

    /// A joiner timed out waiting to be adopted: form a singleton view
    /// and rely on announces/merge to coalesce. Returns the view, or
    /// `None` when not applicable (not joining, or a promise is pending —
    /// a coordinator is already adopting us).
    pub fn singleton_form(&mut self, node: NodeId) -> Option<View> {
        if self.status != GroupStatus::Joining || self.promised.is_some() {
            return None;
        }
        self.status = GroupStatus::Idle;
        self.create(node)
    }

    /// Handles a `JoinReq` from `joiner`. When accepted, returns the
    /// member to relay the request to (the coordinator candidate, skipped
    /// when it is `node` itself or currently suspected — a request
    /// relayed to a dead coordinator is a request lost).
    ///
    /// Requests are accepted while *flushing* too: `pending_joiners`
    /// survives the promise, so a coordinator that goes quiet mid-flush
    /// cannot drop the join on the floor.
    ///
    /// A `JoinReq` from a node the view still *lists as a member* is
    /// restart evidence: a member never asks to join, so the sender must
    /// have crashed and come back empty. The model checker found that
    /// dropping such requests wedges the group whenever the restarted
    /// node is the minimum member — everyone waits for it to coordinate,
    /// while it sits stateless in `Joining`. Recording it as a pending
    /// joiner forces an epoch bump that re-installs the view onto the
    /// fresh incarnation, and stateless members are skipped as relay
    /// targets (they cannot act on the request).
    pub fn on_join_req(
        &mut self,
        node: NodeId,
        suspected: &BTreeSet<NodeId>,
        joiner: NodeId,
    ) -> Option<NodeId> {
        if joiner == node || !matches!(self.status, GroupStatus::Member | GroupStatus::Flushing) {
            return None;
        }
        // The request also supersedes any pending leave by the same node:
        // that leave came from a prior incarnation (a node that wants out
        // does not ask back in), and keeping it would veto the joiner out
        // of every future election — the checker found a restarted leaver
        // orphaned in `Joining` forever by exactly this.
        self.pending_leavers.remove(&joiner);
        self.pending_joiners.insert(joiner);
        self.view
            .members
            .iter()
            .copied()
            .find(|&m| !suspected.contains(&m) && !self.pending_joiners.contains(&m))
            .filter(|&coord| coord != node)
    }

    /// Handles a `LeaveReq` from `leaver`. Accepted while member *or*
    /// flushing (same survivability argument as joins). Returns whether
    /// the request was recorded.
    pub fn on_leave_req(&mut self, leaver: NodeId) -> bool {
        if matches!(self.status, GroupStatus::Member | GroupStatus::Flushing) {
            // Latest request wins (mirror of `on_join_req`): a leave from
            // a node we only knew as a pending joiner withdraws the join.
            self.pending_joiners.remove(&leaver);
            self.pending_leavers.insert(leaver);
            true
        } else {
            false
        }
    }

    /// Handles a `Prepare` for proposal `vid` over `candidates`. Returns
    /// `true` when the node promises (the caller must send a `FlushAck`
    /// with its message-plane floors to `vid.coordinator`).
    pub fn on_prepare(&mut self, node: NodeId, vid: ViewId, candidates: &[NodeId]) -> bool {
        if !candidates.contains(&node) {
            return false;
        }
        self.max_epoch_seen = self.max_epoch_seen.max(vid.epoch);
        // Refuse proposals that do not dominate what we installed/promised.
        if self.had_view && vid.epoch <= self.view.id.epoch {
            return false;
        }
        if let Some(promised) = self.promised {
            if vid <= promised {
                return false;
            }
        }
        if self.status == GroupStatus::Idle {
            // Membership requires consent: a node with no state for this
            // group (never joined, or just left) must not be pulled in by
            // a stale candidate list. The coordinator times out on the
            // missing flush-ack and drops us.
            return false;
        }
        self.promised = Some(vid);
        if self.status == GroupStatus::Member {
            self.status = GroupStatus::Flushing;
        }
        true
    }

    /// Coordinator side: records `from`'s flush-ack for round `vid`.
    /// On [`FlushProgress::Complete`] the round is consumed and the
    /// caller installs the new view.
    pub fn on_flush_ack(&mut self, from: NodeId, vid: ViewId) -> FlushProgress {
        let Some(fl) = self.flush.as_mut() else {
            return FlushProgress::Ignored;
        };
        if fl.vid != vid || !fl.candidates.contains(&from) {
            return FlushProgress::Ignored;
        }
        fl.acked.insert(from);
        if fl.complete() {
            let fl = self.flush.take().expect("checked above");
            return FlushProgress::Complete {
                vid: fl.vid,
                candidates: fl.candidates,
            };
        }
        FlushProgress::Acked
    }

    /// Pure verdict on an incoming install of `view` (no mutation): what
    /// the caller should do with it.
    pub fn install_decision(&self, node: NodeId, view: &View) -> InstallDecision {
        if self.status == GroupStatus::Idle {
            return InstallDecision::Refused;
        }
        if self.had_view && view.id.epoch <= self.view.id.epoch {
            return InstallDecision::Stale;
        }
        if !view.contains(node) {
            return InstallDecision::Excluded;
        }
        InstallDecision::Adopt
    }

    /// Applies an install previously judged [`InstallDecision::Adopt`]:
    /// the membership-plane mutations of adopting `view`. (The caller
    /// performs the message-plane work — cut delivery, buffer resets —
    /// and clears failure-detector suspicion for the new members.)
    pub fn apply_install(&mut self, node: NodeId, view: &View) {
        debug_assert_eq!(self.install_decision(node, view), InstallDecision::Adopt);
        self.max_epoch_seen = self.max_epoch_seen.max(view.id.epoch);
        self.pending_joiners.retain(|j| !view.contains(*j));
        self.pending_leavers
            .retain(|l| view.contains(*l) && *l != node);
        self.promised = None;
        if let Some(fl) = &self.flush {
            if fl.vid.epoch <= view.id.epoch {
                self.flush = None;
            }
        }
        self.foreign.retain(|n, _| !view.contains(*n));
        self.view = view.clone();
        self.had_view = true;
        self.status = GroupStatus::Member;
    }

    /// Handles a coordinator `Announce` of (`vid`, `members`). Mutates
    /// the foreign/contact books; the caller acts on the returned
    /// outcome. `suspected` scopes the expulsion re-form: the residual
    /// side is led by its minimum *unsuspected* member (the checker
    /// found that waiting on a dead residual leader deadlocks the merge).
    pub fn on_announce(
        &mut self,
        cfg: &ProtoConfig,
        node: NodeId,
        suspected: &BTreeSet<NodeId>,
        from: NodeId,
        vid: ViewId,
        members: Vec<NodeId>,
    ) -> AnnounceOutcome {
        match self.status {
            GroupStatus::Member => {
                self.max_epoch_seen = self.max_epoch_seen.max(vid.epoch);
                if vid.epoch > self.view.id.epoch && members.contains(&node) {
                    // A newer view lists us but we never installed it:
                    // the Install was lost in transit. Ask the announcer
                    // to re-admit us (a JoinReq from a listed member
                    // forces a re-install under a fresh epoch).
                    return AnnounceOutcome::Resync;
                }
                if vid.epoch >= self.view.id.epoch
                    && vid != self.view.id
                    && self.view.contains(from)
                    && !members.contains(&node)
                {
                    // A member we still list has reconfigured into a newer
                    // view without us: that incarnation expelled us. The
                    // epochs may even be *equal* — two sides of a healed
                    // partition reconfigure concurrently, and the one
                    // whose view still lists a member that went with the
                    // other side has no announcer of its own (the listed
                    // member is its coordinator candidate) — so any
                    // different view id at our epoch or later from a
                    // listed member is divergence, not a replay. Until
                    // we re-form, neither side announces a view the other
                    // treats as foreign (we ignore a member's announces,
                    // they elect no merge against a view containing their
                    // own coordinator), so the split would never heal.
                    // Re-form the residual side; the merge election then
                    // reunites the two incarnations. Suspected residual
                    // members are dead weight: they neither lead the
                    // re-form (waiting on one deadlocks the merge) nor
                    // belong in the re-formed view.
                    let residual: Vec<NodeId> = self
                        .view
                        .members
                        .iter()
                        .copied()
                        .filter(|m| !members.contains(m) && !suspected.contains(m))
                        .collect();
                    if cfg.reform_on_expulsion
                        && self.flush.is_none()
                        && residual.first() == Some(&node)
                    {
                        return AnnounceOutcome::Reform {
                            epoch: self.max_epoch_seen + 1,
                            candidates: residual,
                        };
                    }
                    return AnnounceOutcome::Ignored;
                }
                if self.view.contains(from) || members.contains(&node) && vid == self.view.id {
                    return AnnounceOutcome::Ignored;
                }
                self.foreign.insert(from, ForeignView { vid, members });
                AnnounceOutcome::Foreign
            }
            GroupStatus::Joining => {
                // A live member announced itself: aim future join
                // requests at it — and learn its epoch, so a singleton
                // formed later cannot reuse a view id this group already
                // issued.
                self.max_epoch_seen = self.max_epoch_seen.max(vid.epoch);
                self.join_contacts.insert(from);
                AnnounceOutcome::JoinContact
            }
            _ => AnnounceOutcome::Ignored,
        }
    }

    /// The membership election, run by whoever believes itself the
    /// minimum live member: fold suspicion, pending joins/leaves and
    /// fresh foreign views into a proposal. Pure — returns
    /// `Some((epoch, candidates))` when a view change should start, or
    /// `None` when the current view stands.
    ///
    /// Callers must pre-expire stale foreign entries
    /// ([`Membership::expire_foreign`]); every entry present is treated
    /// as fresh.
    pub fn election(
        &self,
        node: NodeId,
        suspected: &BTreeSet<NodeId>,
    ) -> Option<(u64, Vec<NodeId>)> {
        if self.status != GroupStatus::Member || self.flush.is_some() || self.leaving {
            // A leaving node must not reconfigure the group from its
            // (possibly stale) vantage point: the remaining members
            // process its LeaveReq, and the local force-quit is the
            // fallback.
            return None;
        }
        if self.view_stands(node, suspected) {
            return None;
        }
        self.propose(node, suspected)
    }

    /// The election's fast path, run on every group at every tick: `true`
    /// only when [`Membership::propose`] would return `None`, decided
    /// without allocating.
    ///
    /// With no pending joiner, leaver or foreign view, no member is
    /// stateless and nothing is added to or removed from the live
    /// members, so the proposal is exactly the live members (those not
    /// suspected), sorted and deduplicated, and it equals the view iff
    /// the view is strictly ascending and no member is suspected. When
    /// this node is not the first live member the full election returns
    /// `None` before it builds anything, and so does this.
    fn view_stands(&self, node: NodeId, suspected: &BTreeSet<NodeId>) -> bool {
        if !(self.pending_joiners.is_empty()
            && self.pending_leavers.is_empty()
            && self.foreign.is_empty())
        {
            return false;
        }
        let members = &self.view.members;
        let mut live = members.iter().filter(|m| !suspected.contains(m));
        if live.next() != Some(&node) {
            return true;
        }
        members.windows(2).all(|w| w[0] < w[1])
            && (suspected.is_empty() || !members.iter().any(|m| suspected.contains(m)))
    }

    /// The full election behind [`Membership::election`], for a member
    /// that is neither flushing nor leaving.
    fn propose(&self, node: NodeId, suspected: &BTreeSet<NodeId>) -> Option<(u64, Vec<NodeId>)> {
        // A member that re-sent a `JoinReq` restarted stateless: it can
        // neither coordinate nor be waited on — it must be re-installed.
        let stateless = |m: &NodeId| self.pending_joiners.contains(m) && *m != node;
        let alive: Vec<NodeId> = self
            .view
            .members
            .iter()
            .copied()
            .filter(|m| !suspected.contains(m) && !stateless(m))
            .collect();
        // Only the minimum live member coordinates.
        if alive.first() != Some(&node) {
            return None;
        }
        let mut candidates: BTreeSet<NodeId> = alive.iter().copied().collect();
        for joiner in &self.pending_joiners {
            if !suspected.contains(joiner) {
                candidates.insert(*joiner);
            }
        }
        for leaver in &self.pending_leavers {
            candidates.remove(leaver);
        }
        let mut merge_epoch = 0;
        for info in self.foreign.values() {
            // A foreign view may still list us (a peer that missed our
            // reconfiguration keeps us in its view). Exclude ourselves
            // from the election, otherwise `node < other` fails on both
            // sides and the split never re-merges.
            let min_other = info.members.iter().copied().filter(|&m| m != node).min();
            // Merge only if we are the global minimum; otherwise the
            // other side's coordinator will pull us in.
            if min_other.is_some_and(|other| node < other) {
                merge_epoch = merge_epoch.max(info.vid.epoch);
                candidates.extend(
                    info.members
                        .iter()
                        .copied()
                        .filter(|m| !suspected.contains(m)),
                );
            }
        }
        candidates.insert(node);
        let candidates: Vec<NodeId> = candidates.into_iter().collect();
        // An unchanged candidate list normally means the view stands —
        // unless a listed member restarted stateless, in which case the
        // same membership must be re-installed under a fresh epoch so
        // the new incarnation gets a view at all.
        let needs_reinstall = self
            .view
            .members
            .iter()
            .any(|m| stateless(m) && !suspected.contains(m));
        if candidates == self.view.members && !needs_reinstall {
            return None;
        }
        let epoch = self.max_epoch_seen.max(merge_epoch).max(self.view.id.epoch) + 1;
        Some((epoch, candidates))
    }

    /// Starts coordinating a view change over `candidates` at `epoch`:
    /// records the flush round, promises the proposal to itself and
    /// self-acks. Returns the proposal id; the caller sends `Prepare` to
    /// every other candidate (and completes immediately for singletons).
    pub fn begin_view_change(&mut self, node: NodeId, epoch: u64, candidates: &[NodeId]) -> ViewId {
        let vid = ViewId {
            epoch,
            coordinator: node,
        };
        self.max_epoch_seen = self.max_epoch_seen.max(epoch);
        let mut acked = BTreeSet::new();
        acked.insert(node);
        self.flush = Some(FlushRound {
            vid,
            candidates: candidates.to_vec(),
            acked,
        });
        self.foreign.clear();
        self.promised = Some(vid);
        if self.status == GroupStatus::Member {
            self.status = GroupStatus::Flushing;
        }
        vid
    }

    /// Coordinator-side flush timeout: abandons the round. Returns the
    /// abandoned round so the caller can suspect candidates that are
    /// both unresponsive (no ack) and demonstrably silent.
    pub fn flush_timeout(&mut self) -> Option<FlushRound> {
        self.flush.take()
    }

    /// Member-side flush abandonment: the coordinator that held our
    /// promise went quiet; resume normal delivery. A *member's* promise
    /// is kept — a newer proposal will dominate it, a replay of the dead
    /// one must not. A *joiner's* promise is dropped instead: nothing
    /// ever dominates it (no surviving coordinator knows the joiner
    /// exists), so keeping it blocks `singleton_form` forever — the
    /// checker found a joiner orphaned in `Joining` by exactly this when
    /// its adopting coordinator crashed mid-flush. Returns whether any
    /// state changed.
    pub fn abandon_flush(&mut self) -> bool {
        match self.status {
            GroupStatus::Flushing => {
                self.status = GroupStatus::Member;
                true
            }
            GroupStatus::Joining if self.promised.is_some() => {
                self.promised = None;
                true
            }
            _ => false,
        }
    }

    /// Starts a graceful leave. The node keeps operating until a view
    /// excluding it is installed (or a timeout force-quits locally).
    pub fn request_leave(&mut self, node: NodeId, suspected: &BTreeSet<NodeId>) -> LeaveStart {
        if self.status == GroupStatus::Idle {
            return LeaveStart::Ignored;
        }
        if self.view.members == [node] {
            return LeaveStart::Dissolve;
        }
        self.leaving = true;
        self.pending_leavers.insert(node);
        match self.leave_target(node, suspected) {
            Some(target) => LeaveStart::Send(target),
            None => LeaveStart::NoTarget,
        }
    }

    /// The member to aim a `LeaveReq` at: the minimum *unsuspected* other
    /// member. Aiming at the raw coordinator candidate loses the request
    /// whenever the minimum member just died or was expelled — the leaver
    /// then stalls until the force-quit while the group still counts it.
    pub fn leave_target(&self, node: NodeId, suspected: &BTreeSet<NodeId>) -> Option<NodeId> {
        self.view
            .members
            .iter()
            .copied()
            .find(|&m| m != node && !suspected.contains(&m))
    }

    /// Drops the foreign entry learned from `peer` (the live node calls
    /// this when the entry's freshness clock expires).
    pub fn expire_foreign(&mut self, peer: NodeId) {
        self.foreign.remove(&peer);
    }

    /// The announce this node should periodically send, if it is the
    /// coordinator of an installed view: `(vid, members)`.
    pub fn announce_payload(&self, node: NodeId) -> Option<(ViewId, Vec<NodeId>)> {
        if self.status == GroupStatus::Member && self.view.coordinator_candidate() == Some(node) {
            Some((self.view.id, self.view.members.clone()))
        } else {
            None
        }
    }
}

/// A membership-plane message between nodes. Mirrors the membership
/// subset of [`GcsPacket`](crate::GcsPacket), stripped of message-plane
/// freight (flush floors, cuts, fills) the pure machine does not decide
/// on.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ProtoMsg {
    /// A non-member asks to join.
    JoinReq {
        /// The joining node.
        joiner: NodeId,
    },
    /// A member asks to leave gracefully.
    LeaveReq {
        /// The leaving node.
        leaver: NodeId,
    },
    /// Phase 1 of a view change: propose and solicit flushes.
    Prepare {
        /// Proposed view id.
        vid: ViewId,
        /// Proposed membership.
        candidates: Vec<NodeId>,
    },
    /// Phase 1 response: the candidate promised.
    FlushAck {
        /// Echo of the proposal id.
        vid: ViewId,
    },
    /// Phase 2: install the new view.
    Install {
        /// The new view.
        view: View,
    },
    /// Periodic coordinator announce to non-members (drives merging).
    Announce {
        /// Current view id on the announcing side.
        vid: ViewId,
        /// Current members on the announcing side.
        members: Vec<NodeId>,
    },
}

/// An input to [`ProtoNode::step`]: a delivered message, an application
/// request, or one of the timer-driven behaviours of the live node
/// re-expressed as a nondeterministic event.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ProtoEvent {
    /// A membership message arrived from `from` (any packet also
    /// refreshes the failure detector for its sender).
    Deliver {
        /// The sending node.
        from: NodeId,
        /// The message.
        msg: ProtoMsg,
    },
    /// The failure detector started suspecting `peer` (live node: silence
    /// past the suspicion timeout; checker: enabled while `peer` is
    /// actually unreachable).
    Suspect(NodeId),
    /// The failure detector cleared its suspicion of `peer` (live node:
    /// recently heard; checker: enabled while `peer` is reachable).
    Unsuspect(NodeId),
    /// Application request: create the group as its first member.
    Create,
    /// Application request: start joining via `contacts`.
    RequestJoin {
        /// Members known out of band.
        contacts: Vec<NodeId>,
    },
    /// Application request: leave gracefully.
    RequestLeave,
    /// The membership election tick: if this node is the minimum live
    /// member and the view no longer matches reality, coordinate.
    DoElection,
    /// Coordinator-side flush timeout: abandon the round and suspect the
    /// non-ackers in `silent` (candidates that are also silent — a live
    /// peer's ack may merely have been lost).
    FlushTimeout {
        /// Non-acked candidates that are demonstrably silent.
        silent: Vec<NodeId>,
    },
    /// Member-side flush abandonment: the coordinator holding our
    /// promise went quiet; resume delivering.
    AbandonFlush,
    /// A joiner gave up waiting and forms a singleton view.
    SingletonForm,
    /// Joining: re-send join requests (the originals may have been lost).
    JoinRetry,
    /// Leaving: re-send the leave request (the original may have hit the
    /// coordinator mid-flush or a dead target).
    LeaveRetry,
    /// Leaving: the leave went unanswered too long; force-quit locally.
    ForceLeave,
    /// Coordinator announce tick (drives partition merging).
    DoAnnounce,
    /// The foreign entry learned from this announcer expired.
    ExpireForeign(NodeId),
}

/// An output of [`ProtoNode::step`].
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ProtoAction {
    /// Send `msg` to `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: ProtoMsg,
    },
    /// A view was installed locally (the replay-equivalence tests compare
    /// exactly these between the live node and the pure machine).
    Install {
        /// The installed view. For [`ProtoNode::step`] this can also be a
        /// view *excluding* the node (surfaced just before dissolving),
        /// matching the live node's upcall.
        view: View,
    },
    /// The node dropped its state for the group (graceful leave
    /// completed, expelled, or force-quit).
    Dissolve,
}

/// One node of the membership protocol over a single group, as a pure
/// state machine: `step(event) → actions`. Drives the same [`Membership`]
/// decisions as the live [`GcsNode`](crate::GcsNode); the glue around
/// them mirrors the live node's packet/timer handlers.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ProtoNode {
    /// Protocol-variant knobs.
    pub cfg: ProtoConfig,
    /// This node's id.
    pub node: NodeId,
    /// Nodes contacted for joins and announces.
    pub bootstrap: Vec<NodeId>,
    /// The failure detector's current suspicion set.
    pub suspected: BTreeSet<NodeId>,
    /// Membership state for the group.
    pub group: Membership,
}

impl ProtoNode {
    /// A fresh node: idle, suspecting nobody.
    pub fn new(cfg: ProtoConfig, node: NodeId, bootstrap: Vec<NodeId>) -> Self {
        ProtoNode {
            cfg,
            node,
            bootstrap,
            suspected: BTreeSet::new(),
            group: Membership::new(),
        }
    }

    /// Convenience: a node that already installed `view` as a member
    /// (used by the checker to start in a formed group, skipping the
    /// boring join phase).
    pub fn member_of(cfg: ProtoConfig, node: NodeId, bootstrap: Vec<NodeId>, view: View) -> Self {
        let mut n = ProtoNode::new(cfg, node, bootstrap);
        debug_assert!(view.contains(node));
        n.group.max_epoch_seen = view.id.epoch;
        n.group.view = view;
        n.group.had_view = true;
        n.group.status = GroupStatus::Member;
        n
    }

    /// Advances the machine by one event, returning the actions it emits.
    /// Events whose precondition does not hold are no-ops — the driver
    /// may fire anything at any time.
    pub fn step(&mut self, event: ProtoEvent) -> Vec<ProtoAction> {
        match event {
            ProtoEvent::Deliver { from, msg } => {
                // Any packet refreshes the failure detector.
                self.suspected.remove(&from);
                self.on_msg(from, msg)
            }
            ProtoEvent::Suspect(peer) => {
                if peer != self.node {
                    self.suspected.insert(peer);
                }
                Vec::new()
            }
            ProtoEvent::Unsuspect(peer) => {
                self.suspected.remove(&peer);
                Vec::new()
            }
            ProtoEvent::Create => match self.group.create(self.node) {
                Some(view) => vec![ProtoAction::Install { view }],
                None => Vec::new(),
            },
            ProtoEvent::RequestJoin { contacts } => {
                if self.group.start_join(&contacts) {
                    self.join_sends()
                } else {
                    Vec::new()
                }
            }
            ProtoEvent::RequestLeave => {
                match self.group.request_leave(self.node, &self.suspected) {
                    LeaveStart::Ignored | LeaveStart::NoTarget => Vec::new(),
                    LeaveStart::Dissolve => self.dissolve(),
                    LeaveStart::Send(target) => vec![ProtoAction::Send {
                        to: target,
                        msg: ProtoMsg::LeaveReq { leaver: self.node },
                    }],
                }
            }
            ProtoEvent::DoElection => match self.group.election(self.node, &self.suspected) {
                Some((epoch, candidates)) => self.begin_view_change(epoch, &candidates),
                None => Vec::new(),
            },
            ProtoEvent::FlushTimeout { silent } => {
                if let Some(fl) = self.group.flush_timeout() {
                    for c in &fl.candidates {
                        if !fl.acked.contains(c) && silent.contains(c) && *c != self.node {
                            self.suspected.insert(*c);
                        }
                    }
                }
                Vec::new()
            }
            ProtoEvent::AbandonFlush => {
                self.group.abandon_flush();
                Vec::new()
            }
            ProtoEvent::SingletonForm => match self.group.singleton_form(self.node) {
                Some(view) => vec![ProtoAction::Install { view }],
                None => Vec::new(),
            },
            ProtoEvent::JoinRetry => {
                if self.group.status == GroupStatus::Joining {
                    self.join_sends()
                } else {
                    Vec::new()
                }
            }
            ProtoEvent::LeaveRetry => {
                if self.group.leaving
                    && matches!(
                        self.group.status,
                        GroupStatus::Member | GroupStatus::Flushing
                    )
                {
                    match self.group.leave_target(self.node, &self.suspected) {
                        Some(target) => vec![ProtoAction::Send {
                            to: target,
                            msg: ProtoMsg::LeaveReq { leaver: self.node },
                        }],
                        None => Vec::new(),
                    }
                } else {
                    Vec::new()
                }
            }
            ProtoEvent::ForceLeave => {
                if self.group.leaving {
                    self.dissolve()
                } else {
                    Vec::new()
                }
            }
            // Announces go to *every* peer, members included: a member
            // serves them as lost-Install detection (see
            // [`AnnounceOutcome::Resync`]), a non-member as merge bait.
            ProtoEvent::DoAnnounce => match self.group.announce_payload(self.node) {
                Some((vid, members)) => self
                    .bootstrap
                    .iter()
                    .copied()
                    .filter(|n| *n != self.node)
                    .map(|to| ProtoAction::Send {
                        to,
                        msg: ProtoMsg::Announce {
                            vid,
                            members: members.clone(),
                        },
                    })
                    .collect(),
                None => Vec::new(),
            },
            ProtoEvent::ExpireForeign(peer) => {
                self.group.expire_foreign(peer);
                Vec::new()
            }
        }
    }

    fn on_msg(&mut self, from: NodeId, msg: ProtoMsg) -> Vec<ProtoAction> {
        match msg {
            ProtoMsg::JoinReq { joiner } => {
                match self.group.on_join_req(self.node, &self.suspected, joiner) {
                    Some(coord) => vec![ProtoAction::Send {
                        to: coord,
                        msg: ProtoMsg::JoinReq { joiner },
                    }],
                    None => Vec::new(),
                }
            }
            ProtoMsg::LeaveReq { leaver } => {
                self.group.on_leave_req(leaver);
                Vec::new()
            }
            ProtoMsg::Prepare { vid, candidates } => {
                if self.group.on_prepare(self.node, vid, &candidates) {
                    vec![ProtoAction::Send {
                        to: vid.coordinator,
                        msg: ProtoMsg::FlushAck { vid },
                    }]
                } else {
                    Vec::new()
                }
            }
            ProtoMsg::FlushAck { vid } => match self.group.on_flush_ack(from, vid) {
                FlushProgress::Complete { vid, candidates } => {
                    let view = View::new(vid, candidates);
                    let mut actions: Vec<ProtoAction> = view
                        .members
                        .iter()
                        .copied()
                        .filter(|&m| m != self.node)
                        .map(|to| ProtoAction::Send {
                            to,
                            msg: ProtoMsg::Install { view: view.clone() },
                        })
                        .collect();
                    actions.extend(self.apply_install(view));
                    actions
                }
                _ => Vec::new(),
            },
            ProtoMsg::Install { view } => self.apply_install(view),
            ProtoMsg::Announce { vid, members } => {
                match self.group.on_announce(
                    &self.cfg,
                    self.node,
                    &self.suspected,
                    from,
                    vid,
                    members,
                ) {
                    AnnounceOutcome::Reform { epoch, candidates } => {
                        self.begin_view_change(epoch, &candidates)
                    }
                    AnnounceOutcome::Resync => vec![ProtoAction::Send {
                        to: from,
                        msg: ProtoMsg::JoinReq { joiner: self.node },
                    }],
                    _ => Vec::new(),
                }
            }
        }
    }

    fn apply_install(&mut self, view: View) -> Vec<ProtoAction> {
        match self.group.install_decision(self.node, &view) {
            InstallDecision::Refused | InstallDecision::Stale => Vec::new(),
            InstallDecision::Excluded => {
                // Surface the excluding view, then drop the group state —
                // matching the live node's upcall order.
                let mut actions = vec![ProtoAction::Install { view }];
                actions.extend(self.dissolve());
                actions
            }
            InstallDecision::Adopt => {
                self.group.apply_install(self.node, &view);
                // Installing refreshes liveness for every member, so a
                // freshly installed view is not immediately re-torn.
                for &m in &view.members {
                    self.suspected.remove(&m);
                }
                vec![ProtoAction::Install { view }]
            }
        }
    }

    fn begin_view_change(&mut self, epoch: u64, candidates: &[NodeId]) -> Vec<ProtoAction> {
        let vid = self.group.begin_view_change(self.node, epoch, candidates);
        let mut actions: Vec<ProtoAction> = candidates
            .iter()
            .copied()
            .filter(|&c| c != self.node)
            .map(|to| ProtoAction::Send {
                to,
                msg: ProtoMsg::Prepare {
                    vid,
                    candidates: candidates.to_vec(),
                },
            })
            .collect();
        // Singleton proposals complete immediately.
        if candidates == [self.node] {
            if let FlushProgress::Complete { vid, candidates } =
                self.group.on_flush_ack(self.node, vid)
            {
                actions.extend(self.apply_install(View::new(vid, candidates)));
            }
        }
        actions
    }

    fn join_sends(&self) -> Vec<ProtoAction> {
        let mut targets: BTreeSet<NodeId> = self.bootstrap.iter().copied().collect();
        targets.extend(self.group.join_contacts.iter().copied());
        targets.remove(&self.node);
        targets
            .into_iter()
            .map(|to| ProtoAction::Send {
                to,
                msg: ProtoMsg::JoinReq { joiner: self.node },
            })
            .collect()
    }

    fn dissolve(&mut self) -> Vec<ProtoAction> {
        self.group = Membership::new();
        vec![ProtoAction::Dissolve]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vid(epoch: u64, coordinator: u32) -> ViewId {
        ViewId {
            epoch,
            coordinator: NodeId(coordinator),
        }
    }

    fn nodes(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    fn member(id: u32, members: &[u32], epoch: u64) -> ProtoNode {
        let view = View::new(vid(epoch, members[0]), nodes(members));
        ProtoNode::member_of(
            ProtoConfig {
                reform_on_expulsion: true,
            },
            NodeId(id),
            nodes(&[1, 2, 3, 4]),
            view,
        )
    }

    #[test]
    fn create_installs_singleton() {
        let mut n = ProtoNode::new(ProtoConfig::default(), NodeId(1), nodes(&[1, 2]));
        let actions = n.step(ProtoEvent::Create);
        assert_eq!(actions.len(), 1);
        assert!(
            matches!(&actions[0], ProtoAction::Install { view } if view.members == nodes(&[1]))
        );
        assert_eq!(n.group.status, GroupStatus::Member);
        // Idempotent: a second create is refused.
        assert!(n.step(ProtoEvent::Create).is_empty());
    }

    #[test]
    fn prepare_requires_consent_and_dominance() {
        let mut n = member(2, &[1, 2], 3);
        // Stale epoch refused.
        assert!(!n.group.on_prepare(NodeId(2), vid(3, 1), &nodes(&[1, 2])));
        // Not a candidate refused.
        assert!(!n.group.on_prepare(NodeId(2), vid(4, 1), &nodes(&[1, 3])));
        // Dominating proposal promised.
        assert!(n.group.on_prepare(NodeId(2), vid(4, 1), &nodes(&[1, 2, 3])));
        assert_eq!(n.group.status, GroupStatus::Flushing);
        // A lower-ordered competing proposal is refused once promised.
        assert!(!n.group.on_prepare(NodeId(2), vid(4, 0), &nodes(&[1, 2])));
        // Idle nodes never promise.
        let mut idle = ProtoNode::new(ProtoConfig::default(), NodeId(2), nodes(&[1, 2]));
        assert!(!idle.group.on_prepare(NodeId(2), vid(9, 1), &nodes(&[1, 2])));
    }

    #[test]
    fn install_requires_consent() {
        // A node with no state for the group must refuse an install that
        // lists it — membership by replayed datagram is not consent.
        let mut n = ProtoNode::new(ProtoConfig::default(), NodeId(2), nodes(&[1, 2]));
        let view = View::new(vid(5, 1), nodes(&[1, 2]));
        assert_eq!(
            n.group.install_decision(NodeId(2), &view),
            InstallDecision::Refused
        );
        assert!(n
            .step(ProtoEvent::Deliver {
                from: NodeId(1),
                msg: ProtoMsg::Install { view },
            })
            .is_empty());
        assert_eq!(n.group.status, GroupStatus::Idle);
    }

    #[test]
    fn coordinator_completes_flush_and_installs() {
        let mut c = member(1, &[1, 2], 1);
        // Node 3 asked to join.
        c.step(ProtoEvent::Deliver {
            from: NodeId(3),
            msg: ProtoMsg::JoinReq { joiner: NodeId(3) },
        });
        let actions = c.step(ProtoEvent::DoElection);
        // Prepares to 2 and 3.
        let prepares: Vec<_> = actions
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    ProtoAction::Send {
                        msg: ProtoMsg::Prepare { .. },
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(prepares.len(), 2);
        let proposal = vid(2, 1);
        c.step(ProtoEvent::Deliver {
            from: NodeId(2),
            msg: ProtoMsg::FlushAck { vid: proposal },
        });
        let actions = c.step(ProtoEvent::Deliver {
            from: NodeId(3),
            msg: ProtoMsg::FlushAck { vid: proposal },
        });
        assert!(actions.iter().any(
            |a| matches!(a, ProtoAction::Install { view } if view.members == nodes(&[1, 2, 3]))
        ));
        assert_eq!(c.group.view.members, nodes(&[1, 2, 3]));
        assert_eq!(c.group.status, GroupStatus::Member);
    }

    #[test]
    fn expulsion_announce_reforms_residual_side() {
        // View {1,2,3}; the {1,3} incarnation moved on at epoch 2 and its
        // coordinator announces. Node 2 (minimum of the residual {2})
        // must re-form so the merge election can reunite the halves.
        let mut n = member(2, &[1, 2, 3], 1);
        let actions = n.step(ProtoEvent::Deliver {
            from: NodeId(1),
            msg: ProtoMsg::Announce {
                vid: vid(2, 1),
                members: nodes(&[1, 3]),
            },
        });
        // Residual is the singleton {2}: completes immediately.
        assert!(actions
            .iter()
            .any(|a| matches!(a, ProtoAction::Install { view } if view.members == nodes(&[2]))));
        assert_eq!(n.group.view.members, nodes(&[2]));
        assert!(n.group.view.id.epoch > 2);
    }

    #[test]
    fn expulsion_announce_ignored_with_fix_reverted() {
        let mut n = member(2, &[1, 2, 3], 1);
        n.cfg.reform_on_expulsion = false;
        let actions = n.step(ProtoEvent::Deliver {
            from: NodeId(1),
            msg: ProtoMsg::Announce {
                vid: vid(2, 1),
                members: nodes(&[1, 3]),
            },
        });
        assert!(actions.is_empty());
        assert_eq!(
            n.group.view.members,
            nodes(&[1, 2, 3]),
            "wedged: stale view kept"
        );
    }

    #[test]
    fn merge_election_pulls_in_foreign_component() {
        let mut n = member(1, &[1, 3], 2);
        n.step(ProtoEvent::Deliver {
            from: NodeId(2),
            msg: ProtoMsg::Announce {
                vid: vid(3, 2),
                members: nodes(&[2]),
            },
        });
        let (epoch, candidates) = n
            .group
            .election(NodeId(1), &BTreeSet::new())
            .expect("merge");
        assert_eq!(candidates, nodes(&[1, 2, 3]));
        assert!(epoch > 3);
        // The non-minimum side must NOT merge (the other coordinator
        // pulls it in instead).
        let mut hi = member(2, &[2], 3);
        hi.group.max_epoch_seen = 3;
        hi.step(ProtoEvent::Deliver {
            from: NodeId(1),
            msg: ProtoMsg::Announce {
                vid: vid(2, 1),
                members: nodes(&[1, 3]),
            },
        });
        assert_eq!(hi.group.election(NodeId(2), &BTreeSet::new()), None);
    }

    #[test]
    fn leave_target_skips_suspected_minimum() {
        // S2: the old code aimed the LeaveReq at the raw coordinator
        // candidate — a just-expelled or dead minimum member — and the
        // request was lost. The target must skip suspected members.
        let n = member(3, &[1, 2, 3], 1);
        let mut suspected = BTreeSet::new();
        suspected.insert(NodeId(1));
        assert_eq!(n.group.leave_target(NodeId(3), &suspected), Some(NodeId(2)));
        assert_eq!(
            n.group.leave_target(NodeId(3), &BTreeSet::new()),
            Some(NodeId(1))
        );
    }

    #[test]
    fn join_and_leave_requests_survive_flushing() {
        // S1: a coordinator that goes quiet mid-flush must not eat
        // requests delivered while the member was flushing.
        let mut n = member(2, &[1, 2], 1);
        assert!(n.group.on_prepare(NodeId(2), vid(2, 1), &nodes(&[1, 2])));
        assert_eq!(n.group.status, GroupStatus::Flushing);
        n.step(ProtoEvent::Deliver {
            from: NodeId(3),
            msg: ProtoMsg::JoinReq { joiner: NodeId(3) },
        });
        n.step(ProtoEvent::Deliver {
            from: NodeId(1),
            msg: ProtoMsg::LeaveReq { leaver: NodeId(1) },
        });
        assert!(n.group.pending_joiners.contains(&NodeId(3)));
        assert!(n.group.pending_leavers.contains(&NodeId(1)));
        // Abandon the flush; the pending books survive for the next
        // coordinator's election.
        n.step(ProtoEvent::AbandonFlush);
        assert_eq!(n.group.status, GroupStatus::Member);
        assert!(n.group.pending_joiners.contains(&NodeId(3)));
        assert!(n.group.pending_leavers.contains(&NodeId(1)));
    }

    #[test]
    fn singleton_form_defers_to_pending_promise() {
        let mut n = ProtoNode::new(ProtoConfig::default(), NodeId(3), nodes(&[1, 2, 3]));
        n.step(ProtoEvent::RequestJoin { contacts: vec![] });
        assert_eq!(n.group.status, GroupStatus::Joining);
        assert!(n.group.on_prepare(NodeId(3), vid(4, 1), &nodes(&[1, 2, 3])));
        // A coordinator is adopting us: no singleton.
        assert!(n.step(ProtoEvent::SingletonForm).is_empty());
        assert_eq!(n.group.status, GroupStatus::Joining);
    }

    // The remaining tests each encode a counterexample the model checker
    // produced (see crates/mc): minimal traces, replayed here as the
    // regression suite for the fix.

    #[test]
    fn restarted_member_join_req_forces_reinstall() {
        // Checker trace: crash n1, restart n1. The fresh incarnation's
        // JoinReq names a listed member — restart evidence. The old code
        // dropped it and, with n1 the minimum member, every election
        // stalled waiting for n1 to coordinate. Now it must be recorded
        // and the unchanged membership re-installed under a fresh epoch.
        let mut n = member(2, &[1, 2, 3], 1);
        n.step(ProtoEvent::Deliver {
            from: NodeId(1),
            msg: ProtoMsg::JoinReq { joiner: NodeId(1) },
        });
        assert!(n.group.pending_joiners.contains(&NodeId(1)));
        // n2 coordinates despite n1 < n2: a stateless member cannot.
        let (epoch, candidates) = n
            .group
            .election(NodeId(2), &BTreeSet::new())
            .expect("re-install election");
        assert_eq!(candidates, nodes(&[1, 2, 3]), "membership unchanged");
        assert!(epoch > 1, "same members still need a fresh epoch");
    }

    #[test]
    fn lost_install_resync_via_announce() {
        // Checker trace (drop budget 1): the Install for a view listing
        // us was lost; we sit in the old view forever while the new one
        // is announced around us. Hearing a newer view that lists us must
        // trigger a JoinReq back at the announcer (restart-evidence
        // machinery then re-installs us).
        let mut n = member(3, &[1, 3], 1);
        let actions = n.step(ProtoEvent::Deliver {
            from: NodeId(1),
            msg: ProtoMsg::Announce {
                vid: vid(2, 1),
                members: nodes(&[1, 3]),
            },
        });
        assert!(
            actions.iter().any(|a| matches!(
                a,
                ProtoAction::Send { to, msg: ProtoMsg::JoinReq { joiner } }
                    if *to == NodeId(1) && *joiner == NodeId(3)
            )),
            "must ask the announcer to re-admit us: {actions:?}"
        );
    }

    #[test]
    fn residual_reform_skips_suspected_members() {
        // Checker trace: n3 expelled via announce while the residual's
        // minimum member n1 is dead. Waiting for n1 to lead the re-form
        // deadlocks the merge; the minimum *unsuspected* residual member
        // must lead instead.
        let mut n = member(3, &[1, 2, 3], 1);
        n.step(ProtoEvent::Suspect(NodeId(1)));
        let actions = n.step(ProtoEvent::Deliver {
            from: NodeId(2),
            msg: ProtoMsg::Announce {
                vid: vid(2, 2),
                members: nodes(&[2]),
            },
        });
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, ProtoAction::Install { view } if view.members == nodes(&[3]))),
            "n3 must lead the residual re-form itself: {actions:?}"
        );
    }

    #[test]
    fn equal_epoch_divergence_reforms() {
        // Checker trace (depth 7): two sides of a healed partition
        // reconfigure concurrently to the SAME epoch — n3 holds
        // v3@n3[1,3] while n1 moved to v3@n2[1,2]. n3's side has no
        // announcer of its own (its coordinator candidate n1 left), so
        // n1's equal-epoch announce is the only divergence signal and
        // must not be discarded as stale.
        let view = View::new(vid(3, 3), nodes(&[1, 3]));
        let mut n =
            ProtoNode::member_of(ProtoConfig::default(), NodeId(3), nodes(&[1, 2, 3]), view);
        let actions = n.step(ProtoEvent::Deliver {
            from: NodeId(1),
            msg: ProtoMsg::Announce {
                vid: vid(3, 2),
                members: nodes(&[1, 2]),
            },
        });
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, ProtoAction::Install { view } if view.members == nodes(&[3]))),
            "equal-epoch divergence must re-form the orphaned side: {actions:?}"
        );
        assert!(n.group.view.id.epoch > 3);
    }

    #[test]
    fn join_req_supersedes_stale_leave_req() {
        // Checker trace: n1 requests a leave, crashes, restarts and asks
        // to join — but its stale in-flight LeaveReq kept vetoing it out
        // of every election, orphaning it in Joining forever. The newer
        // request must win (and symmetrically for a leave after a join).
        let mut n = member(2, &[1, 2], 1);
        n.step(ProtoEvent::Deliver {
            from: NodeId(1),
            msg: ProtoMsg::LeaveReq { leaver: NodeId(1) },
        });
        assert!(n.group.pending_leavers.contains(&NodeId(1)));
        n.step(ProtoEvent::Deliver {
            from: NodeId(1),
            msg: ProtoMsg::JoinReq { joiner: NodeId(1) },
        });
        assert!(!n.group.pending_leavers.contains(&NodeId(1)));
        assert!(n.group.pending_joiners.contains(&NodeId(1)));
        let (_, candidates) = n
            .group
            .election(NodeId(2), &BTreeSet::new())
            .expect("the rejoin must be electable");
        assert_eq!(candidates, nodes(&[1, 2]));
        // Mirror: a later leave withdraws the pending join.
        n.step(ProtoEvent::Deliver {
            from: NodeId(1),
            msg: ProtoMsg::LeaveReq { leaver: NodeId(1) },
        });
        assert!(!n.group.pending_joiners.contains(&NodeId(1)));
        assert!(n.group.pending_leavers.contains(&NodeId(1)));
    }

    #[test]
    fn joiner_abandons_dead_coordinator_promise() {
        // Checker trace: a joiner promised a flush round whose
        // coordinator then crashed. Nothing surviving knows the joiner
        // exists, so nothing ever dominates the promise — it must be
        // abandonable, unblocking singleton formation.
        let mut n = ProtoNode::new(ProtoConfig::default(), NodeId(3), nodes(&[1, 2, 3]));
        n.step(ProtoEvent::RequestJoin { contacts: vec![] });
        assert!(n.group.on_prepare(NodeId(3), vid(4, 1), &nodes(&[1, 2, 3])));
        assert!(
            n.step(ProtoEvent::SingletonForm).is_empty(),
            "promise holds"
        );
        n.step(ProtoEvent::AbandonFlush);
        assert_eq!(n.group.promised, None);
        let actions = n.step(ProtoEvent::SingletonForm);
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, ProtoAction::Install { view } if view.members == nodes(&[3]))),
            "abandonment must unblock the singleton: {actions:?}"
        );
        assert_eq!(n.group.status, GroupStatus::Member);
    }

    /// The election without its fast path: the status guard followed by
    /// the full computation.
    fn full_election(
        m: &Membership,
        node: NodeId,
        suspected: &BTreeSet<NodeId>,
    ) -> Option<(u64, Vec<NodeId>)> {
        if m.status != GroupStatus::Member || m.flush.is_some() || m.leaving {
            return None;
        }
        m.propose(node, suspected)
    }

    /// A set drawn from `ids`, or the empty set when `keep` is false (so
    /// roughly half the cases have nothing pending and reach the fast
    /// path's decision).
    fn some_of(ids: BTreeSet<u32>, keep: bool) -> BTreeSet<NodeId> {
        if keep {
            ids.into_iter().map(NodeId).collect()
        } else {
            BTreeSet::new()
        }
    }

    mod election_fast_path {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4000))]

            /// The allocation-free fast path of `Membership::election` returns
            /// exactly what the full computation returns, over random views
            /// (sorted or not, with repeats), suspicions, pending joiners and
            /// leavers, foreign views and statuses.
            #[test]
            fn election_fast_path_matches_full_computation(
                view in (
                    prop::collection::vec(1u32..7, 0..6),
                    any::<bool>(),
                    1u64..6,
                    1u32..7,
                ),
                me in (1u32..7, 0u64..8, 0u8..8),
                pending in (
                    prop::collection::btree_set(1u32..7, 0..4),
                    any::<bool>(),
                    prop::collection::btree_set(1u32..7, 0..3),
                    any::<bool>(),
                ),
                suspicion in (
                    prop::collection::btree_set(1u32..7, 0..4),
                    any::<bool>(),
                ),
                foreign in prop::collection::vec(
                    (1u32..7, prop::collection::vec(1u32..7, 0..4), 0u64..9),
                    0..3,
                ),
            ) {
                let (members, ascending, epoch, coordinator) = view;
                let (node, max_epoch, flags) = me;
                let (joiners, with_joiners, leavers, with_leavers) = pending;
                let (suspects, with_suspects) = suspicion;
                let mut members: Vec<NodeId> = members.into_iter().map(NodeId).collect();
                if ascending {
                    members.sort_unstable();
                    members.dedup();
                }
                let mut m = Membership::new();
                m.view = View {
                    id: vid(epoch, coordinator),
                    members,
                };
                m.had_view = true;
                m.max_epoch_seen = max_epoch;
                m.status = match flags & 3 {
                    0 => GroupStatus::Joining,
                    1 => GroupStatus::Flushing,
                    _ => GroupStatus::Member,
                };
                m.leaving = flags & 4 != 0 && flags & 3 == 3;
                m.pending_joiners = some_of(joiners, with_joiners);
                m.pending_leavers = some_of(leavers, with_leavers);
                // Foreign views only in the cases that also have joiners, so
                // the fast path's empty-books case stays common.
                if with_joiners {
                    for (announcer, view, epoch) in foreign {
                        m.foreign.insert(
                            NodeId(announcer),
                            ForeignView {
                                vid: vid(epoch, announcer),
                                members: nodes(&view),
                            },
                        );
                    }
                }
                let suspected = some_of(suspects, with_suspects);
                let node = NodeId(node);
                prop_assert_eq!(
                    m.election(node, &suspected),
                    full_election(&m, node, &suspected)
                );
            }
        }
    }
}
