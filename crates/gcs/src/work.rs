//! Housekeeping state a [`GcsNode`](crate::GcsNode) maintains as its
//! groups change, so that a tick costs in proportion to the work pending
//! rather than to the number of groups.
//!
//! * [`PeerTable`] — every node listed in a local view, with how many
//!   groups list it and when it was last heard. The failure detector and
//!   the heartbeats walk it instead of rebuilding the peer set each tick.
//! * [`Worklist`] — for each tick pass, the groups that can have work for
//!   it, in ascending id. A list may hold groups with nothing to do (the
//!   pass re-checks each group and drops the idle ones); it must never
//!   miss a group that has work.

use std::collections::BTreeMap;

use simnet::{NodeId, SimTime};

use crate::types::GroupId;

/// One node listed in the view of at least one local group.
#[derive(Debug)]
pub(crate) struct Peer {
    pub(crate) node: NodeId,
    /// Listings of this node across the local views (a group counts once
    /// per listing).
    pub(crate) groups: u32,
    /// How many of those listings are in `Member` or `Flushing` groups,
    /// the groups heartbeats are sent for.
    pub(crate) active: u32,
    /// When a packet from the node last arrived (or liveness was last
    /// refreshed); `None` until then.
    pub(crate) last_heard: Option<SimTime>,
}

/// The failure detector's view of the world: peers in a dense table sorted
/// by node, and the last-heard times of every other node that ever sent a
/// packet. A node's time moves between the two when it becomes or stops
/// being a peer, so [`PeerTable::last_heard`] answers for any node.
#[derive(Debug, Default)]
pub(crate) struct PeerTable {
    peers: Vec<Peer>,
    others: BTreeMap<NodeId, SimTime>,
}

impl PeerTable {
    /// The peers, ascending by node.
    pub(crate) fn peers(&self) -> &[Peer] {
        &self.peers
    }

    /// Mutable access to the peer at `index` of [`PeerTable::peers`].
    pub(crate) fn peer_mut(&mut self, index: usize) -> &mut Peer {
        &mut self.peers[index]
    }

    fn find(&self, node: NodeId) -> Result<usize, usize> {
        self.peers.binary_search_by_key(&node, |p| p.node)
    }

    /// Records that `node` was heard at `at`.
    pub(crate) fn heard(&mut self, node: NodeId, at: SimTime) {
        match self.find(node) {
            Ok(i) => self.peers[i].last_heard = Some(at),
            Err(_) => {
                self.others.insert(node, at);
            }
        }
    }

    /// When `node` was last heard, peer or not.
    pub(crate) fn last_heard(&self, node: NodeId) -> Option<SimTime> {
        match self.find(node) {
            Ok(i) => self.peers[i].last_heard,
            Err(_) => self.others.get(&node).copied(),
        }
    }

    /// Counts one more listing of `node`, in an active group or not.
    pub(crate) fn list(&mut self, node: NodeId, active: bool) {
        let i = match self.find(node) {
            Ok(i) => i,
            Err(i) => {
                let last_heard = self.others.remove(&node);
                self.peers.insert(
                    i,
                    Peer {
                        node,
                        groups: 0,
                        active: 0,
                        last_heard,
                    },
                );
                i
            }
        };
        let peer = &mut self.peers[i];
        peer.groups += 1;
        peer.active += u32::from(active);
    }

    /// Withdraws one listing of `node` counted by [`PeerTable::list`]
    /// with the same `active`.
    pub(crate) fn unlist(&mut self, node: NodeId, active: bool) {
        let i = self.find(node).expect("unlisted node is a peer");
        let peer = &mut self.peers[i];
        peer.groups -= 1;
        peer.active -= u32::from(active);
        if peer.groups == 0 {
            let peer = self.peers.remove(i);
            if let Some(at) = peer.last_heard {
                self.others.insert(node, at);
            }
        }
    }

    /// Moves one listing of `node` into (`active`) or out of the active
    /// groups.
    pub(crate) fn set_active(&mut self, node: NodeId, active: bool) {
        let i = self.find(node).expect("relisted node is a peer");
        let peer = &mut self.peers[i];
        if active {
            peer.active += 1;
        } else {
            peer.active -= 1;
        }
    }

    /// Whether any non-peer time is held for a peer (never, when the
    /// table is consistent).
    #[cfg(debug_assertions)]
    pub(crate) fn others_disjoint(&self) -> bool {
        self.peers
            .iter()
            .all(|p| !self.others.contains_key(&p.node))
    }
}

/// The groups a tick pass visits, ascending by id: a sorted vector, since
/// a node's lists are short and most are empty.
#[derive(Debug, Default)]
pub(crate) struct Worklist(Vec<GroupId>);

impl Worklist {
    pub(crate) fn add(&mut self, group: GroupId) {
        if let Err(i) = self.0.binary_search(&group) {
            self.0.insert(i, group);
        }
    }

    pub(crate) fn remove(&mut self, group: GroupId) {
        if let Ok(i) = self.0.binary_search(&group) {
            self.0.remove(i);
        }
    }

    #[cfg(any(test, debug_assertions))]
    pub(crate) fn contains(&self, group: GroupId) -> bool {
        self.0.binary_search(&group).is_ok()
    }

    /// The first listed group after `after` (the first of all for
    /// `None`). A pass walks its list with this cursor, so groups listed
    /// while it runs are visited if they come later, as in a walk over
    /// every group.
    pub(crate) fn next(&self, after: Option<GroupId>) -> Option<GroupId> {
        let from = after.map_or(0, |g| self.0.partition_point(|&x| x <= g));
        self.0.get(from).copied()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = GroupId> + '_ {
        self.0.iter().copied()
    }

    /// Keeps only the groups for which `keep` holds.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(GroupId) -> bool) {
        self.0.retain(|&g| keep(g));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_heard_follows_a_node_in_and_out_of_the_table() {
        let mut table = PeerTable::default();
        let (a, b) = (NodeId(4), NodeId(2));
        table.heard(a, SimTime::from_millis(5));
        table.list(a, true);
        table.list(b, false);
        table.list(a, false);
        let nodes: Vec<NodeId> = table.peers().iter().map(|p| p.node).collect();
        assert_eq!(nodes, vec![b, a]);
        assert_eq!(table.last_heard(a), Some(SimTime::from_millis(5)));
        assert_eq!(table.last_heard(b), None);
        table.heard(a, SimTime::from_millis(9));
        table.unlist(a, true);
        assert_eq!((table.peers()[1].groups, table.peers()[1].active), (1, 0));
        table.unlist(a, false);
        assert_eq!(table.peers().len(), 1);
        assert_eq!(table.last_heard(a), Some(SimTime::from_millis(9)));
        table.set_active(b, true);
        assert_eq!(table.peers()[0].active, 1);
    }

    #[test]
    fn a_walk_sees_groups_added_after_its_cursor_only() {
        let mut list = Worklist::default();
        list.add(GroupId(5));
        list.add(GroupId(1));
        assert_eq!(list.next(None), Some(GroupId(1)));
        list.add(GroupId(0));
        list.add(GroupId(3));
        assert_eq!(list.next(Some(GroupId(1))), Some(GroupId(3)));
        list.remove(GroupId(5));
        assert_eq!(list.next(Some(GroupId(3))), None);
        assert!(list.contains(GroupId(0)));
    }
}
