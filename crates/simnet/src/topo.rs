//! Composable multi-site topologies.
//!
//! A [`SiteTopology`] groups nodes into named sites (datacenters). Traffic
//! between two nodes of the same site crosses the site's LAN profile;
//! traffic between nodes of different sites crosses the inter-DC WAN
//! profile. Nodes not assigned to any site (external observers, drivers)
//! default to the LAN profile so that single-site runs keep their
//! historical behaviour.
//!
//! The topology is consulted by [`crate::Simulation`] when routing a
//! datagram, *after* explicit per-link overrides and *before* the default
//! profile — so chaos faults can still brown out an individual WAN link
//! with [`crate::Simulation::set_link_overrides_at`].

use crate::hash::FastMap;

use crate::net::{LinkProfile, NodeId};

/// One named site (datacenter) of a [`SiteTopology`].
#[derive(Clone, Debug)]
struct Site {
    name: String,
    members: Vec<NodeId>,
}

/// A multi-datacenter topology: named sites joined by a WAN profile.
///
/// # Examples
///
/// ```
/// use simnet::{LinkProfile, NodeId, SiteTopology};
///
/// let mut topo = SiteTopology::new(LinkProfile::lan(), LinkProfile::wan());
/// topo.add_site("east", &[NodeId(1), NodeId(2)]);
/// topo.add_site("west", &[NodeId(3), NodeId(4)]);
/// // Same site → LAN, cross-site → WAN.
/// assert_eq!(topo.profile_for(NodeId(1), NodeId(2)).base_delay,
///            LinkProfile::lan().base_delay);
/// assert_eq!(topo.profile_for(NodeId(1), NodeId(3)).base_delay,
///            LinkProfile::wan().base_delay);
/// ```
#[derive(Clone, Debug)]
pub struct SiteTopology {
    sites: Vec<Site>,
    lan: LinkProfile,
    wan: LinkProfile,
    site_of: FastMap<NodeId, usize>,
}

impl SiteTopology {
    /// Creates an empty topology with the given intra-site (LAN) and
    /// inter-site (WAN) link profiles.
    pub fn new(lan: LinkProfile, wan: LinkProfile) -> Self {
        SiteTopology {
            sites: Vec::new(),
            lan,
            wan,
            site_of: FastMap::default(),
        }
    }

    /// Adds a named site containing `members` and returns its index.
    ///
    /// A node may belong to at most one site; re-adding a node moves it
    /// to the new site.
    pub fn add_site(&mut self, name: &str, members: &[NodeId]) -> usize {
        let index = self.sites.len();
        for &node in members {
            self.site_of.insert(node, index);
        }
        self.sites.push(Site {
            name: name.to_string(),
            members: members.to_vec(),
        });
        index
    }

    /// Adds more nodes to an existing site (e.g. clients homed to a
    /// datacenter after the server sites were laid out).
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    pub fn home_nodes(&mut self, site: usize, members: &[NodeId]) {
        assert!(site < self.sites.len(), "no such site {site}");
        for &node in members {
            self.site_of.insert(node, site);
            self.sites[site].members.push(node);
        }
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// The name of site `index`, or `None` when out of range.
    pub fn site_name(&self, index: usize) -> Option<&str> {
        self.sites.get(index).map(|s| s.name.as_str())
    }

    /// All member nodes of site `index` (servers and homed clients), or
    /// `None` when out of range.
    pub fn site_members(&self, index: usize) -> Option<&[NodeId]> {
        self.sites.get(index).map(|s| s.members.as_slice())
    }

    /// The site index `node` belongs to, or `None` for unassigned nodes.
    pub fn site_of(&self, node: NodeId) -> Option<usize> {
        self.site_of.get(&node).copied()
    }

    /// The intra-site profile.
    pub fn lan(&self) -> &LinkProfile {
        &self.lan
    }

    /// The inter-site profile.
    pub fn wan(&self) -> &LinkProfile {
        &self.wan
    }

    /// The profile governing a datagram from `from` to `to`: WAN when the
    /// two nodes belong to different sites, LAN otherwise (including when
    /// either node is unassigned).
    pub fn profile_for(&self, from: NodeId, to: NodeId) -> &LinkProfile {
        match (self.site_of.get(&from), self.site_of.get(&to)) {
            (Some(a), Some(b)) if a != b => &self.wan,
            _ => &self.lan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_site_links_use_the_wan_profile() {
        let mut topo = SiteTopology::new(LinkProfile::lan(), LinkProfile::wan());
        let east = topo.add_site("east", &[NodeId(1), NodeId(2)]);
        let west = topo.add_site("west", &[NodeId(3)]);
        assert_eq!(topo.site_count(), 2);
        assert_eq!(topo.site_name(east), Some("east"));
        assert_eq!(topo.site_name(west), Some("west"));
        let lan_delay = LinkProfile::lan().base_delay;
        let wan_delay = LinkProfile::wan().base_delay;
        assert_eq!(topo.profile_for(NodeId(1), NodeId(2)).base_delay, lan_delay);
        assert_eq!(topo.profile_for(NodeId(1), NodeId(3)).base_delay, wan_delay);
        assert_eq!(topo.profile_for(NodeId(3), NodeId(2)).base_delay, wan_delay);
    }

    #[test]
    fn unassigned_nodes_default_to_the_lan_profile() {
        let mut topo = SiteTopology::new(LinkProfile::lan(), LinkProfile::wan());
        topo.add_site("east", &[NodeId(1)]);
        let lan_delay = LinkProfile::lan().base_delay;
        assert_eq!(topo.profile_for(NodeId(1), NodeId(9)).base_delay, lan_delay);
        assert_eq!(topo.profile_for(NodeId(9), NodeId(1)).base_delay, lan_delay);
        assert_eq!(topo.profile_for(NodeId(9), NodeId(8)).base_delay, lan_delay);
    }

    #[test]
    fn homed_nodes_join_their_site() {
        let mut topo = SiteTopology::new(LinkProfile::lan(), LinkProfile::wan());
        let east = topo.add_site("east", &[NodeId(1)]);
        let west = topo.add_site("west", &[NodeId(2)]);
        topo.home_nodes(east, &[NodeId(1000)]);
        topo.home_nodes(west, &[NodeId(1001)]);
        assert_eq!(topo.site_of(NodeId(1000)), Some(east));
        let lan_delay = LinkProfile::lan().base_delay;
        let wan_delay = LinkProfile::wan().base_delay;
        assert_eq!(
            topo.profile_for(NodeId(1000), NodeId(1)).base_delay,
            lan_delay
        );
        assert_eq!(
            topo.profile_for(NodeId(1000), NodeId(2)).base_delay,
            wan_delay
        );
        assert!(topo.site_members(east).unwrap().contains(&NodeId(1000)));
    }
}
