//! # simnet — deterministic discrete-event network simulation
//!
//! This crate is the substrate for the fault-tolerant video-on-demand
//! reproduction: it replaces the physical LAN/WAN testbeds of the paper with
//! a deterministic discrete-event simulator, so that every experiment is
//! exactly reproducible from a seed.
//!
//! The model:
//!
//! * **Nodes** ([`NodeId`]) host user-defined [`Process`] state machines.
//! * Processes exchange **datagrams** between [`Endpoint`]s (node + port),
//!   subject to per-link [`LinkProfile`]s (delay, jitter, loss, duplication,
//!   reordering, egress bandwidth). [`LinkProfile::lan`] and
//!   [`LinkProfile::wan`] model the paper's two evaluation environments.
//! * Processes arm **timers** through their [`Context`]; all side effects
//!   are applied deterministically in order.
//! * The harness injects **faults**: crashes ([`Simulation::crash_at`]),
//!   post-crash repair ([`Simulation::restart_at`]), delayed server
//!   bring-up ([`Simulation::start_node_at`]), network partitions
//!   ([`Simulation::partition_at`]) and transient degradations
//!   ([`Simulation::set_default_profile_at`], [`BurstLoss`]).
//! * Per-class traffic counters ([`NetStats`]) support the paper's overhead
//!   measurements.
//!
//! # Examples
//!
//! ```
//! use simnet::{
//!     Context, Endpoint, LinkProfile, NodeId, Payload, Port, Process, SimTime, Simulation,
//!     Timer,
//! };
//! use std::time::Duration;
//!
//! #[derive(Clone, Debug)]
//! enum Msg {
//!     Hello,
//! }
//!
//! impl Payload for Msg {
//!     fn size_bytes(&self) -> usize {
//!         16
//!     }
//! }
//!
//! struct Greeter {
//!     peer: NodeId,
//! }
//!
//! const GREET: u64 = 1;
//!
//! impl Process<Msg> for Greeter {
//!     fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
//!         ctx.set_timer_after(Duration::from_millis(10), GREET);
//!     }
//!     fn on_datagram(&mut self, _: &mut Context<'_, Msg>, _: Endpoint, _: Endpoint, _: Msg) {}
//!     fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, timer: Timer) {
//!         assert_eq!(timer.tag, GREET);
//!         ctx.send(Port(1), Endpoint::new(self.peer, Port(1)), Msg::Hello);
//!     }
//! }
//!
//! struct Listener {
//!     heard: bool,
//! }
//!
//! impl Process<Msg> for Listener {
//!     fn on_datagram(&mut self, _: &mut Context<'_, Msg>, _: Endpoint, _: Endpoint, _: Msg) {
//!         self.heard = true;
//!     }
//!     fn on_timer(&mut self, _: &mut Context<'_, Msg>, _: Timer) {}
//! }
//!
//! let mut sim = Simulation::new(7);
//! sim.set_default_profile(LinkProfile::lan());
//! sim.add_node(NodeId(1), Greeter { peer: NodeId(2) });
//! sim.add_node(NodeId(2), Listener { heard: false });
//! sim.run_until(SimTime::from_secs(1));
//! assert!(sim.with_process(NodeId(2), |l: &Listener| l.heard).unwrap());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod hash;
mod net;
mod process;
mod profile;
mod queue;
pub mod rng;
pub mod rt;
mod sim;
mod stats;
mod time;
mod topo;

pub use net::{BurstLoss, Endpoint, LinkProfile, NodeId, Payload, Port};
pub use process::{Context, Process, Timer, TimerId};
pub use profile::SimProfile;
pub use rng::SimRng;
pub use sim::{DropReason, Simulation, TraceEvent};
pub use stats::{ClassStats, NetStats};
pub use time::SimTime;
pub use topo::SiteTopology;
