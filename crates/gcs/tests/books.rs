//! The housekeeping state a node maintains instead of scanning its groups
//! every tick — the peer table and the per-pass worklists — is checked
//! against a full recomputation after every tick in builds with debug
//! assertions (`cargo test`'s default). These runs drive two overlapping
//! groups through every membership path so that the check sees joins,
//! leaves, singleton formation, crashes and restarts, partitions and
//! merges, with traffic of all three ordering classes in flight; a
//! mismatch panics inside the simulation.

mod common;

use std::time::Duration;

use common::*;
use gcs::{GroupId, GroupStatus};
use simnet::{LinkProfile, NodeId, SimTime, Simulation};

const A: GroupId = GroupId(41);
const B: GroupId = GroupId(42);

fn members(sim: &Simulation<Wire>, node: NodeId, group: GroupId) -> Vec<NodeId> {
    view_at(sim, node, group).map_or_else(Vec::new, |v| v.members)
}

#[test]
fn maintained_state_tracks_churn_crashes_and_partitions() {
    let mut sim = Simulation::new(11);
    sim.set_default_profile(LinkProfile::lan().with_loss(0.01));
    let ids = boot(&mut sim, 5);
    sim.run_until(SimTime::from_millis(100));
    // A: n1..n4 by joins; B: n3..n5, n5 forming a singleton first.
    create(&mut sim, NodeId(1), A);
    for &id in &ids[1..4] {
        join(&mut sim, id, A, &[NodeId(1)]);
    }
    join(&mut sim, NodeId(5), B, &[]);
    sim.run_for(Duration::from_secs(3));
    join(&mut sim, NodeId(3), B, &[NodeId(5)]);
    join(&mut sim, NodeId(4), B, &[NodeId(5)]);
    sim.run_for(Duration::from_secs(3));
    for v in 0..20 {
        say(&mut sim, NodeId(2), A, v);
        say_agreed(&mut sim, NodeId(4), B, 100 + v);
        say_causal(&mut sim, NodeId(3), A, 200 + v);
        sim.run_for(Duration::from_millis(20));
    }
    // A graceful leave and a rejoin.
    sim.invoke(NodeId(2), |app: &mut App, ctx| app.gcs.leave(ctx, A))
        .unwrap();
    sim.run_for(Duration::from_secs(2));
    join(&mut sim, NodeId(2), A, &[NodeId(1)]);
    sim.run_for(Duration::from_secs(2));
    // A crash of a node in both groups, and its restart empty-handed.
    let crash = sim.now();
    sim.crash_at(crash, NodeId(4));
    sim.run_for(Duration::from_secs(2));
    sim.restart_at(sim.now(), NodeId(4), App::new(NodeId(4), ids.clone()));
    sim.run_for(Duration::from_millis(200));
    join(&mut sim, NodeId(4), A, &[NodeId(1)]);
    join(&mut sim, NodeId(4), B, &[NodeId(5)]);
    sim.run_for(Duration::from_secs(3));
    for &id in &ids[..4] {
        assert_eq!(members(&sim, id, A), ids[..4].to_vec(), "group A at {id}");
    }
    // A partition across both groups, traffic on both sides, a heal.
    sim.partition_at(
        sim.now(),
        &[NodeId(1), NodeId(2)],
        &[NodeId(3), NodeId(4), NodeId(5)],
    );
    for v in 0..10 {
        say(&mut sim, NodeId(1), A, 300 + v);
        say(&mut sim, NodeId(3), A, 400 + v);
        sim.run_for(Duration::from_millis(100));
    }
    sim.run_for(Duration::from_secs(2));
    sim.heal_all_at(sim.now());
    sim.run_for(Duration::from_secs(6));
    // Group A is not asserted after the heal: its merge leaves n4 behind
    // in the stale view [n3, n4] for good (n3 moved on to n1's view, and
    // n4 neither coordinates nor hears an announce from a member it
    // lists). CHANGES.md records this liveness defect.
    for &id in &ids[2..] {
        assert_eq!(members(&sim, id, B), ids[2..].to_vec(), "group B at {id}");
    }
    // Everyone leaves B but its last member, which dissolves it.
    for id in [NodeId(3), NodeId(4)] {
        sim.invoke(id, |app: &mut App, ctx| app.gcs.leave(ctx, B))
            .unwrap();
    }
    sim.run_for(Duration::from_secs(3));
    sim.invoke(NodeId(5), |app: &mut App, ctx| app.gcs.leave(ctx, B))
        .unwrap();
    sim.run_for(Duration::from_secs(1));
    for &id in &ids {
        let status = sim.with_process(id, |a: &App| a.gcs.status(B)).unwrap();
        assert_eq!(status, GroupStatus::Idle, "B still held at {id}");
    }
}
