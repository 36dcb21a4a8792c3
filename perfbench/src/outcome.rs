//! The simulated result of a workload: every service metric the benchmark
//! reports, folded from `ClientStats`, `ServerStats`, `RunReport`, the
//! oracle and the per-class `NetStats`. For a given seed it is a pure
//! function of the run, so two runs can be compared with `==`.

use std::collections::BTreeMap;

use ftvod_core::oracle::{OracleReport, Verdict};
use ftvod_core::{ClientId, ClientStats, FleetPlan, RunReport, ServerStats};
use simnet::{ClassStats, NetStats, NodeId, SimTime};

/// Traffic classes reported per layer, in a fixed order.
pub const NET_CLASSES: [&str; 6] = [
    "video", "gcs-hb", "gcs-ctl", "vod-sync", "vod-flow", "vod-ctl",
];

/// Percentiles tried for a tail, highest first.
const TAIL_PERCENTILES: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a tail percentile must leave beyond it to be reported.
const TAIL_MIN_BEYOND: usize = 10;

/// Service metrics of one or more simulation seeds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    /// Planned sessions.
    pub sessions: u64,
    /// Planned sessions that never displayed a frame.
    pub never_served: u64,
    /// Client-seconds waiting for a first frame (never-served sessions
    /// wait until the end of the run), as `FleetReport` counts them.
    pub unserved_s: f64,
    /// Client-seconds of mid-session interruptions.
    pub stalled_s: f64,
    /// Frames skipped across all clients.
    pub skipped_frames: u64,
    /// Time to first frame of every served session, in seconds.
    pub ttff_s: Vec<f64>,
    /// `RunReport` takeover latencies, in seconds.
    pub takeover_s: Vec<f64>,
    /// Oracle verdicts judged.
    pub oracle_verdicts: u64,
    /// Verdicts that are not a pass, plus one per seed whose trace ring
    /// dropped events without the oracle already calling it inconclusive.
    pub oracle_violations: u64,
    /// Events emitted into the trace ring.
    pub trace_events: u64,
    /// Events evicted from the trace ring.
    pub trace_dropped: u64,
    /// GCS views installed (`RunReport`).
    pub views_installed: u64,
    /// GCS suspicions raised (`RunReport`).
    pub suspicions: u64,
    /// Admission rejections summed over servers.
    pub admission_rejections: u64,
    /// Replica bring-ups summed over servers.
    pub bringups: u64,
    /// Per-class network counters.
    pub net: BTreeMap<&'static str, ClassStats>,
}

impl Outcome {
    /// Folds one finished simulation. `client` and `server` read the
    /// processes' statistics; `run` and `oracle` are present on recorded
    /// runs, together with the ring's `(emitted, dropped)` counts.
    #[allow(clippy::too_many_arguments)]
    pub fn collect(
        plan: &FleetPlan,
        end: SimTime,
        client: impl Fn(ClientId) -> Option<ClientStats>,
        server: impl Fn(NodeId) -> Option<ServerStats>,
        net: &NetStats,
        run: Option<&RunReport>,
        oracle: Option<&OracleReport>,
        ring: Option<(u64, u64)>,
    ) -> Outcome {
        let mut out = Outcome {
            sessions: plan.sessions.len() as u64,
            ..Outcome::default()
        };
        for session in &plan.sessions {
            let Some(stats) = client(session.client) else {
                continue;
            };
            // Same arithmetic, in the same order, as `FleetReport::from_sim`.
            match stats.first_frame_at {
                Some(first) => {
                    let wait = first.saturating_since(session.start).as_secs_f64();
                    out.ttff_s.push(wait);
                    out.unserved_s += wait;
                }
                None => {
                    out.never_served += 1;
                    out.unserved_s += end.saturating_since(session.start).as_secs_f64();
                }
            }
            out.stalled_s += stats.interruptions.iter().map(|&(_, gap)| gap).sum::<f64>();
            out.skipped_frames += stats.skipped.total();
        }
        for node in plan.profile.server_nodes() {
            if let Some(stats) = server(node) {
                out.admission_rejections += stats.admission_rejections.total();
                out.bringups += stats.replica_bringups.total();
            }
        }
        out.net = net.iter().map(|(class, stats)| (class, *stats)).collect();
        if let Some(run) = run {
            out.takeover_s = run.takeovers.iter().map(|t| t.total_s).collect();
            out.views_installed = run.views_installed;
            out.suspicions = run.suspicions;
        }
        let (emitted, dropped) = ring.unwrap_or((0, 0));
        out.trace_events = emitted;
        out.trace_dropped = dropped;
        if let Some(oracle) = oracle {
            let verdicts = oracle.verdicts();
            out.oracle_verdicts = verdicts.len() as u64;
            out.oracle_violations = verdicts
                .iter()
                .filter(|(_, v)| **v != Verdict::Pass)
                .count() as u64;
            let inconclusive = verdicts
                .iter()
                .any(|(_, v)| matches!(v, Verdict::Inconclusive(_)));
            if dropped > 0 && !inconclusive {
                out.oracle_violations += 1;
            }
        }
        out
    }

    /// Adds another seed's outcome to this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.sessions += other.sessions;
        self.never_served += other.never_served;
        self.unserved_s += other.unserved_s;
        self.stalled_s += other.stalled_s;
        self.skipped_frames += other.skipped_frames;
        self.ttff_s.extend(other.ttff_s);
        self.takeover_s.extend(other.takeover_s);
        self.oracle_verdicts += other.oracle_verdicts;
        self.oracle_violations += other.oracle_violations;
        self.trace_events += other.trace_events;
        self.trace_dropped += other.trace_dropped;
        self.views_installed += other.views_installed;
        self.suspicions += other.suspicions;
        self.admission_rejections += other.admission_rejections;
        self.bringups += other.bringups;
        for (class, stats) in other.net {
            let sum = self.net.entry(class).or_default();
            sum.sent_msgs += stats.sent_msgs;
            sum.sent_bytes += stats.sent_bytes;
            sum.delivered_msgs += stats.delivered_msgs;
            sum.dropped_loss += stats.dropped_loss;
            sum.dropped_partition += stats.dropped_partition;
            sum.dropped_dead += stats.dropped_dead;
            sum.duplicated += stats.duplicated;
        }
    }

    /// Whether the service side (sessions, waits, stalls, frames and
    /// traffic) matches `other`, ignoring what only a recorded run has.
    pub fn same_service(&self, other: &Outcome) -> bool {
        self.sessions == other.sessions
            && self.never_served == other.never_served
            && self.unserved_s.to_bits() == other.unserved_s.to_bits()
            && self.stalled_s.to_bits() == other.stalled_s.to_bits()
            && self.skipped_frames == other.skipped_frames
            && self.ttff_s == other.ttff_s
            && self.admission_rejections == other.admission_rejections
            && self.bringups == other.bringups
            && self.net == other.net
    }

    /// Counters of `class` (zero if it never sent).
    pub fn class(&self, class: &str) -> ClassStats {
        self.net.get(class).copied().unwrap_or_default()
    }
}

/// Linear-interpolation percentile (`q` in 0..=100) of `samples`.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The highest percentile with at least ten samples strictly beyond it,
/// as `(percentile, value)`; `None` when no percentile qualifies.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    TAIL_PERCENTILES.iter().find_map(|&q| {
        let value = percentile(samples, q)?;
        let beyond = samples.iter().filter(|&&s| s > value).count();
        (beyond >= TAIL_MIN_BEYOND).then_some((q, value))
    })
}

/// Median of host-time samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 50.0), Some(2.5));
        assert_eq!(percentile(&s, 100.0), Some(4.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        let (q, value) = tail(&s).expect("100 samples have a tail");
        assert_eq!(q, 90.0);
        assert_eq!(s.iter().filter(|&&x| x > value).count(), 10);
        let few: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail(&few), None);
    }
}
