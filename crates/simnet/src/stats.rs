//! Network traffic accounting.
//!
//! Every datagram handed to the network is counted under its
//! [`Payload::class`](crate::Payload::class) label. The VoD experiments use
//! this to verify the paper's claim that group-communication control traffic
//! consumes less than one thousandth of the bandwidth used for video.

use std::fmt;

/// Counters for one traffic class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Datagrams submitted to the network.
    pub sent_msgs: u64,
    /// Bytes submitted to the network (per [`Payload::size_bytes`](crate::Payload::size_bytes)).
    pub sent_bytes: u64,
    /// Datagrams delivered to a live process.
    pub delivered_msgs: u64,
    /// Datagrams dropped by the random loss model.
    pub dropped_loss: u64,
    /// Datagrams dropped because source and destination were partitioned.
    pub dropped_partition: u64,
    /// Datagrams dropped because the destination node was crashed or absent.
    pub dropped_dead: u64,
    /// Extra copies created by the duplication model.
    pub duplicated: u64,
}

/// Per-class traffic counters for a whole simulation run.
///
/// Classes are stored in first-seen order, so a class keeps its index for
/// the whole run: the engine resolves a datagram's class once, when it is
/// sent, and updates the counters of every later outcome (delivery or
/// drop) by index. A simulation has a handful of classes, so the lookup
/// is a short scan. Reports always list classes in name order.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    classes: Vec<(&'static str, ClassStats)>,
}

impl NetStats {
    /// Creates an empty set of counters.
    pub fn new() -> Self {
        NetStats::default()
    }

    /// The index of `class`, adding it with zeroed counters on first
    /// sight. Indices are stable for the life of the counters.
    pub(crate) fn class_index(&mut self, class: &'static str) -> usize {
        // Class names are string literals, so the pointer test settles
        // almost every probe; equal names at different addresses still
        // meet in one entry.
        let found = self
            .classes
            .iter()
            .position(|(name, _)| std::ptr::eq(*name, class) || *name == class);
        found.unwrap_or_else(|| {
            self.classes.push((class, ClassStats::default()));
            self.classes.len() - 1
        })
    }

    /// The name of the class at `index`.
    pub(crate) fn name(&self, index: usize) -> &'static str {
        self.classes[index].0
    }

    /// The counters of the class at `index`.
    pub(crate) fn at_mut(&mut self, index: usize) -> &mut ClassStats {
        &mut self.classes[index].1
    }

    pub(crate) fn class_mut(&mut self, class: &'static str) -> &mut ClassStats {
        let index = self.class_index(class);
        self.at_mut(index)
    }

    /// Counters for `class`, or zeroed counters if the class never sent.
    pub fn class(&self, class: &str) -> ClassStats {
        self.classes
            .iter()
            .find(|(name, _)| *name == class)
            .map(|(_, c)| *c)
            .unwrap_or_default()
    }

    /// Iterates over `(class, counters)` pairs in class-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &ClassStats)> {
        let mut sorted: Vec<(&'static str, &ClassStats)> =
            self.classes.iter().map(|(k, v)| (*k, v)).collect();
        sorted.sort_unstable_by_key(|(k, _)| *k);
        sorted.into_iter()
    }

    /// Total bytes submitted across all classes.
    pub fn total_sent_bytes(&self) -> u64 {
        self.classes.iter().map(|(_, c)| c.sent_bytes).sum()
    }

    /// Total datagrams submitted across all classes.
    pub fn total_sent_msgs(&self) -> u64 {
        self.classes.iter().map(|(_, c)| c.sent_msgs).sum()
    }

    /// Renders all counters as CSV, one row per class, with the drop count
    /// broken down per [`DropReason`](crate::DropReason) (`dropped_loss`,
    /// `dropped_partition`, `dropped_dead`) so experiment output can
    /// distinguish random loss from partitions from dead destinations.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "class,sent_msgs,sent_bytes,delivered_msgs,\
             dropped_loss,dropped_partition,dropped_dead,duplicated\n",
        );
        for (class, c) in self.iter() {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{}\n",
                class,
                c.sent_msgs,
                c.sent_bytes,
                c.delivered_msgs,
                c.dropped_loss,
                c.dropped_partition,
                c.dropped_dead,
                c.duplicated
            ));
        }
        out
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<16} {:>10} {:>14} {:>10} {:>8} {:>8} {:>8}",
            "class", "sent", "bytes", "delivered", "lost", "part", "dead"
        )?;
        for (class, c) in self.iter() {
            writeln!(
                f,
                "{:<16} {:>10} {:>14} {:>10} {:>8} {:>8} {:>8}",
                class,
                c.sent_msgs,
                c.sent_bytes,
                c.delivered_msgs,
                c.dropped_loss,
                c.dropped_partition,
                c.dropped_dead
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_class_is_zero() {
        let stats = NetStats::new();
        assert_eq!(stats.class("video"), ClassStats::default());
        assert_eq!(stats.total_sent_bytes(), 0);
    }

    #[test]
    fn class_mut_accumulates() {
        let mut stats = NetStats::new();
        stats.class_mut("video").sent_msgs += 2;
        stats.class_mut("video").sent_bytes += 100;
        stats.class_mut("gcs").sent_bytes += 5;
        assert_eq!(stats.class("video").sent_msgs, 2);
        assert_eq!(stats.total_sent_bytes(), 105);
        assert_eq!(stats.total_sent_msgs(), 2);
    }

    #[test]
    fn csv_breaks_down_drop_reasons() {
        let mut stats = NetStats::new();
        let video = stats.class_mut("video");
        video.sent_msgs = 10;
        video.sent_bytes = 1000;
        video.delivered_msgs = 6;
        video.dropped_loss = 1;
        video.dropped_partition = 2;
        video.dropped_dead = 1;
        video.duplicated = 3;
        let csv = stats.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.contains("dropped_loss,dropped_partition,dropped_dead"));
        assert_eq!(lines.next().unwrap(), "video,10,1000,6,1,2,1,3");
    }

    #[test]
    fn indices_are_stable_and_names_merge() {
        let mut stats = NetStats::new();
        let video = stats.class_index("video");
        let gcs = stats.class_index("gcs");
        // A different allocation of an equal name is the same class.
        let owned: &'static str = Box::leak(String::from("video").into_boxed_str());
        assert_eq!(stats.class_index(owned), video);
        stats.at_mut(video).sent_msgs += 3;
        stats.at_mut(gcs).sent_msgs += 1;
        assert_eq!(stats.class_index("aaa"), 2);
        assert_eq!(stats.class_index("video"), video);
        assert_eq!(stats.name(gcs), "gcs");
        assert_eq!(stats.class("video").sent_msgs, 3);
        let names: Vec<&str> = stats.iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["aaa", "gcs", "video"]);
    }

    #[test]
    fn display_lists_classes_in_order() {
        let mut stats = NetStats::new();
        stats.class_mut("video").sent_msgs = 1;
        stats.class_mut("gcs").sent_msgs = 1;
        let text = stats.to_string();
        let gcs_pos = text.find("gcs").unwrap();
        let video_pos = text.find("video").unwrap();
        assert!(gcs_pos < video_pos, "classes should print sorted:\n{text}");
    }
}
