//! The engine's event queue: a radix heap of small `(at, seq, slot)` keys
//! over a slab of event bodies.
//!
//! Events are popped in `(at, seq)` order, where `seq` is the insertion
//! counter: earliest first, and events scheduled for the same instant in
//! the order they were scheduled. `seq` is unique, so the order is total
//! and any correct priority queue pops the same sequence; the structure
//! only decides how fast.
//!
//! # Why a radix heap
//!
//! A discrete-event engine pops keys that never decrease: the engine
//! schedules nothing before the current instant, and a new event's `seq`
//! is larger than every earlier one. A radix heap exploits that. It keeps
//! the last popped key, `last`, and files every pending key in the bucket
//! named by the highest bit in which the key differs from `last` (bucket
//! `b` holds the keys whose highest differing bit is `b - 1`; bucket 0
//! holds a key equal to `last`). Every key in a lower bucket is smaller
//! than every key in a higher one, so the minimum is the minimum of the
//! lowest non-empty bucket, and each bucket's minimum is kept up to date
//! as keys arrive. Popping moves `last` to that minimum and refiles the
//! rest of its bucket: each of them now differs from `last` in a lower
//! bit, so they move to strictly lower buckets and the minimum lands alone
//! in bucket 0. Pushing is a bucket append; a key is refiled at most once
//! per bit, and in practice a few times. A binary heap instead sifts every
//! push and pop through about 17 levels at the engine's 131k-entry peak,
//! with a cache miss at most of them.
//!
//! The harness may still schedule an event before the last popped one
//! (say, `crash_at` a time already passed). Such a key cannot be filed
//! against `last`; it waits in a small sorted `late` list, which is
//! popped first, exactly as a heap would pop it.
//!
//! # The slab
//!
//! The buckets move only 24-byte keys; each event body is written once
//! into a slab slot and moved out once when it is popped. Freed slots are
//! reused last-in first-out, which keeps the slab as small as the peak
//! number of pending events and the recently used slots warm in cache.
//! Slot numbers take no part in the ordering, so reuse cannot reorder
//! anything.

use crate::time::SimTime;

/// Number of radix buckets: one per bit of the 128-bit `(at, seq)` key,
/// plus bucket 0 for a key equal to the last popped one.
const BUCKETS: usize = 129;

/// A queue entry: when the event is due, its insertion number, and the
/// slab slot holding its body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Key {
    /// Whether this key pops before `other`.
    #[inline]
    fn before(&self, other: &Key) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
}

/// A priority queue of events of type `T`, ordered by `(at, seq)`.
#[derive(Debug)]
pub(crate) struct EventQueue<T> {
    /// The last popped key (all zero before the first pop).
    last: Key,
    buckets: Vec<Vec<Key>>,
    /// The smallest key of each bucket, `None` when it is empty.
    bucket_min: Vec<Option<Key>>,
    /// Bit `b` set iff bucket `b` is non-empty.
    occupied: [u64; 3],
    /// Keys scheduled before `last`, sorted latest first.
    late: Vec<Key>,
    len: usize,
    slab: Vec<Option<T>>,
    free: Vec<u32>,
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            last: Key {
                at: SimTime::ZERO,
                seq: 0,
                slot: 0,
            },
            buckets: (0..BUCKETS).map(|_| Vec::new()).collect(),
            bucket_min: vec![None; BUCKETS],
            occupied: [0; 3],
            late: Vec::new(),
            len: 0,
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }
}

impl<T> EventQueue<T> {
    /// Schedules `event` at `at`, after every event already scheduled for
    /// the same instant.
    pub(crate) fn push(&mut self, at: SimTime, event: T) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("more than 2^32 pending events");
                self.slab.push(Some(event));
                slot
            }
        };
        let key = Key {
            at,
            seq: self.seq,
            slot,
        };
        self.seq += 1;
        self.len += 1;
        if key.before(&self.last) {
            let at = self.late.partition_point(|k| key.before(k));
            self.late.insert(at, key);
        } else {
            self.file(key);
        }
    }

    /// Removes and returns the earliest pending event, provided it is due
    /// at or before `until`; otherwise leaves the queue as it was.
    pub(crate) fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, T)> {
        let key = if let Some(&key) = self.late.last() {
            if key.at > until {
                return None;
            }
            self.late.pop();
            key
        } else {
            let lowest = self.lowest_bucket()?;
            let min = self.bucket_min[lowest].expect("occupied bucket has a minimum");
            if min.at > until {
                return None;
            }
            if lowest != 0 {
                self.last = min;
                self.refile(lowest);
            }
            self.take_bucket_zero()
        };
        self.len -= 1;
        let event = self.slab[key.slot as usize]
            .take()
            .expect("queue key points at an empty slab slot");
        self.free.push(key.slot);
        Some((key.at, event))
    }

    /// Removes and returns the earliest pending event.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_until(SimTime::from_micros(u64::MAX))
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of slab slots ever allocated (the peak of pending events).
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.slab.len()
    }

    /// The bucket of `key` relative to `last`: one more than the index of
    /// the highest bit in which the two 128-bit `(at, seq)` keys differ.
    #[inline]
    fn bucket_of(&self, key: &Key) -> usize {
        let at = key.at.as_micros() ^ self.last.at.as_micros();
        if at != 0 {
            128 - at.leading_zeros() as usize
        } else {
            64 - (key.seq ^ self.last.seq).leading_zeros() as usize
        }
    }

    #[inline]
    fn file(&mut self, key: Key) {
        let b = self.bucket_of(&key);
        self.buckets[b].push(key);
        let min = &mut self.bucket_min[b];
        if min.is_none_or(|m| key.before(&m)) {
            *min = Some(key);
        }
        self.occupied[b / 64] |= 1 << (b % 64);
    }

    /// The lowest non-empty bucket, if any key is pending outside `late`.
    fn lowest_bucket(&self) -> Option<usize> {
        self.occupied
            .iter()
            .enumerate()
            .find(|(_, &word)| word != 0)
            .map(|(i, &word)| i * 64 + word.trailing_zeros() as usize)
    }

    /// Empties bucket `b` and files its keys again against the new `last`
    /// (its former minimum): all of them land in lower buckets, the
    /// minimum alone in bucket 0.
    fn refile(&mut self, b: usize) {
        let mut keys = std::mem::take(&mut self.buckets[b]);
        self.bucket_min[b] = None;
        self.occupied[b / 64] &= !(1 << (b % 64));
        for key in keys.drain(..) {
            self.file(key);
        }
        // Hand the emptied vector back so its capacity is reused.
        self.buckets[b] = keys;
    }

    /// Pops the single key of bucket 0, which equals `last`.
    fn take_bucket_zero(&mut self) -> Key {
        let key = self.buckets[0].pop().expect("bucket 0 holds the minimum");
        debug_assert!(self.buckets[0].is_empty(), "keys are unique");
        self.bucket_min[0] = None;
        self.occupied[0] &= !1;
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue<u32>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| q.pop().map(|(at, e)| (at.as_micros(), e))).collect()
    }

    #[test]
    fn matches_a_sorted_reference_on_interleaved_pushes_and_pops() {
        // A deterministic pseudo-random schedule with many ties in `at`,
        // bounded pops that must leave the queue untouched when nothing is
        // due, and now and then a key scheduled before the last pop.
        let mut q = EventQueue::default();
        let mut reference: Vec<(u64, u64, u32)> = Vec::new();
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut seq = 0u64;
        let mut now = 0u64;
        for i in 0..20_000u32 {
            let roll = next() % 16;
            if roll < 10 {
                let at = match roll {
                    0 => now.saturating_sub(next() % 40),
                    1 => now + next() % 5_000_000,
                    _ => now + next() % 50,
                };
                q.push(SimTime::from_micros(at), i);
                reference.push((at, seq, i));
                seq += 1;
            } else {
                let until = now + next() % 30;
                let due = reference.iter().min().filter(|r| r.0 <= until).copied();
                let popped = q.pop_until(SimTime::from_micros(until));
                assert_eq!(
                    popped.map(|(at, e)| (at.as_micros(), e)),
                    due.map(|r| (r.0, r.2))
                );
                if let Some(min) = due {
                    reference.retain(|&r| r != min);
                    now = now.max(min.0);
                } else {
                    now = until;
                }
            }
            assert_eq!(q.len(), reference.len());
        }
        reference.sort_unstable();
        let rest: Vec<(u64, u32)> = reference.iter().map(|r| (r.0, r.2)).collect();
        assert_eq!(drain(&mut q), rest);
    }

    #[test]
    fn slab_is_bounded_by_peak_pending() {
        let mut q = EventQueue::default();
        for round in 0..100u64 {
            for e in 0..8 {
                q.push(SimTime::from_micros(round * 10 + e as u64), e);
            }
            for _ in 0..8 {
                q.pop();
            }
        }
        assert_eq!(q.slots(), 8);
    }
}
