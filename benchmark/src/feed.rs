//! The benchmark's input iterator. The engine pulls packets from it
//! (the load is closed-loop: a slow engine is offered packets more
//! slowly), and the wrapper notes *when* — the first pull of a run and
//! the first packet of every window — so window lag can be measured
//! from the feed side without touching the engine.

use std::time::{Duration, Instant};

use sso_types::Packet;

/// Indices into `packets` at which a new `window_secs` window begins
/// (always starting with 0 for a non-empty feed).
pub fn window_starts(packets: &[Packet], window_secs: u64) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut current = None;
    for (i, p) in packets.iter().enumerate() {
        let w = p.time() / window_secs;
        if current != Some(w) {
            current = Some(w);
            starts.push(i);
        }
    }
    starts
}

/// `[lo, hi)` index ranges of the windows that start at `starts` in a
/// stream of `len` items.
pub fn window_ranges(starts: &[usize], len: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    starts.iter().copied().zip(starts.iter().copied().skip(1).chain([len]))
}

/// An iterator over a materialised feed that timestamps the engine's
/// first pull and the yield of each window's first packet.
pub struct LagFeed<'a> {
    packets: &'a [Packet],
    starts: &'a [usize],
    pos: usize,
    /// Instant the first packet of window `i` was yielded.
    pub window_first: Vec<Instant>,
}

impl<'a> LagFeed<'a> {
    pub fn new(packets: &'a [Packet], starts: &'a [usize]) -> Self {
        LagFeed { packets, starts, pos: 0, window_first: Vec::with_capacity(starts.len()) }
    }

    /// The engine's first pull (the yield of window 0's first packet).
    pub fn first_pull(&self) -> Option<Instant> {
        self.window_first.first().copied()
    }
}

impl Iterator for LagFeed<'_> {
    type Item = Packet;

    #[inline]
    fn next(&mut self) -> Option<Packet> {
        let pkt = *self.packets.get(self.pos)?;
        // One integer compare per packet; the clock is read once per
        // window.
        if self.starts.get(self.window_first.len()) == Some(&self.pos) {
            self.window_first.push(Instant::now());
        }
        self.pos += 1;
        Some(pkt)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.packets.len() - self.pos;
        (left, Some(left))
    }
}

/// Per-window lag: the instant the engine handed window `i`'s rows to
/// the caller minus the instant the feed yielded the first packet of
/// window `i + 1` — how long a closed window waited. The last window
/// has no successor and yields no sample. A window handed over before
/// its successor's first packet (impossible today) counts as zero.
pub fn window_lags(window_first: &[Instant], handed: &[Instant]) -> Vec<Duration> {
    handed
        .iter()
        .zip(window_first.iter().skip(1))
        .map(|(handed, next_first)| handed.saturating_duration_since(*next_first))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sso_types::Protocol;

    fn pkt(uts: u64) -> Packet {
        Packet {
            uts,
            src_ip: 1,
            dest_ip: 2,
            src_port: 3,
            dest_port: 4,
            proto: Protocol::Tcp,
            len: 100,
        }
    }

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn lag_bookkeeping_on_a_three_window_feed() {
        // 2-second windows: packets at 0.1 s, 1.9 s | 2.0 s | 5.5 s, 5.6 s.
        let packets: Vec<Packet> =
            [SEC / 10, 19 * SEC / 10, 2 * SEC, 55 * SEC / 10, 56 * SEC / 10].map(pkt).to_vec();
        let starts = window_starts(&packets, 2);
        assert_eq!(starts, vec![0, 2, 3]);
        let ranges: Vec<_> = window_ranges(&starts, packets.len()).collect();
        assert_eq!(ranges, vec![(0, 2), (2, 3), (3, 5)]);

        let mut feed = LagFeed::new(&packets, &starts);
        assert!(feed.first_pull().is_none());
        assert_eq!(feed.size_hint(), (5, Some(5)));
        let pulled: Vec<Packet> = feed.by_ref().collect();
        assert_eq!(pulled, packets);
        assert_eq!(feed.window_first.len(), 3);
        assert_eq!(feed.first_pull(), Some(feed.window_first[0]));
        assert!(feed.window_first.windows(2).all(|w| w[0] <= w[1]));

        // A batch engine hands all three windows back at return.
        let t_return = Instant::now();
        let lags = window_lags(&feed.window_first, &[t_return; 3]);
        assert_eq!(lags.len(), 2, "the last window has no successor");
        assert_eq!(lags[0], t_return - feed.window_first[1]);
        assert_eq!(lags[1], t_return - feed.window_first[2]);
        assert!(lags[0] >= lags[1]);

        // A streaming engine that hands window 0 over 3 ms after window
        // 1's first packet shows a 3 ms lag, whatever the run length.
        let early = feed.window_first[1] + Duration::from_millis(3);
        let lags = window_lags(&feed.window_first, &[early, t_return, t_return]);
        assert_eq!(lags[0], Duration::from_millis(3));
    }

    #[test]
    fn empty_feed_has_no_windows() {
        assert!(window_starts(&[], 2).is_empty());
        let mut feed = LagFeed::new(&[], &[]);
        assert!(feed.next().is_none() && feed.first_pull().is_none());
    }
}
