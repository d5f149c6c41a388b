//! The Sprout receiver half (§3.2–3.4): per-tick inference, time-to-next
//! gating, received-or-lost accounting, and forecast feedback assembly.

use crate::forecaster::{Forecaster, TickObservation};
use crate::wire::{SproutHeader, WireForecast, WIRE_HORIZON};
use sprout_trace::{Duration, Timestamp, MTU_BYTES, TICK};

/// A set of disjoint half-open byte ranges `[start, end)`; used to total
/// the bytes received above the written-off horizon. A sorted run list:
/// arrivals come mostly in order, so an insert usually extends the last
/// run in place and the set holds a run or two, and `discard_below`
/// drains a prefix. No operation allocates once the list has grown to
/// the most runs it holds at once.
#[derive(Clone, Debug, Default)]
struct IntervalSet {
    /// Runs in ascending order, disjoint and non-adjacent after merging.
    runs: Vec<(u64, u64)>,
}

impl IntervalSet {
    /// Insert `[start, end)`, merging with every run it overlaps or
    /// touches.
    fn insert(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        match self.runs.last_mut() {
            None => return self.runs.push((start, end)),
            // In order: past the last run, or extending it.
            Some(last) if start > last.1 => return self.runs.push((start, end)),
            Some(last) if start >= last.0 => {
                last.1 = last.1.max(end);
                return;
            }
            Some(_) => {}
        }
        // The runs that end before `start` stay below, the runs that
        // start after `end` stay above, and everything between merges.
        let lo = self.runs.partition_point(|&(_, e)| e < start);
        let hi = self.runs.partition_point(|&(s, _)| s <= end);
        if lo == hi {
            self.runs.insert(lo, (start, end));
        } else {
            let merged = (start.min(self.runs[lo].0), end.max(self.runs[hi - 1].1));
            self.runs[lo] = merged;
            self.runs.drain(lo + 1..hi);
        }
    }

    /// Drop everything below `cut` (clipping a straddling run).
    fn discard_below(&mut self, cut: u64) {
        let below = self.runs.partition_point(|&(_, e)| e <= cut);
        self.runs.drain(..below);
        if let Some(first) = self.runs.first_mut() {
            first.0 = first.0.max(cut);
        }
    }

    /// Total length of the runs at or above `floor`.
    fn len_above(&self, floor: u64) -> u64 {
        self.runs
            .iter()
            .map(|&(s, e)| e.saturating_sub(s.max(floor)))
            .sum()
    }

    /// Number of stored runs.
    #[cfg(test)]
    fn range_count(&self) -> usize {
        self.runs.len()
    }
}

/// Receiver-half state.
pub struct SproutReceiver {
    forecaster: Box<dyn Forecaster>,
    /// End of the tick currently being accumulated.
    tick_end: Timestamp,
    /// Number of completed ticks.
    tick_counter: u32,
    /// Data wire bytes that arrived during the current tick.
    bytes_this_tick: u64,
    /// Heartbeat wire bytes that arrived during the current tick.
    heartbeat_bytes_this_tick: u64,
    /// Closed sender-idle spans not yet consumed by tick processing.
    exclusions: Vec<(Timestamp, Timestamp)>,
    /// An idle span opened by the most recent promising packet:
    /// (start = its arrival, deadline = arrival + time-to-next).
    open_exclusion: Option<(Timestamp, Timestamp)>,
    /// Smallest one-way delay seen this session (sender clock to receiver
    /// clock; any fixed clock offset cancels because only differences
    /// against this minimum are used).
    min_one_way_delay: Option<Duration>,
    /// Written-off horizon: everything below is received or lost (§3.4).
    horizon: u64,
    /// Received ranges above the horizon.
    received: IntervalSet,
    /// Count of gated (skipped) observations, for diagnostics/ablation.
    gated_ticks: u64,
    observed_ticks: u64,
    /// The forecast units of the current tick, computed once per tick
    /// and reused by every `make_feedback` call until the next tick
    /// completes (the forecaster's state only changes on ticks; a loaded
    /// sender polls many times per tick).
    cached_units: Option<[u16; WIRE_HORIZON]>,
    /// Reusable buffer for the forecaster's cumulative-bytes output.
    fc_scratch: Vec<u64>,
}

impl SproutReceiver {
    /// Minimum informative exposure: ticks whose exposed time is shorter
    /// are treated as fully gated. The Poisson likelihood self-weights
    /// small exposures, so this is purely a numerical guard.
    const MIN_EXPOSURE: Duration = Duration::from_micros(500);

    /// An exclusion's closing packet showing more queueing delay than
    /// this proves the "idle" span was actually backlogged service time,
    /// and the exclusion is cancelled (the span stays exposed).
    const CANCEL_QUEUEING_DELAY: Duration = Duration::from_millis(10);

    /// New receiver whose first tick ends one tick after `start`.
    pub fn new(forecaster: Box<dyn Forecaster>, start: Timestamp) -> Self {
        SproutReceiver {
            forecaster,
            tick_end: start + TICK,
            tick_counter: 0,
            bytes_this_tick: 0,
            heartbeat_bytes_this_tick: 0,
            exclusions: Vec::new(),
            open_exclusion: None,
            min_one_way_delay: None,
            horizon: 0,
            received: IntervalSet::default(),
            gated_ticks: 0,
            observed_ticks: 0,
            cached_units: None,
            fc_scratch: Vec::new(),
        }
    }

    /// Account an arriving packet: `wire_size` is the full on-the-wire
    /// size (the sender's sequence space counts wire bytes).
    pub fn on_packet(&mut self, header: &SproutHeader, wire_size: u32, now: Timestamp) {
        // Heartbeats exist to dispel outage ambiguity (§3.2), not to carry
        // rate information: an idle sender's 60-byte heartbeat per tick
        // would otherwise be "observed" as a near-dead link and collapse
        // the posterior. They are tracked separately (see process_ticks)
        // and still count toward received-or-lost below.
        if header.heartbeat {
            self.heartbeat_bytes_this_tick += wire_size as u64;
        } else {
            self.bytes_this_tick += wire_size as u64;
        }
        // One-way delay tracking (constant clock offsets cancel; only the
        // excess over the session minimum — the queueing delay — is used).
        let one_way = now.saturating_since(header.sent_at);
        let min_delay = match self.min_one_way_delay {
            Some(m) if m <= one_way => m,
            _ => {
                self.min_one_way_delay = Some(one_way);
                one_way
            }
        };
        let queueing_delay = one_way.saturating_sub(min_delay);

        // Any arrival ends an open idle span. If the closing packet
        // itself sat in a queue, the sender's idleness promise was moot —
        // the bottleneck held bytes the whole time — so the span is
        // cancelled and stays exposed. Otherwise (the closer flew through
        // an empty queue) the span really was idle and is excluded.
        if let Some((start, deadline)) = self.open_exclusion.take() {
            let end = deadline.min(now);
            if end > start && queueing_delay < Self::CANCEL_QUEUEING_DELAY {
                self.exclusions.push((start, end));
            }
        }
        // A promising packet (§3.2: positive time-to-next on the last
        // packet of a flight) opens a new idle span.
        if header.time_to_next > Duration::ZERO {
            self.open_exclusion = Some((now, now + header.time_to_next));
        }
        // Byte-range accounting for received-or-lost.
        let start = header.seq;
        // Saturating: a foreign header may claim any sequence number.
        let end = header.seq.saturating_add(wire_size as u64);
        self.received.insert(start, end);
        if header.throwaway > self.horizon {
            self.horizon = header.throwaway;
            self.received.discard_below(self.horizon);
        }
    }

    /// Total sender-idle time overlapping the tick `[tick_start,
    /// tick_end)`, consuming closed spans and clipping the open one.
    fn idle_time_in_tick(&mut self, tick_start: Timestamp, tick_end: Timestamp) -> Duration {
        let mut idle = Duration::ZERO;
        for &(s, e) in &self.exclusions {
            let lo = s.max(tick_start);
            let hi = e.min(tick_end);
            if hi > lo {
                idle += hi - lo;
            }
        }
        // Closed spans end at an arrival or a promise deadline — both at
        // or before "now" ≥ tick_end of the tick being processed — so
        // they never extend past this tick... except a span closed late
        // in a multi-tick gap; keep any remainder for the next tick.
        self.exclusions.retain(|&(_, e)| e > tick_end);
        if let Some((s, deadline)) = self.open_exclusion {
            let lo = s.max(tick_start);
            let hi = deadline.min(tick_end);
            if hi > lo {
                idle += hi - lo;
            }
            if deadline <= tick_end {
                // The promise expired with no arrival: silence from here
                // on is informative; close the span.
                self.open_exclusion = None;
            }
        }
        idle.min(tick_end - tick_start)
    }

    /// Process any ticks that have completed by `now`. Returns the number
    /// of ticks processed (callers send fresh feedback when > 0).
    pub fn process_ticks(&mut self, now: Timestamp) -> u32 {
        let mut processed = 0;
        while self.tick_end <= now {
            let tick_end = self.tick_end;
            let tick_start = tick_end - TICK;
            // §3.2: the time-to-next markings tell the receiver how much
            // of the tick the sender's queue was empty. That idle time is
            // excluded from the Poisson exposure; a tick with (almost) no
            // exposed time is skipped outright ("skips the observation
            // process until this timer expires").
            let idle = self.idle_time_in_tick(tick_start, tick_end);
            let exposure = TICK - idle;
            let exposure_secs = exposure.as_secs_f64();
            // "Even one tiny packet does much to dispel this ambiguity"
            // (§3.2): a tick whose only arrivals were heartbeats proves
            // the link is alive but says nothing about its rate — it must
            // be skipped, never observed as zero bytes. (Promise chains
            // jitter by up to one link service time, which on slow links
            // exceeds the time-to-next margin; without this rule such
            // ticks would feed spurious outage evidence.)
            let heartbeat_only = self.bytes_this_tick == 0 && self.heartbeat_bytes_this_tick > 0;
            if exposure < Self::MIN_EXPOSURE || heartbeat_only {
                self.gated_ticks += 1;
                self.forecaster.tick(None);
            } else {
                self.observed_ticks += 1;
                self.forecaster.tick(Some(TickObservation {
                    bytes: self.bytes_this_tick,
                    exposure_secs,
                }));
            }
            self.bytes_this_tick = 0;
            self.heartbeat_bytes_this_tick = 0;
            self.tick_counter += 1;
            self.tick_end += TICK;
            processed += 1;
        }
        if processed > 0 {
            // The forecaster advanced: the cached feedback units are stale.
            self.cached_units = None;
        }
        processed
    }

    /// Total bytes received or written off as lost (§3.4): the horizon
    /// plus everything received above it.
    pub fn recv_or_lost_bytes(&self) -> u64 {
        self.horizon + self.received.len_above(self.horizon)
    }

    /// Assemble the current feedback block for piggybacking. The
    /// forecast units are computed once per tick and cached; only the
    /// received-or-lost total (which moves with every arrival) is
    /// re-read per call.
    pub fn make_feedback(&mut self) -> WireForecast {
        WireForecast {
            recv_or_lost_bytes: self.recv_or_lost_bytes(),
            tick: self.tick_counter,
            cumulative_units: self.forecast_units(),
        }
    }

    /// The forecast of the newest tick in wire units (§3.3), computed on
    /// the first call after a tick and cached until the next one.
    pub(crate) fn forecast_units(&mut self) -> [u16; WIRE_HORIZON] {
        match self.cached_units {
            Some(units) => units,
            None => {
                self.forecaster
                    .forecast_cumulative_bytes_into(&mut self.fc_scratch);
                let fc = &self.fc_scratch;
                let unit = MTU_BYTES as u64 / crate::forecast::UNITS_PER_MTU;
                let mut units = [0u16; WIRE_HORIZON];
                // Clamp into the wire's fixed 8-tick format: shorter
                // horizons extend flat (an empty one as all zeros), longer
                // ones truncate.
                let last = fc.last().copied().unwrap_or(0);
                for (i, slot) in units.iter_mut().enumerate() {
                    let bytes = fc.get(i).copied().unwrap_or(last);
                    *slot = (bytes / unit).min(u16::MAX as u64) as u16;
                }
                self.cached_units = Some(units);
                units
            }
        }
    }

    /// End of the tick currently accumulating (the next inference time).
    pub fn next_tick_end(&self) -> Timestamp {
        self.tick_end
    }

    /// Completed tick count.
    pub fn tick_counter(&self) -> u32 {
        self.tick_counter
    }

    /// Diagnostics: (observed, gated) tick counts.
    pub fn observation_counts(&self) -> (u64, u64) {
        (self.observed_ticks, self.gated_ticks)
    }

    /// Diagnostics: the forecaster's central rate estimate, bits/s.
    pub fn rate_estimate_bps(&self) -> f64 {
        self.forecaster.rate_estimate_bps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SproutConfig;
    use crate::forecaster::EwmaForecaster;
    use proptest::prelude::*;
    use sprout_trace::Duration;

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn header(seq: u64, throwaway: u64, ttn_ms: u64) -> SproutHeader {
        SproutHeader {
            seq,
            throwaway,
            time_to_next: Duration::from_millis(ttn_ms),
            sent_at: Timestamp::ZERO,
            heartbeat: false,
            datagram: false,
            forecast: None,
            payload_len: 0,
        }
    }

    fn heartbeat(seq: u64, ttn_ms: u64) -> SproutHeader {
        SproutHeader {
            heartbeat: true,
            ..header(seq, 0, ttn_ms)
        }
    }

    fn receiver() -> SproutReceiver {
        let f = Box::new(EwmaForecaster::new(SproutConfig::test_small()));
        SproutReceiver::new(f, Timestamp::ZERO)
    }

    // ---- IntervalSet ----

    #[test]
    fn interval_insert_and_merge() {
        let mut s = IntervalSet::default();
        s.insert(0, 100);
        s.insert(200, 300);
        assert_eq!(s.range_count(), 2);
        assert_eq!(s.len_above(0), 200);
        s.insert(100, 200); // bridges the two
        assert_eq!(s.range_count(), 1);
        assert_eq!(s.len_above(0), 300);
    }

    #[test]
    fn interval_overlaps_do_not_double_count() {
        let mut s = IntervalSet::default();
        s.insert(0, 150);
        s.insert(100, 200);
        s.insert(50, 120);
        assert_eq!(s.len_above(0), 200);
        s.insert(0, 200); // fully covered
        assert_eq!(s.len_above(0), 200);
    }

    #[test]
    fn interval_len_above_clips() {
        let mut s = IntervalSet::default();
        s.insert(0, 100);
        s.insert(200, 260);
        assert_eq!(s.len_above(50), 110);
        assert_eq!(s.len_above(230), 30);
        assert_eq!(s.len_above(1_000), 0);
    }

    #[test]
    fn interval_discard_below_clips_straddlers() {
        let mut s = IntervalSet::default();
        s.insert(0, 100);
        s.insert(150, 250);
        s.discard_below(200);
        assert_eq!(s.len_above(0), 50);
        assert_eq!(s.range_count(), 1);
    }

    #[test]
    fn interval_empty_and_degenerate() {
        let mut s = IntervalSet::default();
        s.insert(10, 10);
        assert_eq!(s.range_count(), 0);
        assert_eq!(s.len_above(0), 0);
        s.discard_below(100); // no-op on empty
    }

    /// The maximal runs of a bitmap, as `(start, end)` offsets.
    fn bitmap_runs(bits: &[bool]) -> Vec<(u64, u64)> {
        let mut runs = Vec::new();
        let mut i = 0;
        while i < bits.len() {
            if bits[i] {
                let start = i;
                while i < bits.len() && bits[i] {
                    i += 1;
                }
                runs.push((start as u64, i as u64));
            }
            i += 1;
        }
        runs
    }

    proptest! {
        /// IntervalSet total length equals the length of the true union of
        /// the inserted ranges, for arbitrary overlapping inserts.
        #[test]
        fn interval_set_matches_naive_union(
            ranges in proptest::collection::vec((0u64..2_000, 1u64..300), 1..40)
        ) {
            let mut set = IntervalSet::default();
            let mut naive = vec![false; 4_096];
            for (start, len) in ranges {
                let end = start + len;
                set.insert(start, end);
                for cell in naive.iter_mut().take(end as usize).skip(start as usize) {
                    *cell = true;
                }
            }
            let truth = naive.iter().filter(|&&b| b).count() as u64;
            prop_assert_eq!(set.len_above(0), truth);
        }

        /// Every operation against a bitmap of the same bytes: in-order
        /// arrivals that touch the last one or leave a gap, arbitrary
        /// (out-of-order, duplicate, straddling, empty) inserts, cuts and
        /// queries — in the low range and against `u64::MAX`, where the
        /// receiver's saturating ends land. After every step the runs
        /// are the bitmap's maximal runs, so `len_above` and the run
        /// count are the union's.
        #[test]
        fn interval_set_matches_a_bitmap_model(
            ops in proptest::collection::vec((0u32..7, 0u64..600, 0u64..48), 1..90),
            high in any::<bool>(),
        ) {
            const SPAN: u64 = 600;
            let base = if high { u64::MAX - SPAN } else { 0 };
            let mut set = IntervalSet::default();
            let mut bits = vec![false; SPAN as usize];
            let mut next = 0u64;
            for (kind, at, len) in ops {
                match kind {
                    // In order: touching the last arrival, or after a gap.
                    0 | 1 => {
                        let start = (next + u64::from(kind) * (at % 5)).min(SPAN);
                        let end = (start + len).min(SPAN);
                        set.insert(base + start, base + end);
                        bits[start as usize..end as usize].fill(true);
                        next = next.max(end);
                    }
                    // Anywhere, up to the top of the range.
                    2 | 3 => {
                        let end = (at + len).min(SPAN);
                        set.insert(base + at, base + end);
                        if at < end {
                            bits[at as usize..end as usize].fill(true);
                        }
                    }
                    4 => {
                        set.discard_below(base + at);
                        bits[..at as usize].fill(false);
                    }
                    _ => {
                        let want = bits[at as usize..].iter().filter(|&&b| b).count() as u64;
                        prop_assert_eq!(set.len_above(base + at), want);
                    }
                }
                let runs: Vec<(u64, u64)> = set.runs.iter().map(|&(s, e)| (s - base, e - base)).collect();
                prop_assert_eq!(runs, bitmap_runs(&bits));
                prop_assert_eq!(set.range_count(), bitmap_runs(&bits).len());
                prop_assert_eq!(set.len_above(base), bits.iter().filter(|&&b| b).count() as u64);
            }
        }
    }

    // ---- receiver accounting ----

    #[test]
    fn recv_or_lost_counts_contiguous_bytes() {
        let mut r = receiver();
        r.on_packet(&header(0, 0, 0), 1_000, t(1));
        r.on_packet(&header(1_000, 0, 0), 1_000, t(2));
        assert_eq!(r.recv_or_lost_bytes(), 2_000);
    }

    #[test]
    fn throwaway_writes_off_holes() {
        let mut r = receiver();
        r.on_packet(&header(0, 0, 0), 1_000, t(1));
        // Packet [1000, 2000) is lost; a later packet arrives with
        // throwaway = 2000 (sent >10 ms after the lost one).
        r.on_packet(&header(2_000, 2_000, 0), 1_000, t(15));
        // All of [0, 2000) is written off; [2000, 3000) received.
        assert_eq!(r.recv_or_lost_bytes(), 3_000);
    }

    #[test]
    fn out_of_order_arrivals_are_counted_once() {
        let mut r = receiver();
        r.on_packet(&header(1_000, 0, 0), 1_000, t(1));
        r.on_packet(&header(0, 0, 0), 1_000, t(2));
        r.on_packet(&header(1_000, 0, 0), 1_000, t(3)); // duplicate
        assert_eq!(r.recv_or_lost_bytes(), 2_000);
    }

    #[test]
    fn ticks_observe_arrived_bytes() {
        let mut r = receiver();
        r.on_packet(&header(0, 0, 0), 3_000, t(5));
        assert_eq!(r.process_ticks(t(20)), 1);
        let (observed, gated) = r.observation_counts();
        assert_eq!((observed, gated), (1, 0));
        // Forecast reflects the observation (EWMA moved off its initial
        // 1500 B/tick towards 3000).
        let fb = r.make_feedback();
        assert!(fb.cumulative_units[0] >= 1);
        assert_eq!(fb.recv_or_lost_bytes, 3_000);
    }

    #[test]
    fn data_tick_is_observed_then_covered_silence_is_gated() {
        let mut r = receiver();
        // A flight-end data packet arrives at 5 ms promising the next
        // packet within 40 ms: the tick it arrived in is observed (it has
        // data bytes); the silent tick ending at 40 ms is covered by the
        // promise and gated.
        r.on_packet(&header(0, 0, 40), 1_500, t(5));
        r.process_ticks(t(40));
        let (observed, gated) = r.observation_counts();
        assert_eq!(observed, 1);
        assert_eq!(gated, 1);
    }

    #[test]
    fn heartbeat_ticks_are_gated_and_bytes_uncounted() {
        let mut r = receiver();
        // Idle chain: a heartbeat per tick, each promising the next, each
        // crossing an empty queue (constant one-way delay). No tick may
        // be observed — heartbeat dribble is not rate information — yet
        // received-or-lost still advances.
        for k in 0..5u64 {
            let mut h = heartbeat(k * 60, 22);
            h.sent_at = t(k * 20); // constant 1 ms one-way delay
            r.on_packet(&h, 60, t(k * 20 + 1));
        }
        r.process_ticks(t(100));
        let (observed, gated) = r.observation_counts();
        // Every tick saw only heartbeats: all gated ("even one tiny
        // packet does much to dispel this ambiguity", §3.2), none
        // observed as zero-rate evidence.
        assert_eq!(observed, 0);
        assert_eq!(gated, 5);
        assert_eq!(r.recv_or_lost_bytes(), 300);
    }

    #[test]
    fn queued_closer_cancels_the_idle_exclusion() {
        let mut r = receiver();
        // Establish the session's minimum one-way delay: 1 ms.
        let mut first = header(0, 0, 0);
        first.sent_at = t(4);
        r.on_packet(&first, 1_500, t(5));
        // A flight-final promise at 6 ms claims idleness for 22 ms...
        let mut fin = header(1_500, 0, 22);
        fin.sent_at = t(5);
        r.on_packet(&fin, 1_500, t(6));
        // ...but the next packet arrives having sat in a queue for 15 ms:
        // the bottleneck clearly held bytes, so the claimed idle span
        // [6, 14) must stay exposed.
        let mut queued = header(3_000, 0, 0);
        queued.sent_at = Timestamp::ZERO; // sent at 0, arrives at 16 ms
        r.on_packet(&queued, 1_500, t(16));
        r.process_ticks(t(20));
        // Full exposure: the tick is observed with all 4500 bytes.
        let (observed, gated) = r.observation_counts();
        assert_eq!((observed, gated), (1, 0));
    }

    #[test]
    fn backlogged_flight_with_zero_ttn_is_observed() {
        let mut r = receiver();
        // Link-paced arrivals all tick with ttn = 0 (queue still full):
        // the tick is observed with its full byte count.
        for i in 0..4u64 {
            r.on_packet(&header(i * 1_500, 0, 0), 1_500, t(3 + i * 4));
        }
        r.process_ticks(t(20));
        let (observed, gated) = r.observation_counts();
        assert_eq!((observed, gated), (1, 0));
    }

    #[test]
    fn silence_without_promise_is_observed_as_zero() {
        let mut r = receiver();
        // Last packet had ttn = 0 ("more coming"): subsequent silence is
        // evidence of an outage and must be observed.
        r.on_packet(&header(0, 0, 0), 1_500, t(5));
        r.process_ticks(t(100));
        let (observed, gated) = r.observation_counts();
        assert_eq!(gated, 0);
        assert_eq!(observed, 5);
    }

    #[test]
    fn promise_expires_and_observation_resumes() {
        let mut r = receiver();
        r.on_packet(&header(0, 0, 25), 1_500, t(5)); // covered until 30 ms
        r.process_ticks(t(80));
        // Tick[0,20): data bytes → observed. Tick[20,40): silent, but the
        // promise expired at 30 ms, before the tick end → observed as
        // silence (possible outage). Ticks after: observed.
        let (observed, gated) = r.observation_counts();
        assert_eq!(gated, 0);
        assert_eq!(observed, 4);
    }

    #[test]
    fn feedback_tick_counter_advances() {
        let mut r = receiver();
        r.process_ticks(t(100));
        assert_eq!(r.make_feedback().tick, 5);
        assert_eq!(r.tick_counter(), 5);
    }

    #[test]
    fn a_forecaster_that_returns_nothing_feeds_back_zeros() {
        struct Silent;
        impl Forecaster for Silent {
            fn tick(&mut self, _: Option<TickObservation>) {}
            fn forecast_cumulative_bytes_into(&mut self, out: &mut Vec<u64>) {
                out.clear();
            }
            fn rate_estimate_bps(&self) -> f64 {
                0.0
            }
        }
        let mut r = SproutReceiver::new(Box::new(Silent), Timestamp::ZERO);
        r.process_ticks(t(20));
        assert_eq!(r.make_feedback().cumulative_units, [0; WIRE_HORIZON]);
    }
}
