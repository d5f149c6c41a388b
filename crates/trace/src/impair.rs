//! Deterministic network fault injection: the stochastic processes behind
//! the `Impairment` scenario axis.
//!
//! Real cellular paths do not fail like Bernoulli coins. Losses arrive in
//! correlated bursts (fades), links drop out entirely for seconds at a
//! time (outages/flaps), and delivery timestamps carry jitter that can
//! reorder packets. This module models each as a *seeded* stochastic
//! process so an impaired cell is exactly as reproducible as a clean one:
//! the sweep engine derives every seed from the per-cell
//! `(master_seed, scenario_id)` seed via [`crate::derive_labeled_seed`],
//! so results are bit-identical across thread counts, shards, and batch
//! modes.
//!
//! The processes live here; the hook points that apply them to a link are
//! in `sprout-sim`'s `TraceLink` (loss/outage gating at the bottleneck,
//! jittered delivery timestamps, a release buffer that keeps emission in
//! timestamp order).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::time::{Duration, Timestamp};

/// Gilbert-Elliott burst-loss parameters: a two-state (good/bad) Markov
/// chain advanced once per arriving packet, with a per-state loss
/// probability. The classic model for correlated (bursty) packet loss.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GilbertElliott {
    /// Per-packet probability of transitioning good → bad.
    pub p_good_to_bad: f64,
    /// Per-packet probability of transitioning bad → good.
    pub p_bad_to_good: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// Panic unless every field is a probability.
    pub fn validate(&self) {
        for (name, p) in [
            ("p_good_to_bad", self.p_good_to_bad),
            ("p_bad_to_good", self.p_bad_to_good),
            ("loss_good", self.loss_good),
            ("loss_bad", self.loss_bad),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must be a probability");
        }
    }
}

/// Link outage (flap) process parameters: the link goes fully dead for
/// `duration` roughly every `spacing` of virtual time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OutageSpec {
    /// Length of each outage.
    pub duration: Duration,
    /// Nominal time between consecutive outage *starts* (the first outage
    /// starts near `spacing`, not at t = 0, so runs warm up cleanly).
    pub spacing: Duration,
}

/// Delay jitter parameters: every delivered packet is held an extra
/// uniform `[0, max]` beyond its delivery opportunity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JitterSpec {
    /// Maximum extra delay.
    pub max: Duration,
}

/// Packet reordering parameters: with `probability`, a delivered packet
/// is additionally held `extra_delay`, letting later packets overtake it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReorderSpec {
    /// Probability a packet is held back.
    pub probability: f64,
    /// How long a held packet is delayed beyond its opportunity.
    pub extra_delay: Duration,
}

/// One value of the impairment scenario axis: any combination of burst
/// loss, outages, jitter, and reordering. [`Impairment::none`] (the
/// default) reproduces the unimpaired link exactly.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Impairment {
    /// Correlated burst loss at packet ingress.
    pub burst_loss: Option<GilbertElliott>,
    /// Full link outages (both directions go dark together).
    pub outage: Option<OutageSpec>,
    /// Delivery-timestamp jitter.
    pub jitter: Option<JitterSpec>,
    /// Probabilistic packet holding (reordering).
    pub reorder: Option<ReorderSpec>,
}

/// The named impairment presets accepted by `reproduce --impairments`.
pub const IMPAIRMENT_PRESETS: &[&str] = &[
    "none", "burst", "outage", "flap", "jitter", "reorder", "storm",
];

impl Impairment {
    /// No impairment: the link behaves exactly as before this axis
    /// existed.
    pub fn none() -> Self {
        Impairment::default()
    }

    /// Whether every component is disabled.
    pub fn is_none(&self) -> bool {
        self.burst_loss.is_none()
            && self.outage.is_none()
            && self.jitter.is_none()
            && self.reorder.is_none()
    }

    /// Look up a named preset (see [`IMPAIRMENT_PRESETS`]); `None` for
    /// unknown names.
    pub fn preset(name: &str) -> Option<Impairment> {
        let burst = GilbertElliott {
            p_good_to_bad: 0.008,
            p_bad_to_good: 0.25,
            loss_good: 0.0,
            loss_bad: 0.5,
        };
        let outage = OutageSpec {
            duration: Duration::from_secs(4),
            spacing: Duration::from_secs(45),
        };
        let flap = OutageSpec {
            duration: Duration::from_millis(800),
            spacing: Duration::from_secs(15),
        };
        let jitter = JitterSpec {
            max: Duration::from_millis(15),
        };
        let reorder = ReorderSpec {
            probability: 0.05,
            extra_delay: Duration::from_millis(25),
        };
        Some(match name {
            "none" => Impairment::none(),
            "burst" => Impairment {
                burst_loss: Some(burst),
                ..Impairment::none()
            },
            "outage" => Impairment {
                outage: Some(outage),
                ..Impairment::none()
            },
            "flap" => Impairment {
                outage: Some(flap),
                ..Impairment::none()
            },
            "jitter" => Impairment {
                jitter: Some(jitter),
                ..Impairment::none()
            },
            "reorder" => Impairment {
                reorder: Some(reorder),
                ..Impairment::none()
            },
            "storm" => Impairment {
                burst_loss: Some(burst),
                outage: Some(outage),
                jitter: Some(jitter),
                reorder: Some(reorder),
            },
            _ => return None,
        })
    }

    /// Stable identifier used in cell labels and JSON: the `+`-joined
    /// component tags (`ge…`, `out…`, `jit…`, `ro…`), or `"none"`.
    /// Derived purely from the parameters, so two impairments with the
    /// same settings share one id however they were constructed.
    pub fn id(&self) -> String {
        if self.is_none() {
            return "none".to_string();
        }
        let mut parts = Vec::new();
        if let Some(ge) = &self.burst_loss {
            parts.push(format!(
                "ge{}-{}-{}-{}",
                ge.p_good_to_bad, ge.p_bad_to_good, ge.loss_good, ge.loss_bad
            ));
        }
        if let Some(o) = &self.outage {
            parts.push(format!(
                "out{}ms-{}ms",
                o.duration.as_millis(),
                o.spacing.as_millis()
            ));
        }
        if let Some(j) = &self.jitter {
            parts.push(format!("jit{}ms", j.max.as_millis()));
        }
        if let Some(r) = &self.reorder {
            parts.push(format!(
                "ro{}-{}ms",
                r.probability,
                r.extra_delay.as_millis()
            ));
        }
        parts.join("+")
    }

    /// Panic unless every configured component is self-consistent.
    pub fn validate(&self) {
        if let Some(ge) = &self.burst_loss {
            ge.validate();
        }
        if let Some(o) = &self.outage {
            assert!(o.duration > Duration::ZERO, "outage duration must be > 0");
            assert!(
                o.spacing > o.duration,
                "outage spacing must exceed duration"
            );
        }
        if let Some(r) = &self.reorder {
            assert!(
                (0.0..=1.0).contains(&r.probability),
                "reorder probability must be a probability"
            );
        }
    }
}

/// Runtime state of a seeded Gilbert-Elliott chain.
#[derive(Clone, Debug)]
pub struct GilbertElliottProcess {
    params: GilbertElliott,
    rng: StdRng,
    in_bad: bool,
}

impl GilbertElliottProcess {
    /// Start the chain in the good state with a derived seed.
    pub fn new(params: GilbertElliott, seed: u64) -> Self {
        params.validate();
        GilbertElliottProcess {
            params,
            rng: StdRng::seed_from_u64(seed),
            in_bad: false,
        }
    }

    /// Advance the chain one packet and decide whether that packet is
    /// lost. Exactly two RNG draws per call (transition, loss), so the
    /// consumed stream is independent of the outcomes.
    pub fn should_drop(&mut self) -> bool {
        let transition: f64 = self.rng.gen();
        if self.in_bad {
            if transition < self.params.p_bad_to_good {
                self.in_bad = false;
            }
        } else if transition < self.params.p_good_to_bad {
            self.in_bad = true;
        }
        let loss: f64 = self.rng.gen();
        let rate = if self.in_bad {
            self.params.loss_bad
        } else {
            self.params.loss_good
        };
        loss < rate
    }
}

/// A precomputed, seeded schedule of link outages: non-overlapping
/// half-open windows `[start, end)` during which the link is fully dark.
/// Precomputing the whole schedule (rather than sampling on the fly)
/// makes the windows available to the degradation metrics and keeps the
/// on/off process independent of how often the link is polled.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OutageSchedule {
    windows: Vec<(Timestamp, Timestamp)>,
}

impl OutageSchedule {
    /// A schedule with no outages (the unimpaired default).
    pub fn empty() -> Self {
        OutageSchedule::default()
    }

    /// Generate the schedule for a run of length `horizon`. Outage `k`
    /// (k = 1, 2, …) starts near `k × spacing`, offset by a seeded
    /// uniform draw in `[0, spacing/4)`, and lasts `duration`. Starts are
    /// clamped so windows never overlap.
    pub fn generate(spec: &OutageSpec, seed: u64, horizon: Duration) -> Self {
        assert!(
            spec.duration > Duration::ZERO,
            "outage duration must be > 0"
        );
        assert!(
            spec.spacing > spec.duration,
            "outage spacing must exceed duration"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut windows = Vec::new();
        let mut prev_end = Timestamp::ZERO;
        let mut k: u64 = 1;
        loop {
            let offset_range = spec.spacing.as_micros() / 4;
            let offset = if offset_range > 0 {
                rng.gen_range(0..offset_range)
            } else {
                0
            };
            let nominal = Timestamp::ZERO + spec.spacing.mul(k) + Duration::from_micros(offset);
            let start = nominal.max(prev_end);
            if start.saturating_since(Timestamp::ZERO) >= horizon {
                break;
            }
            let end = start + spec.duration;
            windows.push((start, end));
            prev_end = end;
            k += 1;
        }
        OutageSchedule { windows }
    }

    /// The outage windows, in order.
    pub fn windows(&self) -> &[(Timestamp, Timestamp)] {
        &self.windows
    }

    /// Whether the link is dark at `t`, by binary search: the oracle the
    /// [`OutageCursor`] is tested against.
    #[cfg(test)]
    fn is_out(&self, t: Timestamp) -> bool {
        let idx = self.windows.partition_point(|&(start, _)| start <= t);
        idx > 0 && t < self.windows[idx - 1].1
    }

    /// Whether the schedule has no outages.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }
}

/// An [`OutageSchedule`] read at non-decreasing instants: a link asks
/// once per delivery opportunity, in time order, so a cursor past the
/// windows already over answers in amortized O(1) whether an instant
/// falls in a window.
#[derive(Clone, Debug, Default)]
pub struct OutageCursor {
    schedule: OutageSchedule,
    /// The first window not over by the last instant asked.
    next: usize,
}

impl OutageCursor {
    /// Start reading `schedule` from its beginning.
    pub fn new(schedule: OutageSchedule) -> Self {
        OutageCursor { schedule, next: 0 }
    }

    /// Whether the link is dark at `t`, which must not precede the
    /// previous instant asked.
    #[inline]
    pub fn is_out(&mut self, t: Timestamp) -> bool {
        let windows = &self.schedule.windows;
        while windows.get(self.next).is_some_and(|&(_, end)| end <= t) {
            self.next += 1;
        }
        windows.get(self.next).is_some_and(|&(start, _)| start <= t)
    }

    /// The schedule being read.
    pub fn schedule(&self) -> &OutageSchedule {
        &self.schedule
    }
}

/// Seeded per-delivery perturbation: jitter plus probabilistic holding
/// (reordering). One instance serves one link direction.
#[derive(Clone, Debug)]
pub struct DeliveryPerturber {
    jitter: Option<JitterSpec>,
    reorder: Option<ReorderSpec>,
    rng: StdRng,
}

impl DeliveryPerturber {
    /// Build from the (possibly absent) jitter/reorder specs. Returns
    /// `None` when both are absent, so the unimpaired link pays nothing.
    pub fn new(
        jitter: Option<JitterSpec>,
        reorder: Option<ReorderSpec>,
        seed: u64,
    ) -> Option<Self> {
        if jitter.is_none() && reorder.is_none() {
            return None;
        }
        if let Some(r) = &reorder {
            assert!(
                (0.0..=1.0).contains(&r.probability),
                "reorder probability must be a probability"
            );
        }
        Some(DeliveryPerturber {
            jitter,
            reorder,
            rng: StdRng::seed_from_u64(seed),
        })
    }

    /// Extra delay for the next delivered packet, and whether the reorder
    /// hold fired. Draw count per call is fixed per configuration
    /// (jitter: one, reorder: one), independent of outcomes.
    pub fn perturb(&mut self) -> (Duration, bool) {
        let mut extra = Duration::ZERO;
        if let Some(j) = &self.jitter {
            let max = j.max.as_micros();
            if max > 0 {
                extra += Duration::from_micros(self.rng.gen_range(0..max + 1));
            } else {
                let _: f64 = self.rng.gen();
            }
        }
        let mut held = false;
        if let Some(r) = &self.reorder {
            let u: f64 = self.rng.gen();
            if u < r.probability {
                extra += r.extra_delay;
                held = true;
            }
        }
        (extra, held)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_all_parse_and_none_is_none() {
        for name in IMPAIRMENT_PRESETS {
            let imp = Impairment::preset(name).expect("preset exists");
            imp.validate();
            assert_eq!(imp.is_none(), *name == "none");
        }
        assert_eq!(Impairment::preset("bogus"), None);
    }

    #[test]
    fn ids_are_stable_and_distinct() {
        let ids: Vec<String> = IMPAIRMENT_PRESETS
            .iter()
            .map(|n| Impairment::preset(n).unwrap().id())
            .collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "preset ids must be distinct");
        assert_eq!(Impairment::none().id(), "none");
        assert_eq!(
            Impairment::preset("outage").unwrap().id(),
            "out4000ms-45000ms"
        );
    }

    #[test]
    fn gilbert_elliott_is_deterministic_and_bursty() {
        let params = GilbertElliott {
            p_good_to_bad: 0.05,
            p_bad_to_good: 0.3,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        let seq = |seed| -> Vec<bool> {
            let mut p = GilbertElliottProcess::new(params, seed);
            (0..5_000).map(|_| p.should_drop()).collect()
        };
        assert_eq!(seq(7), seq(7), "same seed, same loss pattern");
        assert_ne!(seq(7), seq(8), "different seeds diverge");
        // Loss fraction ≈ stationary bad-state occupancy 0.05/(0.05+0.3).
        let losses = seq(7).iter().filter(|&&l| l).count() as f64 / 5_000.0;
        let expected = 0.05 / 0.35;
        assert!((losses - expected).abs() < 0.05, "loss fraction {losses}");
        // Burstiness: mean run length of losses must exceed 1 packet
        // (Bernoulli at the same rate would give ~1/(1-p) ≈ 1.17).
        let s = seq(7);
        let mut runs = 0u64;
        let mut lost = 0u64;
        for w in s.windows(2) {
            if w[1] && !w[0] {
                runs += 1;
            }
        }
        for &l in &s {
            if l {
                lost += 1;
            }
        }
        let mean_run = lost as f64 / runs.max(1) as f64;
        assert!(mean_run > 2.0, "mean loss-burst length {mean_run}");
    }

    #[test]
    fn outage_schedule_is_deterministic_and_non_overlapping() {
        let spec = OutageSpec {
            duration: Duration::from_secs(4),
            spacing: Duration::from_secs(30),
        };
        let a = OutageSchedule::generate(&spec, 42, Duration::from_secs(300));
        let b = OutageSchedule::generate(&spec, 42, Duration::from_secs(300));
        assert_eq!(a, b);
        let c = OutageSchedule::generate(&spec, 43, Duration::from_secs(300));
        assert_ne!(a, c, "different seeds shift the windows");
        assert!(!a.is_empty());
        for w in a.windows().windows(2) {
            assert!(w[0].1 <= w[1].0, "windows must not overlap");
        }
        for &(start, end) in a.windows() {
            assert_eq!(end - start, spec.duration);
            assert!(a.is_out(start));
            assert!(!a.is_out(end), "windows are half-open");
        }
        assert!(!a.is_out(Timestamp::ZERO), "no outage at t=0");
    }

    #[test]
    fn outage_schedule_spacing_bounds_window_count() {
        let spec = OutageSpec {
            duration: Duration::from_secs(2),
            spacing: Duration::from_secs(40),
        };
        let s = OutageSchedule::generate(&spec, 1, Duration::from_secs(100));
        // Starts near 40 s and 80 s (plus up to 10 s of offset): 1–2 windows.
        assert!(
            (1..=2).contains(&s.windows().len()),
            "{} windows",
            s.windows().len()
        );
    }

    #[test]
    fn empty_schedule_is_never_out() {
        let s = OutageSchedule::empty();
        assert!(s.is_empty());
        assert!(!s.is_out(Timestamp::from_secs(5)));
    }

    #[test]
    fn the_cursor_reads_what_the_binary_search_reads() {
        let spec = OutageSpec {
            duration: Duration::from_millis(700),
            spacing: Duration::from_millis(2_000),
        };
        for seed in 0..8 {
            let s = OutageSchedule::generate(&spec, seed, Duration::from_secs(30));
            let mut cursor = OutageCursor::new(s.clone());
            // Every 50 ms, with repeats, and every window edge and its
            // neighbours, in non-decreasing order.
            let mut instants: Vec<u64> = (0..32_000)
                .step_by(50)
                .chain((0..32_000).step_by(50))
                .collect();
            for &(start, end) in s.windows() {
                for t in [start, end] {
                    let us = t.as_micros();
                    instants.extend([us - 1, us, us + 1]);
                }
            }
            instants.sort_unstable();
            for us in instants {
                let t = Timestamp::from_micros(us);
                assert_eq!(cursor.is_out(t), s.is_out(t), "seed {seed} at {t}");
            }
        }
    }

    #[test]
    fn perturber_requires_a_component_and_respects_bounds() {
        assert!(DeliveryPerturber::new(None, None, 1).is_none());
        let jitter = JitterSpec {
            max: Duration::from_millis(10),
        };
        let reorder = ReorderSpec {
            probability: 0.5,
            extra_delay: Duration::from_millis(30),
        };
        let mut p = DeliveryPerturber::new(Some(jitter), Some(reorder), 9).unwrap();
        let mut held_count = 0;
        for _ in 0..2_000 {
            let (extra, held) = p.perturb();
            let max = Duration::from_millis(10) + Duration::from_millis(30);
            assert!(extra <= max, "extra {extra} exceeds jitter+hold bound");
            if held {
                held_count += 1;
                assert!(extra >= Duration::from_millis(30));
            }
        }
        let frac = held_count as f64 / 2_000.0;
        assert!((frac - 0.5).abs() < 0.05, "hold fraction {frac}");
    }

    #[test]
    fn perturber_is_deterministic_per_seed() {
        let jitter = Some(JitterSpec {
            max: Duration::from_millis(8),
        });
        let seq = |seed| -> Vec<(Duration, bool)> {
            let mut p = DeliveryPerturber::new(jitter, None, seed).unwrap();
            (0..100).map(|_| p.perturb()).collect()
        };
        assert_eq!(seq(3), seq(3));
        assert_ne!(seq(3), seq(4));
    }
}
