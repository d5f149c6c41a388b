//! The scheme zoo of the evaluation (§5) and a uniform way to run any of
//! them over any emulated link.

use sprout_baselines::{
    Compound, CongestionControl, Cubic, Ledbat, OmniscientSender, Reno, TcpReceiver, TcpSender,
    Vegas, VideoApp, VideoAppReceiver, VideoAppSender,
};
use sprout_core::{SproutConfig, SproutEndpoint};
use sprout_sim::{Endpoint, LinkImpairment, PathConfig, SinkEndpoint};
use sprout_trace::{derive_labeled_seed, Duration, Impairment, OutageSchedule, Trace};

pub use crate::record::SchemeResult;
use crate::scenario::{ResolvedQueue, Scenario};

/// Every transport/application evaluated in the paper, plus Reno.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Sprout with the Bayesian 95%-confidence forecast.
    Sprout,
    /// Sprout-EWMA (§5.3).
    SproutEwma,
    /// TCP Cubic (Linux default).
    Cubic,
    /// TCP Cubic over CoDel at the bottleneck (§5.4).
    CubicCodel,
    /// TCP Reno (extra context; not in the paper's figures).
    Reno,
    /// TCP Vegas.
    Vegas,
    /// Compound TCP (Windows default of the era).
    Compound,
    /// LEDBAT / µTP.
    Ledbat,
    /// Skype model.
    Skype,
    /// FaceTime model.
    Facetime,
    /// Google Hangout model.
    Hangout,
    /// The omniscient protocol (§5.1).
    Omniscient,
}

/// Every scheme with its display name and its tag, in declaration order:
/// the one place either is spelled. Row `i` is the scheme whose
/// discriminant is `i` ([`Scheme::row`] indexes by it).
const SCHEMES: [(Scheme, &str, &str); 12] = [
    (Scheme::Sprout, "Sprout", "sprout"),
    (Scheme::SproutEwma, "Sprout-EWMA", "sprout-ewma"),
    (Scheme::Cubic, "Cubic", "cubic"),
    (Scheme::CubicCodel, "Cubic-CoDel", "cubic-codel"),
    (Scheme::Reno, "Reno", "reno"),
    (Scheme::Vegas, "Vegas", "vegas"),
    (Scheme::Compound, "Compound TCP", "compound"),
    (Scheme::Ledbat, "LEDBAT", "ledbat"),
    (Scheme::Skype, "Skype", "skype"),
    (Scheme::Facetime, "Facetime", "facetime"),
    (Scheme::Hangout, "Google Hangout", "google-hangout"),
    (Scheme::Omniscient, "Omniscient", "omniscient"),
];

impl Scheme {
    /// The nine schemes of Figure 7, in the paper's legend order.
    pub fn fig7() -> [Scheme; 9] {
        [
            Scheme::Sprout,
            Scheme::SproutEwma,
            Scheme::Cubic,
            Scheme::Compound,
            Scheme::Vegas,
            Scheme::Ledbat,
            Scheme::Skype,
            Scheme::Facetime,
            Scheme::Hangout,
        ]
    }

    /// Every scheme, in declaration order (CLI parsing and docs).
    pub fn all() -> [Scheme; 12] {
        SCHEMES.map(|(scheme, _, _)| scheme)
    }

    /// This scheme's row of [`SCHEMES`].
    fn row(self) -> &'static (Scheme, &'static str, &'static str) {
        &SCHEMES[self as usize]
    }

    /// The lowercase, hyphenated tag used in cell labels and on the CLI
    /// (`sprout`, `sprout-ewma`, `cubic-codel`, `compound`, …).
    pub fn tag(self) -> &'static str {
        self.row().2
    }

    /// Parse a [`Scheme::tag`] back to its scheme (`None` for unknown
    /// tags).
    pub fn from_tag(tag: &str) -> Option<Scheme> {
        SCHEMES.iter().find(|row| row.2 == tag).map(|row| row.0)
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        self.row().1
    }

    /// Whether the scheme requires CoDel at the bottleneck.
    pub fn needs_codel(self) -> bool {
        matches!(self, Scheme::CubicCodel)
    }

    /// Whether the scheme is a transport that can carry (or contend
    /// with) other traffic — as opposed to an application model or the
    /// omniscient reference. Only transports are valid app-workload
    /// carriers.
    pub fn is_transport(self) -> bool {
        !matches!(
            self,
            Scheme::Skype | Scheme::Facetime | Scheme::Hangout | Scheme::Omniscient
        )
    }

    /// Whether an app workload over this scheme rides inside a
    /// SproutTunnel session (§4.3); apps over any other transport share
    /// the carrier queue with a bulk flow of it (§5.7 "direct").
    pub fn tunnels_apps(self) -> bool {
        matches!(self, Scheme::Sprout | Scheme::SproutEwma)
    }
}

/// One experiment cell: a scheme over one link direction.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Delivery schedule of the data direction under test.
    pub data_trace: Trace,
    /// Delivery schedule of the reverse (feedback) direction.
    pub feedback_trace: Trace,
    /// Total virtual run time.
    pub duration: Duration,
    /// Warm-up skipped before measuring (§5.1 skips the first minute).
    pub warmup: Duration,
    /// One-way propagation delay of each direction (the paper's ~20 ms).
    pub prop_delay: Duration,
    /// Bernoulli loss probability on both directions (§5.6).
    pub loss_rate: f64,
    /// Seed of the data-direction loss process (the sweep engine derives
    /// it from the cell seed; standalone callers get a fixed default).
    pub loss_seed_data: u64,
    /// Seed of the feedback-direction loss process.
    pub loss_seed_feedback: u64,
    /// Fault injection applied to both directions
    /// ([`Impairment::none()`] keeps the classic clean link).
    pub impairment: Impairment,
    /// Seed of the data-direction impairment processes (burst loss,
    /// jitter, reordering).
    pub impair_seed_data: u64,
    /// Seed of the feedback-direction impairment processes.
    pub impair_seed_feedback: u64,
    /// Seed of the outage schedule, which is generated once per cell and
    /// shared by both directions (a dead radio link is dead both ways).
    pub outage_seed: u64,
    /// Root of the per-session seed sub-streams of serve cells (the
    /// sweep engine passes the cell seed; standalone callers get a fixed
    /// default). Each session derives its own loss/impairment seeds via
    /// [`sprout_trace::session_seed`].
    pub serve_seed: u64,
    /// Sprout configuration (confidence sweeps override this).
    pub sprout: SproutConfig,
}

impl RunConfig {
    /// Standard conditions for a data/feedback trace pair.
    pub fn new(data_trace: Trace, feedback_trace: Trace) -> Self {
        RunConfig {
            data_trace,
            feedback_trace,
            duration: Duration::from_secs(300),
            warmup: Duration::from_secs(60),
            prop_delay: Duration::from_millis(20),
            loss_rate: 0.0,
            loss_seed_data: 1_111,
            loss_seed_feedback: 2_222,
            impairment: Impairment::none(),
            impair_seed_data: 3_333,
            impair_seed_feedback: 4_444,
            outage_seed: 5_555,
            serve_seed: 6_666,
            sprout: SproutConfig::paper(),
        }
    }

    /// The same conditions with the five per-direction random streams
    /// re-seeded from `root`: a cell's seed, or one serve session's.
    pub fn seeded(mut self, root: u64) -> Self {
        let stream = |label| derive_labeled_seed(root, label, 0);
        self.loss_seed_data = stream("loss-data");
        self.loss_seed_feedback = stream("loss-feedback");
        self.impair_seed_data = stream("impair-data");
        self.impair_seed_feedback = stream("impair-feedback");
        self.outage_seed = stream("impair-outage");
        self
    }

    /// The conditions the engine runs `cell` under, over its `data` and
    /// `feedback` traces: the cell's timing, delay, loss, impairment and
    /// confidence, and every random stream re-seeded from `cell_seed`.
    pub fn for_cell(cell: &Scenario, cell_seed: u64, data: Trace, feedback: Trace) -> Self {
        RunConfig {
            duration: cell.duration,
            warmup: cell.warmup,
            prop_delay: cell.prop_delay,
            loss_rate: cell.loss_rate,
            sprout: match cell.confidence_pct {
                Some(pct) => SproutConfig::with_confidence_percent(pct),
                None => SproutConfig::paper(),
            },
            impairment: cell.impairment,
            serve_seed: cell_seed,
            ..RunConfig::new(data, feedback)
        }
        .seeded(cell_seed)
    }

    /// The data and feedback paths under these conditions. Both
    /// directions run `queue`: the paper's carriers keep one (deep)
    /// per-user queue in each direction. Loss, burst loss, jitter and
    /// reordering are per-direction streams; the outage schedule is one,
    /// shared by both, since the radio link goes dark as one. A zero
    /// loss rate and an empty impairment draw nothing from their seeds.
    pub fn paths(&self, queue: ResolvedQueue) -> (PathConfig, PathConfig) {
        let outages = self
            .impairment
            .outage
            .map(|spec| OutageSchedule::generate(&spec, self.outage_seed, self.duration))
            .unwrap_or_default();
        let path = |trace: &Trace, loss_seed, impair_seed| {
            let mut cfg = PathConfig::standard(trace.clone()).with_prop_delay(self.prop_delay);
            cfg.link.queue = queue.queue_config();
            cfg.link.loss_rate = self.loss_rate;
            cfg.link.loss_seed = loss_seed;
            cfg.link.impair =
                LinkImpairment::from_spec(&self.impairment, impair_seed, outages.clone());
            cfg
        };
        (
            path(&self.data_trace, self.loss_seed_data, self.impair_seed_data),
            path(
                &self.feedback_trace,
                self.loss_seed_feedback,
                self.impair_seed_feedback,
            ),
        )
    }
}

/// The Sprout endpoint `scheme` runs on — EWMA forecaster for
/// [`Scheme::SproutEwma`], the Bayesian one otherwise — as a bare pair's
/// end or as a tunnel's carrier.
pub(crate) fn sprout_endpoint(scheme: Scheme, cfg: &RunConfig) -> SproutEndpoint {
    if scheme == Scheme::SproutEwma {
        SproutEndpoint::new_ewma(cfg.sprout.clone())
    } else {
        SproutEndpoint::new(cfg.sprout.clone())
    }
}

/// The saturating data sender of a one-way Sprout pair: every
/// [`Scheme::Sprout`] / [`Scheme::SproutEwma`] pair (so every Sprout flow
/// of a contention cell) and every serve client. It runs the EWMA
/// forecaster whatever the scheme, which changes no bit: in §3 the
/// *receiver* forecasts and the sender spends the forecast it is sent.
/// This end's forecast could steer only the peer's sender window, which
/// a peer without app bytes never reads (its control packets bypass it),
/// so the pair runs one Bayesian model, not two: a serve pool of N
/// sessions makes exactly N table lookups, 1 build + N − 1 reuses per
/// link group. Tunnel carriers keep the scheme's own endpoint: app
/// reports flow back through them.
pub fn sprout_data_sender(cfg: &SproutConfig) -> SproutEndpoint {
    let mut a = SproutEndpoint::new_ewma(cfg.clone());
    a.set_saturating();
    a
}

/// The (sender, receiver) pair of one modeled videoconference call.
pub(crate) fn app_endpoints(app: VideoApp) -> (VideoAppSender, VideoAppReceiver) {
    (VideoAppSender::new(app.profile()), VideoAppReceiver::new())
}

/// What to do with a scheme's (sender, receiver) pair, whatever its
/// concrete types. [`with_endpoints`] builds the pair and hands it to
/// [`PairVisitor::visit`], which is monomorphised per pair: an event loop
/// run inside it calls both endpoints, and a TCP sender its controller,
/// without a `dyn`.
pub(crate) trait PairVisitor {
    /// What the visit returns.
    type Output;

    /// Use the pair.
    fn visit<A: Endpoint + 'static, B: Endpoint + 'static>(self, a: A, b: B) -> Self::Output;
}

/// Construct the (sender, receiver) pair for a scheme, as its concrete
/// types, and hand it to `visitor`: the one constructor of every scheme
/// pair.
pub(crate) fn with_endpoints<V: PairVisitor>(
    scheme: Scheme,
    cfg: &RunConfig,
    visitor: V,
) -> V::Output {
    fn tcp<V: PairVisitor>(visitor: V, cc: impl CongestionControl + 'static) -> V::Output {
        visitor.visit(TcpSender::new(cc), TcpReceiver::new())
    }
    let app = |visitor: V, app| {
        let (a, b) = app_endpoints(app);
        visitor.visit(a, b)
    };
    match scheme {
        Scheme::Sprout | Scheme::SproutEwma => visitor.visit(
            sprout_data_sender(&cfg.sprout),
            sprout_endpoint(scheme, cfg),
        ),
        Scheme::Cubic | Scheme::CubicCodel => tcp(visitor, Cubic::new()),
        Scheme::Reno => tcp(visitor, Reno::new()),
        Scheme::Vegas => tcp(visitor, Vegas::new()),
        Scheme::Compound => tcp(visitor, Compound::new()),
        Scheme::Ledbat => tcp(visitor, Ledbat::new()),
        Scheme::Skype => app(visitor, VideoApp::Skype),
        Scheme::Facetime => app(visitor, VideoApp::Facetime),
        Scheme::Hangout => app(visitor, VideoApp::Hangout),
        Scheme::Omniscient => visitor.visit(
            OmniscientSender::new(&cfg.data_trace, cfg.prop_delay),
            SinkEndpoint::new(),
        ),
    }
}

/// Construct the (sender, receiver) endpoint pair for a scheme, boxed:
/// the form a mux child or a caller outside the crate takes.
pub fn build_endpoints(scheme: Scheme, cfg: &RunConfig) -> (Box<dyn Endpoint>, Box<dyn Endpoint>) {
    struct Boxed;
    impl PairVisitor for Boxed {
        type Output = (Box<dyn Endpoint>, Box<dyn Endpoint>);
        fn visit<A: Endpoint + 'static, B: Endpoint + 'static>(self, a: A, b: B) -> Self::Output {
            (Box::new(a), Box::new(b))
        }
    }
    with_endpoints(scheme, cfg, Boxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprout_trace::NetProfile;

    /// Each scheme's metrics on a 60 s T-Mobile UMTS cell, through the
    /// engine's one execution path.
    fn run_schemes(schemes: impl IntoIterator<Item = Scheme>) -> Vec<(Scheme, SchemeResult)> {
        let m = crate::scenario::ScenarioMatrix::builder("schemes")
            .schemes(schemes)
            .links([NetProfile::TmobileUmtsDown])
            .timing(Duration::from_secs(60), Duration::from_secs(10))
            .build();
        m.cells()
            .iter()
            .map(|cell| {
                let r = crate::sweep::execute_scenario(m.name(), cell, 5);
                let metrics = r.metrics.expect("scheme cells produce metrics");
                (cell.workload.scheme().unwrap(), metrics)
            })
            .collect()
    }

    #[test]
    fn every_scheme_runs_and_produces_sane_metrics() {
        for (scheme, r) in run_schemes([
            Scheme::SproutEwma,
            Scheme::Cubic,
            Scheme::CubicCodel,
            Scheme::Reno,
            Scheme::Vegas,
            Scheme::Compound,
            Scheme::Ledbat,
            Scheme::Skype,
            Scheme::Facetime,
            Scheme::Hangout,
            Scheme::Omniscient,
        ]) {
            assert!(r.throughput_kbps > 0.0, "{}: no throughput", scheme.name());
            assert!(
                r.p95_delay_ms.is_finite() && r.p95_delay_ms >= 20.0,
                "{}: p95 {:?} must include propagation",
                scheme.name(),
                r.p95_delay_ms
            );
            assert!(r.utilization > 0.0 && r.utilization <= 1.001);
        }
    }

    #[test]
    fn scheme_tags_round_trip_and_are_unique() {
        // The tags were once derived from the display names at run time;
        // that derivation is the oracle every row of the table must match,
        // and the names are the ones labels, JSON and reports have printed.
        let derived = |name: &str| {
            name.to_ascii_lowercase()
                .replace(' ', "-")
                .replace("tcp", "")
                .trim_matches('-')
                .to_string()
        };
        let names = [
            "Sprout",
            "Sprout-EWMA",
            "Cubic",
            "Cubic-CoDel",
            "Reno",
            "Vegas",
            "Compound TCP",
            "LEDBAT",
            "Skype",
            "Facetime",
            "Google Hangout",
            "Omniscient",
        ];
        for (i, (scheme, name)) in Scheme::all().into_iter().zip(names).enumerate() {
            assert_eq!(
                scheme as usize, i,
                "{name}: the table is in declaration order"
            );
            assert_eq!(scheme.name(), name);
            assert_eq!(scheme.tag(), derived(name), "{name}");
        }
        let mut tags: Vec<&str> = Scheme::all().iter().map(|s| s.tag()).collect();
        for scheme in Scheme::all() {
            assert_eq!(
                Scheme::from_tag(scheme.tag()),
                Some(scheme),
                "{} tag must parse back",
                scheme.name()
            );
        }
        assert_eq!(Scheme::from_tag("sprout-ewma"), Some(Scheme::SproutEwma));
        assert_eq!(Scheme::from_tag("compound"), Some(Scheme::Compound));
        assert_eq!(Scheme::from_tag("bogus"), None);
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), Scheme::all().len(), "tags must be unique");
    }

    #[test]
    fn omniscient_has_zero_self_inflicted_delay() {
        let (_, r) = run_schemes([Scheme::Omniscient]).remove(0);
        assert!(r.self_inflicted_ms.abs() < 1e-6);
        assert!(r.utilization > 0.999);
    }
}
