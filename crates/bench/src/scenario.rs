//! Declarative experiment cells.
//!
//! The paper's evaluation (§5) is a cross-product: schemes × link
//! directions × queue disciplines × loss rates × forecast-confidence
//! settings. A [`Scenario`] names one cell of that product as plain data —
//! no endpoints, no traces, nothing stateful — so cells can be enumerated,
//! hashed, serialized, and shipped to worker threads. A
//! [`ScenarioMatrix`] is the declared cross-product of one experiment
//! (one per figure/table), built through [`MatrixBuilder`].
//!
//! Identity and determinism: every scenario carries a stable `id` (its
//! position in the matrix declaration order). The sweep engine
//! (`crate::sweep`) derives all per-cell randomness from
//! `(master_seed, id)` via [`sprout_trace::derive_seed`], so a matrix
//! replays bit-identically regardless of thread count or execution order.

use sprout_baselines::VideoApp;
use sprout_trace::{Duration, Impairment, NetProfile};

use crate::schemes::Scheme;

/// The opposite direction of the same network: the feedback path of every
/// cell is the link's paired reverse direction. A measured capture has no
/// recorded reverse direction, so a measured cell replays the *same*
/// capture on the feedback path — a deliberate, documented substitute
/// (feedback traffic is tiny, so what matters is that the path is
/// deterministic and cellular-shaped, not its exact direction).
pub fn paired(link: LinkSpec) -> LinkSpec {
    match link {
        LinkSpec::Profile(profile) => LinkSpec::Profile(paired_profile(profile)),
        measured @ LinkSpec::Measured { .. } => measured,
    }
}

/// The synthetic other direction of one network ([`paired`] for the
/// profile-only callers that build standalone `RunConfig`s).
pub fn paired_profile(profile: NetProfile) -> NetProfile {
    match profile {
        NetProfile::VerizonLteDown => NetProfile::VerizonLteUp,
        NetProfile::VerizonLteUp => NetProfile::VerizonLteDown,
        NetProfile::Verizon3gDown => NetProfile::Verizon3gUp,
        NetProfile::Verizon3gUp => NetProfile::Verizon3gDown,
        NetProfile::AttLteDown => NetProfile::AttLteUp,
        NetProfile::AttLteUp => NetProfile::AttLteDown,
        NetProfile::TmobileUmtsDown => NetProfile::TmobileUmtsUp,
        NetProfile::TmobileUmtsUp => NetProfile::TmobileUmtsDown,
    }
}

/// The link axis of a cell: either a synthesized [`NetProfile`] (the
/// paper's fitted link models) or a *measured* Saturator capture,
/// identified by the content fingerprint of its file bytes.
///
/// A measured link never carries a path: paths differ between machines
/// and shard workers, fingerprints do not. The capture itself lives in
/// the process-global [`sprout_trace::registry`], where every process
/// re-registers its `--trace` files; the scenario only names the bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LinkSpec {
    /// A synthesized link from the paper's fitted stochastic models.
    Profile(NetProfile),
    /// A measured Saturator capture, content-addressed by
    /// [`sprout_cache::fingerprint64`] over its raw file bytes.
    Measured {
        /// Fingerprint of the capture's file bytes.
        fingerprint: u64,
    },
}

impl LinkSpec {
    /// Machine-friendly identifier, used in labels, canonical encodings,
    /// and JSON rows. Profile links keep their historical ids
    /// (`vz-lte-down`, …); measured links render as `m<16-hex-digit
    /// fingerprint>` — derived from content, never from a path, so two
    /// copies of one capture produce identical labels and identical cell
    /// identities.
    pub fn id(&self) -> String {
        match self {
            LinkSpec::Profile(p) => p.id().to_string(),
            LinkSpec::Measured { fingerprint } => format!("m{fingerprint:016x}"),
        }
    }

    /// The synthesized profile, when this is a profile link.
    pub fn profile(&self) -> Option<NetProfile> {
        match self {
            LinkSpec::Profile(p) => Some(*p),
            LinkSpec::Measured { .. } => None,
        }
    }

    /// The capture fingerprint, when this is a measured link.
    pub fn measured_fingerprint(&self) -> Option<u64> {
        match self {
            LinkSpec::Profile(_) => None,
            LinkSpec::Measured { fingerprint } => Some(*fingerprint),
        }
    }
}

impl From<NetProfile> for LinkSpec {
    fn from(profile: NetProfile) -> Self {
        LinkSpec::Profile(profile)
    }
}

/// Most sessions one serve cell may declare: 4× the capacity sweep's top
/// point, a guard against a typo'd `--sessions` allocating millions of
/// endpoints in one cell.
pub const MAX_SERVE_SESSIONS: u32 = 4096;

/// Most flows one contention cell may declare. Generous for the
/// contention regime the literature sweeps (a handful of flows per user
/// queue), and a guard against accidentally declaring a thousand-endpoint
/// simulation in one cell.
pub const MAX_CONTENTION_FLOWS: usize = 16;

/// The one-way propagation delays a cell may declare, in whole ms: what
/// `--prop-delays` parses and what [`MatrixBuilder::prop_delays_ms`]
/// accepts. Zero is out: at 0 ms a packet sent at `now` reaches the queue
/// at `now`, after that step's deliveries, so the event loop forces 1 µs of
/// progress and polls again — and a Sprout sender still in its one-MTU-
/// per-poll startup window emits an MTU every µs until feedback lands
/// (megabytes sent in the first few milliseconds, whose drain then sets
/// the cell's p95 delay whatever the forecaster).
pub const PROP_DELAY_MS: std::ops::RangeInclusive<u64> = 1..=10_000;

/// One contending flow of a [`Workload::Contention`] cell.
///
/// A flow is either a whole scheme — a bulk transport saturating its
/// share of the queue, or an open-loop app model — or a video app
/// isolated inside its own SproutTunnel session (§4.3) while the other
/// flows commingle around it. Per-flow metrics are attributed at the
/// bottleneck by [`sprout_sim::FlowId`], so a tunneled flow's numbers
/// describe its Sprout *wire* traffic (what the shared queue actually
/// carried for it).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FlowSpec {
    /// One endpoint pair of this scheme (any scheme except the
    /// omniscient reference, which presumes sole ownership of the link).
    Scheme(Scheme),
    /// A video app inside its own SproutTunnel session. `over` must be a
    /// tunneling carrier ([`Scheme::tunnels_apps`]); an app flow over
    /// anything else is just `FlowSpec::Scheme(app scheme)` next to an
    /// explicit bulk flow.
    App {
        /// The modeled application riding the tunnel.
        app: VideoApp,
        /// The tunneling transport (Sprout or Sprout-EWMA).
        over: Scheme,
    },
}

impl FlowSpec {
    /// The lowercase, hyphenated tag used in labels and canonical
    /// encodings, e.g. `cubic` or `skype-over-sprout`.
    pub fn tag(&self) -> String {
        match self {
            FlowSpec::Scheme(s) => s.tag(),
            FlowSpec::App { app, over } => format!("{}-over-{}", app.id(), over.tag()),
        }
    }

    /// Panic unless this spec is a valid contention flow (no omniscient
    /// flows; app flows must ride a tunneling carrier).
    fn validate(&self) {
        match self {
            FlowSpec::Scheme(s) => assert!(
                *s != Scheme::Omniscient,
                "the omniscient reference presumes sole ownership of the link; \
                 it cannot be a contention flow"
            ),
            FlowSpec::App { over, .. } => assert!(
                over.tunnels_apps(),
                "a contention app flow must ride a tunneling carrier \
                 (Sprout/Sprout-EWMA), got {}; declare a bare app flow as \
                 FlowSpec::Scheme instead",
                over.name()
            ),
        }
    }
}

/// What runs inside a cell.
///
/// Every variant but [`Workload::Scheme`], [`Workload::Serve`] and the
/// probe declares a *flow list* — flows behind a mux pair on one shared
/// path, optionally inside a SproutTunnel — and the executor builds them
/// all the same way. So three declarations are one simulation, equal to
/// the last bit: [`Workload::MuxDirect`], `App { app: Skype, over:
/// Cubic }` and `Contention { flows: [Scheme(Cubic), Scheme(Skype)] }`
/// all put a Cubic download on flow 1 and a Skype call on flow 2 of one
/// carrier queue (only the contention cell adds Jain's index). They
/// stay separate declarations because labels and cache keys name them.
#[derive(Clone, Debug, PartialEq)]
pub enum Workload {
    /// One scheme saturating the link under test (Figure 7 style).
    Scheme(Scheme),
    /// A video application carried over a transport scheme (the §5.2
    /// apps as first-class matrix citizens). Over Sprout/Sprout-EWMA the
    /// app rides inside a SproutTunnel session (§4.3); over any other
    /// transport the app's open-loop flow shares the carrier queue with
    /// a bulk flow of that scheme (§5.7 "direct", generalized).
    App {
        /// The modeled application.
        app: VideoApp,
        /// The transport carrying (or competing with) the app's flow.
        /// Must itself be a transport — not an app model, not the
        /// omniscient protocol.
        over: Scheme,
    },
    /// N ≥ 2 independent flows sharing one bottleneck link and queue —
    /// the multi-flow generalization of the §5.7 mux pair, the regime
    /// where a deep per-user buffer makes delay collapse under
    /// contention. Flow `i` of the spec list runs as
    /// `FlowId(i + 1)`, and the cell reports per-flow throughput/delay
    /// plus Jain's fairness index over the flow throughputs.
    Contention {
        /// The contending flows, in [`sprout_sim::FlowId`] order.
        flows: Vec<FlowSpec>,
    },
    /// N independent Sprout sessions served by *one* shared-event-loop
    /// server process — the capacity workload. Unlike
    /// [`Workload::Contention`], the sessions do not share a bottleneck:
    /// each gets its own pair of directed paths (same link profile, its
    /// own [`sprout_trace::session_seed`]-derived loss streams), and the
    /// server side multiplexes all of them over one
    /// [`sprout_core::SessionPool`] with a single shared forecast-table
    /// build. Session `i` runs as `FlowId(i + 1)`.
    Serve {
        /// Number of concurrent sessions (≥ 1).
        sessions: u32,
    },
    /// Cubic bulk + Skype commingled in the carrier queue (§5.7 "direct").
    MuxDirect,
    /// Cubic bulk + Skype isolated inside a SproutTunnel session (§5.7).
    MuxTunneled,
    /// No endpoints: synthesize a saturated trace and analyse its
    /// interarrival distribution (Figure 2).
    InterarrivalProbe,
}

impl Workload {
    /// Machine-friendly identifier (labels, JSON rows).
    pub fn id(&self) -> &'static str {
        match self {
            Workload::Scheme(_) => "scheme",
            Workload::App { .. } => "app",
            Workload::Contention { .. } => "contention",
            Workload::Serve { .. } => "serve",
            Workload::MuxDirect => "mux-direct",
            Workload::MuxTunneled => "mux-tunneled",
            Workload::InterarrivalProbe => "interarrival-probe",
        }
    }

    /// The scheme, when the workload is a scheme cell.
    pub fn scheme(&self) -> Option<Scheme> {
        match self {
            Workload::Scheme(s) => Some(*s),
            _ => None,
        }
    }

    /// The app and its carrier, when the workload is an app cell.
    pub fn app(&self) -> Option<(VideoApp, Scheme)> {
        match self {
            Workload::App { app, over } => Some((*app, *over)),
            _ => None,
        }
    }

    /// The contending flows, when the workload is a contention cell.
    pub fn contention_flows(&self) -> Option<&[FlowSpec]> {
        match self {
            Workload::Contention { flows } => Some(flows),
            _ => None,
        }
    }

    /// The session count, when the workload is a serve cell.
    pub fn serve_sessions(&self) -> Option<u32> {
        match self {
            Workload::Serve { sessions } => Some(*sessions),
            _ => None,
        }
    }

    /// The transport scheme whose queue preference governs
    /// [`QueueSpec::Auto`]: the scheme itself for scheme cells, the
    /// carrier for app cells. Contention cells have no single carrier —
    /// `Auto` resolves to the deep DropTail default, the shared per-user
    /// buffer the contention regime is about.
    pub fn carrier_scheme(&self) -> Option<Scheme> {
        match self {
            Workload::Scheme(s) => Some(*s),
            Workload::App { over, .. } => Some(*over),
            _ => None,
        }
    }

    /// The workload's contribution to a cell's canonical identity beyond
    /// the variant tag: the scheme name, `app+carrier` for app cells, or
    /// the `+`-joined flow tags (in flow order) for contention cells.
    pub fn canonical_detail(&self) -> String {
        match self {
            Workload::Scheme(s) => s.name().to_string(),
            Workload::App { app, over } => format!("{}+{}", app.id(), over.name()),
            Workload::Contention { flows } => flows
                .iter()
                .map(FlowSpec::tag)
                .collect::<Vec<_>>()
                .join("+"),
            Workload::Serve { sessions } => format!("n{sessions}"),
            _ => String::new(),
        }
    }
}

/// Bottleneck queue discipline of a cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum QueueSpec {
    /// Let the scheme decide: CoDel iff the carrier scheme's
    /// [`Scheme::needs_codel`] (the paper runs Cubic-CoDel behind CoDel,
    /// everything else behind the carrier's deep DropTail queue).
    #[default]
    Auto,
    /// Force the deep default DropTail
    /// ([`sprout_sim::DEEP_QUEUE_BYTES`] — explicit capacity, behaves as
    /// unbounded for every real scheme).
    DropTail,
    /// Force DropTail bounded at this byte capacity (the per-user
    /// buffer-depth axis: shallow caps emulate thin-buffered carriers,
    /// deep caps bufferbloat).
    DropTailBytes(u64),
    /// Force CoDel at the bottleneck.
    CoDel,
}

impl QueueSpec {
    /// Machine-friendly identifier (labels, canonical encodings).
    pub fn id(self) -> String {
        match self {
            QueueSpec::Auto => "auto".to_string(),
            QueueSpec::DropTail => "droptail".to_string(),
            QueueSpec::DropTailBytes(cap) => format!("droptail-{cap}b"),
            QueueSpec::CoDel => "codel".to_string(),
        }
    }

    /// Resolve to a concrete discipline for `workload`. `Auto` and
    /// `DropTail` both land on the *explicit* deep default capacity —
    /// never an unbounded queue — so the byte-cap path is the only
    /// DropTail path sweeps exercise.
    pub fn resolve(self, workload: &Workload) -> ResolvedQueue {
        match self {
            QueueSpec::DropTail => ResolvedQueue::DropTail,
            QueueSpec::DropTailBytes(cap) => ResolvedQueue::DropTailBytes(cap),
            QueueSpec::CoDel => ResolvedQueue::CoDel,
            QueueSpec::Auto => match workload.carrier_scheme() {
                Some(s) if s.needs_codel() => ResolvedQueue::CoDel,
                _ => ResolvedQueue::DropTail,
            },
        }
    }
}

/// A concrete queue discipline after [`QueueSpec::resolve`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResolvedQueue {
    /// The deep default DropTail: capacity
    /// [`sprout_sim::DEEP_QUEUE_BYTES`], indistinguishable from
    /// unbounded for real schemes but explicit and finite.
    DropTail,
    /// DropTail bounded at this byte capacity.
    DropTailBytes(u64),
    /// CoDel AQM.
    CoDel,
}

impl ResolvedQueue {
    /// Machine-friendly identifier.
    pub fn id(self) -> String {
        match self {
            ResolvedQueue::DropTail => "droptail".to_string(),
            ResolvedQueue::DropTailBytes(cap) => format!("droptail-{cap}b"),
            ResolvedQueue::CoDel => "codel".to_string(),
        }
    }
}

/// One cell of an experiment matrix: pure data describing what to run.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Stable identity: position in the matrix declaration order. All
    /// per-cell randomness derives from `(master_seed, id)`.
    pub id: u64,
    /// Human/machine-readable cell label, e.g.
    /// `fig7/vz-lte-down/cubic-codel`.
    pub label: String,
    /// What runs in the cell.
    pub workload: Workload,
    /// Link under test: a synthesized profile (the feedback path is the
    /// paired opposite direction of the same network) or a measured
    /// capture (replayed on both directions).
    pub link: LinkSpec,
    /// Bottleneck queue discipline.
    pub queue: QueueSpec,
    /// One-way propagation delay of each direction (the paper's
    /// standard condition is 20 ms each way; min-RTT = 2× this).
    pub prop_delay: Duration,
    /// Bernoulli per-direction loss probability (§5.6).
    pub loss_rate: f64,
    /// Forecast confidence percent override (None = the paper's 95%).
    pub confidence_pct: Option<f64>,
    /// Virtual run time.
    pub duration: Duration,
    /// Warm-up skipped before measurement.
    pub warmup: Duration,
    /// When set, collect per-bin throughput/delay/capacity series at this
    /// bin width (Figure 1).
    pub series_bin: Option<Duration>,
    /// Deterministic fault injection applied to both directions of the
    /// path ([`Impairment::none()`] for the classic clean-link cell).
    pub impairment: Impairment,
    /// When set, the cell additionally emits a **cell series** —
    /// per-delivery delay-vs-time plus per-bin capacity / throughput /
    /// queue-depth series at this bin width — persisted in the artifact
    /// cache inside the cell's own `cell-result` file (the `--timeseries`
    /// flag). Part of cell identity: a cached cell either has its series
    /// or was never asked for one.
    pub cell_series_bin: Option<Duration>,
}

impl Scenario {
    /// Append this cell's canonical encoding to `w`: every field, in
    /// declaration order, with floats as raw bits. This byte string is
    /// the cell's *identity* — the cell-result cache keys on it — so it
    /// must change whenever any field that can influence results changes.
    /// Extend it in lockstep when `Scenario` grows fields.
    pub fn canonical_bytes(&self, w: &mut sprout_cache::ByteWriter) {
        w.u64(self.id);
        w.str(&self.label);
        w.str(self.workload.id());
        w.str(&self.workload.canonical_detail());
        w.str(&self.link.id());
        w.str(&self.queue.id());
        w.u64(self.prop_delay.as_micros());
        w.f64(self.loss_rate);
        w.bool(self.confidence_pct.is_some());
        w.f64(self.confidence_pct.unwrap_or(0.0));
        w.u64(self.duration.as_micros());
        w.u64(self.warmup.as_micros());
        w.bool(self.series_bin.is_some());
        w.u64(self.series_bin.map(|b| b.as_micros()).unwrap_or(0));
        // Fault-injection components, each as presence flag + parameters
        // (zeros when absent, mirroring the confidence/series encodings).
        let imp = &self.impairment;
        w.bool(imp.burst_loss.is_some());
        w.f64(imp.burst_loss.map(|g| g.p_good_to_bad).unwrap_or(0.0));
        w.f64(imp.burst_loss.map(|g| g.p_bad_to_good).unwrap_or(0.0));
        w.f64(imp.burst_loss.map(|g| g.loss_good).unwrap_or(0.0));
        w.f64(imp.burst_loss.map(|g| g.loss_bad).unwrap_or(0.0));
        w.bool(imp.outage.is_some());
        w.u64(imp.outage.map(|o| o.duration.as_micros()).unwrap_or(0));
        w.u64(imp.outage.map(|o| o.spacing.as_micros()).unwrap_or(0));
        w.bool(imp.jitter.is_some());
        w.u64(imp.jitter.map(|j| j.max.as_micros()).unwrap_or(0));
        w.bool(imp.reorder.is_some());
        w.f64(imp.reorder.map(|r| r.probability).unwrap_or(0.0));
        w.u64(imp.reorder.map(|r| r.extra_delay.as_micros()).unwrap_or(0));
        // The cell series request is a *conditional tail*: appended only
        // when present, so every pre-existing scenario keeps its exact
        // historical canonical bytes (the golden-fingerprint snapshot
        // regenerates strictly additively). Safe because the tail only
        // ever extends the encoding — a scenario with the tail is never
        // byte-equal to one without it.
        if let Some(bin) = self.cell_series_bin {
            w.bool(true);
            w.u64(bin.as_micros());
        }
    }

    /// Stable 64-bit fingerprint of [`Self::canonical_bytes`].
    pub fn fingerprint(&self) -> u64 {
        let mut w = sprout_cache::ByteWriter::with_capacity(96);
        self.canonical_bytes(&mut w);
        sprout_cache::fingerprint64(&w.finish())
    }
}

/// A named, ordered set of scenarios — the declared form of one
/// experiment.
#[derive(Clone, Debug)]
pub struct ScenarioMatrix {
    name: String,
    cells: Vec<Scenario>,
}

impl ScenarioMatrix {
    /// Start declaring a matrix.
    pub fn builder(name: impl Into<String>) -> MatrixBuilder {
        MatrixBuilder::new(name)
    }

    /// Assemble a matrix from explicit cells (shard tooling and tests).
    /// Preserves the builder's invariant that `cells()[i].id == i`.
    pub fn from_cells(name: impl Into<String>, cells: Vec<Scenario>) -> Self {
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(
                cell.id, i as u64,
                "cell ids must equal their position in the matrix"
            );
        }
        ScenarioMatrix {
            name: name.into(),
            cells,
        }
    }

    /// The matrix name (figure/table identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Stable fingerprint of the whole declaration: the name plus every
    /// cell's canonical encoding. Two matrices share a fingerprint only
    /// if they would run exactly the same sweep.
    pub fn fingerprint(&self) -> u64 {
        let mut w = sprout_cache::ByteWriter::with_capacity(64 + 96 * self.cells.len());
        w.str(&self.name);
        w.u64(self.cells.len() as u64);
        for cell in &self.cells {
            cell.canonical_bytes(&mut w);
        }
        sprout_cache::fingerprint64(&w.finish())
    }

    /// The cells, in declaration order (`cells()[i].id == i`).
    pub fn cells(&self) -> &[Scenario] {
        &self.cells
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Builder for [`ScenarioMatrix`]: declare axes, take the cross-product.
///
/// Cell order — and therefore scenario identity — is the deterministic
/// nesting `workload × link × queue × prop_delay × loss_rate ×
/// confidence × impairment`, each axis in its declared order.
/// Single-valued axes add no label component, so matrices that don't use
/// an axis keep their historical labels.
#[derive(Clone, Debug)]
pub struct MatrixBuilder {
    name: String,
    workloads: Vec<Workload>,
    links: Vec<LinkSpec>,
    queues: Vec<QueueSpec>,
    prop_delays: Vec<Duration>,
    loss_rates: Vec<f64>,
    confidences: Vec<Option<f64>>,
    impairments: Vec<Impairment>,
    duration: Duration,
    warmup: Duration,
    series_bin: Option<Duration>,
    cell_series_bin: Option<Duration>,
}

impl MatrixBuilder {
    fn new(name: impl Into<String>) -> Self {
        MatrixBuilder {
            name: name.into(),
            workloads: Vec::new(),
            links: Vec::new(),
            queues: vec![QueueSpec::Auto],
            prop_delays: vec![Duration::from_millis(20)],
            loss_rates: vec![0.0],
            confidences: vec![None],
            impairments: vec![Impairment::none()],
            duration: Duration::from_secs(300),
            warmup: Duration::from_secs(60),
            series_bin: None,
            cell_series_bin: None,
        }
    }

    /// Add scheme workloads.
    pub fn schemes(mut self, schemes: impl IntoIterator<Item = Scheme>) -> Self {
        self.workloads
            .extend(schemes.into_iter().map(Workload::Scheme));
        self
    }

    /// Add app-over-transport workloads: the cross-product of `apps` and
    /// `carriers` (§5.2 apps riding §4.3 tunnels or sharing a §5.7
    /// carrier queue). Carriers must be transports.
    pub fn apps(
        mut self,
        apps: impl IntoIterator<Item = sprout_baselines::VideoApp>,
        carriers: impl IntoIterator<Item = Scheme>,
    ) -> Self {
        let carriers: Vec<Scheme> = carriers.into_iter().collect();
        for over in &carriers {
            assert!(
                over.is_transport(),
                "app carrier must be a transport scheme, got {}",
                over.name()
            );
        }
        for app in apps {
            self.workloads
                .extend(carriers.iter().map(|&over| Workload::App { app, over }));
        }
        self
    }

    /// Add contention workloads: each item is the flow list of one
    /// multi-flow cell (≥ 2 flows sharing the bottleneck queue). Flow
    /// order is [`sprout_sim::FlowId`] order and part of cell identity.
    /// Flows must be real protocols (no omniscient) and app flows must
    /// ride a tunneling carrier — see [`FlowSpec`].
    pub fn contention(mut self, cells: impl IntoIterator<Item = Vec<FlowSpec>>) -> Self {
        for flows in cells {
            assert!(
                flows.len() >= 2,
                "a contention cell needs at least two flows, got {}",
                flows.len()
            );
            assert!(
                flows.len() <= MAX_CONTENTION_FLOWS,
                "a contention cell is capped at {MAX_CONTENTION_FLOWS} flows, got {}",
                flows.len()
            );
            for spec in &flows {
                spec.validate();
            }
            self.workloads.push(Workload::Contention { flows });
        }
        self
    }

    /// Add serve workloads: each item is the session count of one
    /// multi-session capacity cell (the N axis of the serve experiment).
    pub fn serve(mut self, session_counts: impl IntoIterator<Item = u32>) -> Self {
        for sessions in session_counts {
            assert!(sessions >= 1, "a serve cell needs at least one session");
            assert!(
                sessions <= MAX_SERVE_SESSIONS,
                "a serve cell is capped at {MAX_SERVE_SESSIONS} sessions, got {sessions}"
            );
            self.workloads.push(Workload::Serve { sessions });
        }
        self
    }

    /// Add arbitrary workloads (mux/tunnel/probe cells).
    pub fn workloads(mut self, workloads: impl IntoIterator<Item = Workload>) -> Self {
        self.workloads.extend(workloads);
        self
    }

    /// Set the link axis: synthesized [`NetProfile`]s and/or measured
    /// [`LinkSpec::Measured`] captures.
    pub fn links<L: Into<LinkSpec>>(mut self, links: impl IntoIterator<Item = L>) -> Self {
        self.links.extend(links.into_iter().map(Into::into));
        self
    }

    /// Set the loss-rate axis (replaces the default `[0.0]`).
    pub fn loss_rates(mut self, rates: impl IntoIterator<Item = f64>) -> Self {
        self.loss_rates = rates.into_iter().collect();
        assert!(!self.loss_rates.is_empty(), "loss axis must be non-empty");
        self
    }

    /// Set the forecast-confidence axis in percent (replaces the default
    /// "paper 95%").
    pub fn confidences_pct(mut self, pct: impl IntoIterator<Item = f64>) -> Self {
        self.confidences = pct.into_iter().map(Some).collect();
        assert!(
            !self.confidences.is_empty(),
            "confidence axis must be non-empty"
        );
        self
    }

    /// Set the fault-injection axis (replaces the default
    /// `[Impairment::none()]`). Each impairment is applied to both
    /// directions of the path; every process it carries is validated at
    /// declaration time so an invalid cell fails before any sweep runs.
    pub fn impairments(mut self, impairments: impl IntoIterator<Item = Impairment>) -> Self {
        self.impairments = impairments.into_iter().collect();
        assert!(
            !self.impairments.is_empty(),
            "impairment axis must be non-empty"
        );
        for imp in &self.impairments {
            imp.validate();
        }
        self
    }

    /// Set the queue-discipline axis (replaces the default `[Auto]`):
    /// deep-vs-shallow bufferbloat comparisons cross `Auto`,
    /// `DropTailBytes(..)` caps, and `CoDel` here.
    pub fn queues(mut self, queues: impl IntoIterator<Item = QueueSpec>) -> Self {
        self.queues = queues.into_iter().collect();
        assert!(!self.queues.is_empty(), "queue axis must be non-empty");
        self
    }

    /// Set the one-way propagation-delay axis in milliseconds (replaces
    /// the default `[20]`, the paper's standard condition; min-RTT is 2×
    /// each value). Each value must lie in [`PROP_DELAY_MS`].
    pub fn prop_delays_ms(mut self, ms: impl IntoIterator<Item = u64>) -> Self {
        self.prop_delays = ms
            .into_iter()
            .map(|ms| {
                assert!(
                    PROP_DELAY_MS.contains(&ms),
                    "prop delay {ms} ms is outside {PROP_DELAY_MS:?} ms"
                );
                Duration::from_millis(ms)
            })
            .collect();
        assert!(
            !self.prop_delays.is_empty(),
            "prop-delay axis must be non-empty"
        );
        self
    }

    /// Set run and warm-up durations.
    pub fn timing(mut self, duration: Duration, warmup: Duration) -> Self {
        assert!(warmup < duration, "warmup must be shorter than the run");
        self.duration = duration;
        self.warmup = warmup;
        self
    }

    /// Collect per-bin time series at this bin width.
    pub fn series_bin(mut self, bin: Duration) -> Self {
        self.series_bin = Some(bin);
        self
    }

    /// Collect per-cell time series (delay-vs-time plus binned
    /// capacity/throughput/queue-depth) at this bin width — the
    /// `--timeseries` flag. Changes cell identity (see
    /// [`Scenario::cell_series_bin`]).
    pub fn cell_series(mut self, bin: Duration) -> Self {
        assert!(bin > Duration::ZERO, "cell-series bin must be positive");
        self.cell_series_bin = Some(bin);
        self
    }

    /// Take the cross-product.
    pub fn build(self) -> ScenarioMatrix {
        assert!(
            !self.workloads.is_empty(),
            "matrix needs at least one workload"
        );
        assert!(!self.links.is_empty(), "matrix needs at least one link");
        let mut cells = Vec::with_capacity(
            self.workloads.len()
                * self.links.len()
                * self.queues.len()
                * self.prop_delays.len()
                * self.loss_rates.len()
                * self.confidences.len()
                * self.impairments.len(),
        );
        for workload in &self.workloads {
            for &link in &self.links {
                for &queue in &self.queues {
                    for &prop_delay in &self.prop_delays {
                        for &loss_rate in &self.loss_rates {
                            for &confidence_pct in &self.confidences {
                                for &impairment in &self.impairments {
                                    let id = cells.len() as u64;
                                    let mut label = format!(
                                        "{}/{}/{}",
                                        self.name,
                                        link.id(),
                                        workload_tag(workload)
                                    );
                                    if self.queues.len() > 1 {
                                        label.push_str(&format!("/q-{}", queue.id()));
                                    }
                                    if self.prop_delays.len() > 1 {
                                        label.push_str(&format!(
                                            "/d{}ms",
                                            prop_delay.as_micros() / 1_000
                                        ));
                                    }
                                    if self.loss_rates.len() > 1 {
                                        label.push_str(&format!("/loss{:.0}", loss_rate * 100.0));
                                    }
                                    if let (Some(pct), true) =
                                        (confidence_pct, self.confidences.len() > 1)
                                    {
                                        label.push_str(&format!("/conf{pct:.0}"));
                                    }
                                    if self.impairments.len() > 1 {
                                        label.push_str(&format!("/i-{}", impairment.id()));
                                    }
                                    cells.push(Scenario {
                                        id,
                                        label,
                                        workload: workload.clone(),
                                        link,
                                        queue,
                                        prop_delay,
                                        loss_rate,
                                        confidence_pct,
                                        duration: self.duration,
                                        warmup: self.warmup,
                                        series_bin: self.series_bin,
                                        impairment,
                                        cell_series_bin: self.cell_series_bin,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        ScenarioMatrix {
            name: self.name,
            cells,
        }
    }
}

fn workload_tag(workload: &Workload) -> String {
    match workload {
        Workload::Scheme(s) => s.tag(),
        Workload::App { app, over } => format!("{}-over-{}", app.id(), over.tag()),
        Workload::Contention { .. } => workload.canonical_detail(),
        Workload::Serve { sessions } => format!("serve-n{sessions}"),
        other => other.id().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_declaration_order() {
        let m = ScenarioMatrix::builder("t")
            .schemes([Scheme::Sprout, Scheme::Cubic])
            .links(NetProfile::all())
            .build();
        assert_eq!(m.len(), 16);
        for (i, cell) in m.cells().iter().enumerate() {
            assert_eq!(cell.id, i as u64);
        }
        // First axis varies slowest.
        assert_eq!(m.cells()[0].workload, Workload::Scheme(Scheme::Sprout));
        assert_eq!(m.cells()[8].workload, Workload::Scheme(Scheme::Cubic));
    }

    #[test]
    fn cross_product_covers_all_axes() {
        let m = ScenarioMatrix::builder("t")
            .schemes([Scheme::Sprout])
            .links([NetProfile::VerizonLteDown, NetProfile::VerizonLteUp])
            .loss_rates([0.0, 0.05, 0.10])
            .build();
        assert_eq!(m.len(), 6);
        let rates: Vec<f64> = m.cells().iter().map(|c| c.loss_rate).collect();
        assert_eq!(rates, vec![0.0, 0.05, 0.10, 0.0, 0.05, 0.10]);
    }

    #[test]
    fn auto_queue_follows_needs_codel() {
        for scheme in Scheme::fig7().into_iter().chain([Scheme::CubicCodel]) {
            let resolved = QueueSpec::Auto.resolve(&Workload::Scheme(scheme));
            let expect = if scheme.needs_codel() {
                ResolvedQueue::CoDel
            } else {
                ResolvedQueue::DropTail
            };
            assert_eq!(resolved, expect, "{}", scheme.name());
        }
    }

    #[test]
    fn fingerprints_are_stable_and_distinguish_cells() {
        let m = ScenarioMatrix::builder("t")
            .schemes([Scheme::Sprout, Scheme::Cubic])
            .links([NetProfile::VerizonLteDown])
            .loss_rates([0.0, 0.05])
            .build();
        assert_eq!(m.fingerprint(), m.fingerprint());
        let mut prints: Vec<u64> = m.cells().iter().map(|c| c.fingerprint()).collect();
        prints.sort_unstable();
        prints.dedup();
        assert_eq!(prints.len(), m.len(), "cell fingerprints must not collide");

        // Any field change moves the fingerprint.
        let mut cell = m.cells()[0].clone();
        let base = cell.fingerprint();
        cell.loss_rate = 0.07;
        assert_ne!(cell.fingerprint(), base);
        cell.loss_rate = m.cells()[0].loss_rate;
        cell.confidence_pct = Some(0.0);
        assert_ne!(
            cell.fingerprint(),
            base,
            "Some(0.0) must differ from None despite the 0.0 sentinel"
        );

        // A different matrix declaration has a different fingerprint.
        let other = ScenarioMatrix::builder("t")
            .schemes([Scheme::Sprout, Scheme::Cubic])
            .links([NetProfile::VerizonLteDown])
            .loss_rates([0.0, 0.06])
            .build();
        assert_ne!(m.fingerprint(), other.fingerprint());
    }

    #[test]
    fn from_cells_preserves_position_ids() {
        let m = ScenarioMatrix::builder("t")
            .schemes([Scheme::Sprout])
            .links([NetProfile::VerizonLteDown, NetProfile::VerizonLteUp])
            .build();
        let rebuilt = ScenarioMatrix::from_cells("t", m.cells().to_vec());
        assert_eq!(rebuilt.fingerprint(), m.fingerprint());
    }

    #[test]
    #[should_panic(expected = "cell ids must equal their position")]
    fn from_cells_rejects_misnumbered_cells() {
        let m = ScenarioMatrix::builder("t")
            .schemes([Scheme::Sprout])
            .links([NetProfile::VerizonLteDown, NetProfile::VerizonLteUp])
            .build();
        let mut cells = m.cells().to_vec();
        cells.swap(0, 1);
        ScenarioMatrix::from_cells("t", cells);
    }

    #[test]
    fn new_axes_cross_and_fingerprint_distinctly() {
        let m = ScenarioMatrix::builder("t")
            .schemes([Scheme::Sprout])
            .apps([VideoApp::Skype], [Scheme::Sprout, Scheme::Cubic])
            .links([NetProfile::VerizonLteDown])
            .queues([
                QueueSpec::Auto,
                QueueSpec::DropTailBytes(75_000),
                QueueSpec::CoDel,
            ])
            .prop_delays_ms([10, 50])
            .build();
        // 3 workloads × 1 link × 3 queues × 2 delays.
        assert_eq!(m.len(), 18);
        let mut prints: Vec<u64> = m.cells().iter().map(|c| c.fingerprint()).collect();
        prints.sort_unstable();
        prints.dedup();
        assert_eq!(prints.len(), m.len(), "axis values must not collide");
        let mut labels: Vec<&str> = m.cells().iter().map(|c| c.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), m.len(), "axis labels must be unique");
        assert!(
            m.cells()
                .iter()
                .any(|c| c.label == "t/vz-lte-down/skype-over-cubic/q-droptail-75000b/d10ms"),
            "app/queue/delay label layout"
        );
        // A prop-delay change alone moves the fingerprint.
        let mut cell = m.cells()[0].clone();
        let base = cell.fingerprint();
        cell.prop_delay = Duration::from_millis(21);
        assert_ne!(cell.fingerprint(), base);
    }

    #[test]
    fn auto_queue_for_app_cells_follows_the_carrier() {
        let over_codel = Workload::App {
            app: VideoApp::Skype,
            over: Scheme::CubicCodel,
        };
        assert_eq!(QueueSpec::Auto.resolve(&over_codel), ResolvedQueue::CoDel);
        let over_cubic = Workload::App {
            app: VideoApp::Skype,
            over: Scheme::Cubic,
        };
        assert_eq!(
            QueueSpec::Auto.resolve(&over_cubic),
            ResolvedQueue::DropTail
        );
    }

    #[test]
    fn contention_cells_cross_links_and_fingerprint_distinctly() {
        let m = ScenarioMatrix::builder("t")
            .contention([
                vec![FlowSpec::Scheme(Scheme::Cubic); 3],
                vec![
                    FlowSpec::Scheme(Scheme::Sprout),
                    FlowSpec::Scheme(Scheme::Cubic),
                    FlowSpec::Scheme(Scheme::Cubic),
                ],
                vec![
                    FlowSpec::App {
                        app: VideoApp::Skype,
                        over: Scheme::Sprout,
                    },
                    FlowSpec::Scheme(Scheme::Cubic),
                ],
            ])
            .links([NetProfile::VerizonLteDown, NetProfile::TmobileUmtsUp])
            .build();
        assert_eq!(m.len(), 6);
        let mut prints: Vec<u64> = m.cells().iter().map(|c| c.fingerprint()).collect();
        prints.sort_unstable();
        prints.dedup();
        assert_eq!(prints.len(), m.len(), "contention cells must not collide");
        assert_eq!(
            m.cells()[0].label,
            "t/vz-lte-down/cubic+cubic+cubic",
            "contention labels list the flows in FlowId order"
        );
        assert_eq!(m.cells()[4].label, "t/vz-lte-down/skype-over-sprout+cubic");
        // Flow order is identity: [sprout, cubic] != [cubic, sprout].
        let ab = Workload::Contention {
            flows: vec![
                FlowSpec::Scheme(Scheme::Sprout),
                FlowSpec::Scheme(Scheme::Cubic),
            ],
        };
        let ba = Workload::Contention {
            flows: vec![
                FlowSpec::Scheme(Scheme::Cubic),
                FlowSpec::Scheme(Scheme::Sprout),
            ],
        };
        assert_ne!(ab.canonical_detail(), ba.canonical_detail());
        // Auto resolves to the deep shared DropTail buffer.
        assert_eq!(QueueSpec::Auto.resolve(&ab), ResolvedQueue::DropTail);
    }

    #[test]
    #[should_panic(expected = "at least two flows")]
    fn contention_rejects_single_flow_cells() {
        let _ = ScenarioMatrix::builder("t").contention([vec![FlowSpec::Scheme(Scheme::Cubic)]]);
    }

    #[test]
    #[should_panic(expected = "omniscient")]
    fn contention_rejects_omniscient_flows() {
        let _ = ScenarioMatrix::builder("t").contention([vec![
            FlowSpec::Scheme(Scheme::Omniscient),
            FlowSpec::Scheme(Scheme::Cubic),
        ]]);
    }

    #[test]
    #[should_panic(expected = "tunneling carrier")]
    fn contention_app_flows_must_ride_a_tunnel() {
        let _ = ScenarioMatrix::builder("t").contention([vec![
            FlowSpec::App {
                app: VideoApp::Skype,
                over: Scheme::Cubic,
            },
            FlowSpec::Scheme(Scheme::Cubic),
        ]]);
    }

    #[test]
    #[should_panic(expected = "app carrier must be a transport")]
    fn app_carriers_cannot_be_apps() {
        let _ = ScenarioMatrix::builder("t").apps([VideoApp::Skype], [Scheme::Facetime]);
    }

    #[test]
    fn labels_are_unique_within_a_matrix() {
        let m = ScenarioMatrix::builder("fig7")
            .schemes(Scheme::fig7())
            .links(NetProfile::all())
            .loss_rates([0.0, 0.05])
            .build();
        let mut labels: Vec<&str> = m.cells().iter().map(|c| c.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), m.len());
    }
}
