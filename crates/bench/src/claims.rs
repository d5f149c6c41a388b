//! The paper's numbers, declared once.
//!
//! [`CLAIMS`] holds every number of the paper's evaluation this repo
//! prints: each [`Claim`] is one paper value, where the paper states it,
//! how ours is read off the fig2, fig7, loss and tunnel sweeps, and how
//! far ours may sit from it. The reports quote the paper from this list
//! (the `*_quote*` functions below render the same bytes the reports
//! printed when the numbers were literals), and the `scorecard` row of
//! [`crate::figures::EXPERIMENTS`] judges every claim into
//! `scorecard.tsv`. Only numbers the repo printed before the list
//! existed are here; none is added from memory.

use std::fmt;
use std::io::{self, Write};

use sprout_sim::FlowId;
use sprout_trace::NetProfile;

use crate::figures::{self, Col, Sweep};
use crate::scenario::Workload;
use crate::schemes::{Scheme, SchemeResult};
use crate::sweep::{self, FlowSummary, SweepResult};

// Tolerances: how far ours may sit from the paper's number and still
// read green, as a factor — ours / paper must lie within
// `[1 / factor, factor]`. Each was fixed, with its reason, before any
// verdict was read; none is widened to turn a row green.

/// A multiple of one scheme over another (intro table 1): table 1
/// argues in such multiples, read off 17-minute captures, and ours are
/// one draw of each scheme on synthetic stand-ins for them, so a
/// multiple is held to its factor of two, not to its digits.
const MULTIPLE: f64 = 2.0;

/// An absolute rate, delay or fitted exponent: the links are synthetic
/// models calibrated to the capacity scale of Figure 7's axes, not the
/// captures, and each number is one run of minutes where the paper's
/// traces run 17, so an absolute figure is held to a quarter.
const ABSOLUTE: f64 = 1.25;

/// A share the paper prints to two decimals near 100 %, where the last
/// digits are the claim (they state how few interarrivals exceed
/// 20 ms): ours must round to the same digits.
const PRINTED: f64 = 1.000_05;

/// Sprout's throughput: finding 3's shortfall.
const THROUGHPUT_GAP: Option<&str> = Some(
    "Sprout leaves throughput and delay budget unspent, and the loss grows with the RTT \
     (ROADMAP finding 3; item 3 attributes and fixes it)",
);

/// Sprout's delay: neither its sender nor its forecast is the paper's.
const DELAY_GAP: Option<&str> = Some(
    "Sprout's delay comes from a sender that leaves its 100 ms budget unspent (ROADMAP \
     finding 3) and a forecast whose 95 % covers 78-93 % (finding 4)",
);

/// Sprout at 10 % loss keeps more than the paper's.
const LOSS_GAP: Option<&str> = Some(
    "Sprout runs at about half the paper's rate before any loss (ROADMAP finding 3), so \
     10 % loss takes less off it than off the paper's; that reading is untested",
);

/// The links are calibrated, not fitted.
const LINK_GAP: Option<&str> = Some(
    "the synthetic links are calibrated to Figure 7's axes, not fitted to the captures \
     (ROADMAP item 6), so a loss-based flow's rate and standing queue on them are the \
     model's, and Sprout's delay the ratio divides by is not the paper's (finding 3)",
);

/// The Fig. 2 row is a claim about the links themselves.
const TAIL_GAP: Option<&str> = Some(
    "the synthetic links' interarrival tail is far heavier than the capture's, and the \
     slope estimator has never been checked on a tail of known slope (ROADMAP item 6)",
);

/// The video apps are models of closed binaries.
const APP_GAP: Option<&str> = Some(
    "the video apps are models of closed binaries (ROADMAP item 14): ours send and queue \
     several times what the paper measured",
);

/// One number of the paper, and how ours compares.
pub struct Claim {
    /// Stable id: `scorecard.tsv`'s key, and what tests and docs cite.
    pub id: &'static str,
    /// Where the paper states it.
    pub section: &'static str,
    /// What the number is.
    pub what: &'static str,
    /// The paper's value.
    pub paper: f64,
    /// The decimal places the paper prints it with.
    pub decimals: usize,
    /// Ours, read off the concatenated results of the `scorecard`
    /// row's matrices (NaN where a cell it reads is missing).
    pub ours: fn(&[SweepResult]) -> f64,
    /// How far ours may sit from `paper`: the largest factor between
    /// them (one of the three tolerances above).
    pub tolerance: f64,
    /// Why ours misses, citing ROADMAP, printed on a red row.
    pub known_gap: Option<&'static str>,
}

impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (id, section, what, paper) = (self.id, self.section, self.what, self.paper_text());
        write!(f, "claim {id} ({section}: {what}; paper {paper})")
    }
}

/// A claim judged against one set of results.
struct Verdict {
    claim: &'static Claim,
    ours: f64,
    ratio: f64,
    green: bool,
}

impl Claim {
    /// The paper's value as the paper prints it.
    pub fn paper_text(&self) -> String {
        format!("{:.*}", self.decimals, self.paper)
    }

    fn judge(&'static self, results: &[SweepResult]) -> Verdict {
        let ours = (self.ours)(results);
        let ratio = ours / self.paper;
        let green = ratio > 0.0 && ratio.max(1.0 / ratio) <= self.tolerance;
        Verdict {
            claim: self,
            ours,
            ratio,
            green,
        }
    }
}

/// The claim `id`. Panics on an id the list does not hold: a report or
/// a test that cites a claim cites one that exists.
pub fn claim(id: &str) -> &'static Claim {
    let found = CLAIMS.iter().find(|c| c.id == id);
    found.unwrap_or_else(|| panic!("no claim {id:?} in CLAIMS"))
}

/// The rows of intro table 1, in the paper's order.
pub(crate) const TABLE1: [Scheme; 8] = [
    Scheme::Skype,
    Scheme::Hangout,
    Scheme::Facetime,
    Scheme::Compound,
    Scheme::Vegas,
    Scheme::Ledbat,
    Scheme::Cubic,
    Scheme::CubicCodel,
];

/// The cells of matrix `name`: a row's matrices run one after another,
/// so each one's cells are contiguous.
fn sweep_of<'a>(results: &'a [SweepResult], name: &str) -> &'a [SweepResult] {
    let start = results.iter().position(|r| r.matrix == name);
    let rest = &results[start.unwrap_or(results.len())..];
    &rest[..rest.iter().take_while(|r| r.matrix == name).count()]
}

/// Column `col` of [`figures::intro_row`] for `of` against Sprout.
fn table1(results: &[SweepResult], of: Scheme, col: usize) -> f64 {
    figures::intro_row(sweep_of(results, "fig7"), Scheme::Sprout, of)[col]
}

/// The Fig. 2 probe's interarrival summary, through `metric`.
fn fig2(results: &[SweepResult], metric: fn(&sweep::InterarrivalSummary) -> Option<f64>) -> f64 {
    let probe = sweep_of(results, "fig2")
        .iter()
        .find_map(|r| r.interarrival.as_ref());
    probe.and_then(metric).unwrap_or(f64::NAN)
}

/// A metric of the loss sweep's Sprout cell on `link` at `pct` % loss.
fn loss(
    results: &[SweepResult],
    link: NetProfile,
    pct: f64,
    metric: fn(&SchemeResult) -> f64,
) -> f64 {
    let at = |r: &&SweepResult| {
        r.scenario.link.profile() == Some(link) && (r.scenario.loss_rate * 100.0).round() == pct
    };
    let cell = sweep_of(results, "loss").iter().find(at);
    cell.map_or(f64::NAN, |r| metric(&figures::metrics(r)))
}

/// A metric of one flow of the tunnel sweep's `workload` cell.
fn tunnel(
    results: &[SweepResult],
    workload: Workload,
    flow: FlowId,
    metric: fn(&FlowSummary) -> f64,
) -> f64 {
    let cell = sweep_of(results, "tunnel")
        .iter()
        .find(|r| r.scenario.workload == workload);
    cell.map_or(f64::NAN, |r| figures::flow_metric(r, flow, metric))
}

const T1: &str = "§1 table 1";
const SPEEDUP: &str = "Sprout's throughput over the scheme's, mean of per-link ratios";
const REDUCTION: &str = "the scheme's mean self-inflicted delay over Sprout's";
const DELAY_S: &str = "the scheme's mean self-inflicted delay over the links, s";

/// Every paper number the repo prints, in report order.
pub static CLAIMS: [Claim; 44] = [
    Claim {
        id: "fig2.within_20ms_pct",
        section: "Fig. 2",
        what: "share of a saturated Verizon LTE downlink's interarrivals within 20 ms, %",
        paper: 99.99,
        decimals: 2,
        ours: |r| fig2(r, |ia| Some(ia.fraction_within_20ms * 100.0)),
        tolerance: PRINTED,
        known_gap: TAIL_GAP,
    },
    Claim {
        id: "fig2.tail_slope",
        section: "Fig. 2",
        what: "power-law slope of the interarrival tail past 20 ms",
        paper: -3.27,
        decimals: 2,
        ours: |r| fig2(r, |ia| ia.tail_slope),
        tolerance: ABSOLUTE,
        known_gap: TAIL_GAP,
    },
    Claim {
        id: "table1.skype.speedup",
        section: T1,
        what: SPEEDUP,
        paper: 2.2,
        decimals: 1,
        ours: |r| table1(r, Scheme::Skype, 0),
        tolerance: MULTIPLE,
        known_gap: THROUGHPUT_GAP,
    },
    Claim {
        id: "table1.skype.delay_ratio",
        section: T1,
        what: REDUCTION,
        paper: 7.9,
        decimals: 1,
        ours: |r| table1(r, Scheme::Skype, 1),
        tolerance: MULTIPLE,
        known_gap: APP_GAP,
    },
    Claim {
        id: "table1.skype.delay_s",
        section: T1,
        what: DELAY_S,
        paper: 2.52,
        decimals: 2,
        ours: |r| table1(r, Scheme::Skype, 2),
        tolerance: ABSOLUTE,
        known_gap: APP_GAP,
    },
    Claim {
        id: "table1.google-hangout.speedup",
        section: T1,
        what: SPEEDUP,
        paper: 4.4,
        decimals: 1,
        ours: |r| table1(r, Scheme::Hangout, 0),
        tolerance: MULTIPLE,
        known_gap: THROUGHPUT_GAP,
    },
    Claim {
        id: "table1.google-hangout.delay_ratio",
        section: T1,
        what: REDUCTION,
        paper: 7.2,
        decimals: 1,
        ours: |r| table1(r, Scheme::Hangout, 1),
        tolerance: MULTIPLE,
        known_gap: APP_GAP,
    },
    Claim {
        id: "table1.google-hangout.delay_s",
        section: T1,
        what: DELAY_S,
        paper: 2.28,
        decimals: 2,
        ours: |r| table1(r, Scheme::Hangout, 2),
        tolerance: ABSOLUTE,
        known_gap: APP_GAP,
    },
    Claim {
        id: "table1.facetime.speedup",
        section: T1,
        what: SPEEDUP,
        paper: 1.9,
        decimals: 1,
        ours: |r| table1(r, Scheme::Facetime, 0),
        tolerance: MULTIPLE,
        known_gap: THROUGHPUT_GAP,
    },
    Claim {
        id: "table1.facetime.delay_ratio",
        section: T1,
        what: REDUCTION,
        paper: 8.7,
        decimals: 1,
        ours: |r| table1(r, Scheme::Facetime, 1),
        tolerance: MULTIPLE,
        known_gap: APP_GAP,
    },
    Claim {
        id: "table1.facetime.delay_s",
        section: T1,
        what: DELAY_S,
        paper: 2.75,
        decimals: 2,
        ours: |r| table1(r, Scheme::Facetime, 2),
        tolerance: ABSOLUTE,
        known_gap: APP_GAP,
    },
    Claim {
        id: "table1.compound.speedup",
        section: T1,
        what: SPEEDUP,
        paper: 1.3,
        decimals: 1,
        ours: |r| table1(r, Scheme::Compound, 0),
        tolerance: MULTIPLE,
        known_gap: THROUGHPUT_GAP,
    },
    Claim {
        id: "table1.compound.delay_ratio",
        section: T1,
        what: REDUCTION,
        paper: 4.8,
        decimals: 1,
        ours: |r| table1(r, Scheme::Compound, 1),
        tolerance: MULTIPLE,
        known_gap: LINK_GAP,
    },
    Claim {
        id: "table1.compound.delay_s",
        section: T1,
        what: DELAY_S,
        paper: 1.53,
        decimals: 2,
        ours: |r| table1(r, Scheme::Compound, 2),
        tolerance: ABSOLUTE,
        known_gap: LINK_GAP,
    },
    Claim {
        id: "table1.vegas.speedup",
        section: T1,
        what: SPEEDUP,
        paper: 1.1,
        decimals: 1,
        ours: |r| table1(r, Scheme::Vegas, 0),
        tolerance: MULTIPLE,
        known_gap: THROUGHPUT_GAP,
    },
    Claim {
        id: "table1.vegas.delay_ratio",
        section: T1,
        what: REDUCTION,
        paper: 2.1,
        decimals: 1,
        ours: |r| table1(r, Scheme::Vegas, 1),
        tolerance: MULTIPLE,
        known_gap: LINK_GAP,
    },
    Claim {
        id: "table1.vegas.delay_s",
        section: T1,
        what: DELAY_S,
        paper: 0.67,
        decimals: 2,
        ours: |r| table1(r, Scheme::Vegas, 2),
        tolerance: ABSOLUTE,
        known_gap: LINK_GAP,
    },
    Claim {
        id: "table1.ledbat.speedup",
        section: T1,
        what: SPEEDUP,
        paper: 1.0,
        decimals: 1,
        ours: |r| table1(r, Scheme::Ledbat, 0),
        tolerance: MULTIPLE,
        known_gap: THROUGHPUT_GAP,
    },
    Claim {
        id: "table1.ledbat.delay_ratio",
        section: T1,
        what: REDUCTION,
        paper: 2.8,
        decimals: 1,
        ours: |r| table1(r, Scheme::Ledbat, 1),
        tolerance: MULTIPLE,
        known_gap: LINK_GAP,
    },
    Claim {
        id: "table1.ledbat.delay_s",
        section: T1,
        what: DELAY_S,
        paper: 0.89,
        decimals: 2,
        ours: |r| table1(r, Scheme::Ledbat, 2),
        tolerance: ABSOLUTE,
        known_gap: LINK_GAP,
    },
    Claim {
        id: "table1.cubic.speedup",
        section: T1,
        what: SPEEDUP,
        paper: 0.91,
        decimals: 2,
        ours: |r| table1(r, Scheme::Cubic, 0),
        tolerance: MULTIPLE,
        known_gap: THROUGHPUT_GAP,
    },
    Claim {
        id: "table1.cubic.delay_ratio",
        section: T1,
        what: REDUCTION,
        paper: 79.0,
        decimals: 0,
        ours: |r| table1(r, Scheme::Cubic, 1),
        tolerance: MULTIPLE,
        known_gap: LINK_GAP,
    },
    Claim {
        id: "table1.cubic.delay_s",
        section: T1,
        what: DELAY_S,
        paper: 25.0,
        decimals: 0,
        ours: |r| table1(r, Scheme::Cubic, 2),
        tolerance: ABSOLUTE,
        known_gap: LINK_GAP,
    },
    Claim {
        id: "table1.cubic-codel.speedup",
        section: T1,
        what: SPEEDUP,
        paper: 0.70,
        decimals: 2,
        ours: |r| table1(r, Scheme::CubicCodel, 0),
        tolerance: MULTIPLE,
        known_gap: THROUGHPUT_GAP,
    },
    Claim {
        id: "table1.cubic-codel.delay_ratio",
        section: T1,
        what: REDUCTION,
        paper: 1.6,
        decimals: 1,
        ours: |r| table1(r, Scheme::CubicCodel, 1),
        tolerance: MULTIPLE,
        known_gap: LINK_GAP,
    },
    Claim {
        id: "table1.cubic-codel.delay_s",
        section: T1,
        what: DELAY_S,
        paper: 0.50,
        decimals: 2,
        ours: |r| table1(r, Scheme::CubicCodel, 2),
        tolerance: ABSOLUTE,
        known_gap: LINK_GAP,
    },
    Claim {
        id: "loss.vz-lte-down.0pct.kbps",
        section: "§5.6",
        what: "Sprout's throughput on the Verizon LTE downlink, no loss, kbps",
        paper: 4741.0,
        decimals: 0,
        ours: |r| loss(r, NetProfile::VerizonLteDown, 0.0, |m| m.throughput_kbps),
        tolerance: ABSOLUTE,
        known_gap: THROUGHPUT_GAP,
    },
    Claim {
        id: "loss.vz-lte-down.0pct.ms",
        section: "§5.6",
        what: "Sprout's self-inflicted delay on the Verizon LTE downlink, no loss, ms",
        paper: 73.0,
        decimals: 0,
        ours: |r| loss(r, NetProfile::VerizonLteDown, 0.0, |m| m.self_inflicted_ms),
        tolerance: ABSOLUTE,
        known_gap: DELAY_GAP,
    },
    Claim {
        id: "loss.vz-lte-down.5pct.kbps",
        section: "§5.6",
        what: "Sprout's throughput on the Verizon LTE downlink at 5 % loss, kbps",
        paper: 3971.0,
        decimals: 0,
        ours: |r| loss(r, NetProfile::VerizonLteDown, 5.0, |m| m.throughput_kbps),
        tolerance: ABSOLUTE,
        known_gap: THROUGHPUT_GAP,
    },
    Claim {
        id: "loss.vz-lte-down.5pct.ms",
        section: "§5.6",
        what: "Sprout's self-inflicted delay on the Verizon LTE downlink at 5 % loss, ms",
        paper: 60.0,
        decimals: 0,
        ours: |r| loss(r, NetProfile::VerizonLteDown, 5.0, |m| m.self_inflicted_ms),
        tolerance: ABSOLUTE,
        known_gap: DELAY_GAP,
    },
    Claim {
        id: "loss.vz-lte-down.10pct.kbps",
        section: "§5.6",
        what: "Sprout's throughput on the Verizon LTE downlink at 10 % loss, kbps",
        paper: 2768.0,
        decimals: 0,
        ours: |r| loss(r, NetProfile::VerizonLteDown, 10.0, |m| m.throughput_kbps),
        tolerance: ABSOLUTE,
        known_gap: LOSS_GAP,
    },
    Claim {
        id: "loss.vz-lte-down.10pct.ms",
        section: "§5.6",
        what: "Sprout's self-inflicted delay on the Verizon LTE downlink at 10 % loss, ms",
        paper: 58.0,
        decimals: 0,
        ours: |r| loss(r, NetProfile::VerizonLteDown, 10.0, |m| m.self_inflicted_ms),
        tolerance: ABSOLUTE,
        known_gap: DELAY_GAP,
    },
    Claim {
        id: "loss.vz-lte-up.0pct.kbps",
        section: "§5.6",
        what: "Sprout's throughput on the Verizon LTE uplink, no loss, kbps",
        paper: 3703.0,
        decimals: 0,
        ours: |r| loss(r, NetProfile::VerizonLteUp, 0.0, |m| m.throughput_kbps),
        tolerance: ABSOLUTE,
        known_gap: THROUGHPUT_GAP,
    },
    Claim {
        id: "loss.vz-lte-up.0pct.ms",
        section: "§5.6",
        what: "Sprout's self-inflicted delay on the Verizon LTE uplink, no loss, ms",
        paper: 332.0,
        decimals: 0,
        ours: |r| loss(r, NetProfile::VerizonLteUp, 0.0, |m| m.self_inflicted_ms),
        tolerance: ABSOLUTE,
        known_gap: DELAY_GAP,
    },
    Claim {
        id: "loss.vz-lte-up.5pct.kbps",
        section: "§5.6",
        what: "Sprout's throughput on the Verizon LTE uplink at 5 % loss, kbps",
        paper: 2598.0,
        decimals: 0,
        ours: |r| loss(r, NetProfile::VerizonLteUp, 5.0, |m| m.throughput_kbps),
        tolerance: ABSOLUTE,
        known_gap: THROUGHPUT_GAP,
    },
    Claim {
        id: "loss.vz-lte-up.5pct.ms",
        section: "§5.6",
        what: "Sprout's self-inflicted delay on the Verizon LTE uplink at 5 % loss, ms",
        paper: 378.0,
        decimals: 0,
        ours: |r| loss(r, NetProfile::VerizonLteUp, 5.0, |m| m.self_inflicted_ms),
        tolerance: ABSOLUTE,
        known_gap: DELAY_GAP,
    },
    Claim {
        id: "loss.vz-lte-up.10pct.kbps",
        section: "§5.6",
        what: "Sprout's throughput on the Verizon LTE uplink at 10 % loss, kbps",
        paper: 1163.0,
        decimals: 0,
        ours: |r| loss(r, NetProfile::VerizonLteUp, 10.0, |m| m.throughput_kbps),
        tolerance: ABSOLUTE,
        known_gap: LOSS_GAP,
    },
    Claim {
        id: "loss.vz-lte-up.10pct.ms",
        section: "§5.6",
        what: "Sprout's self-inflicted delay on the Verizon LTE uplink at 10 % loss, ms",
        paper: 314.0,
        decimals: 0,
        ours: |r| loss(r, NetProfile::VerizonLteUp, 10.0, |m| m.self_inflicted_ms),
        tolerance: ABSOLUTE,
        known_gap: DELAY_GAP,
    },
    Claim {
        id: "tunnel.direct.cubic_kbps",
        section: "§5.7",
        what: "Cubic's throughput sharing the Verizon LTE downlink with Skype, kbps",
        paper: 8336.0,
        decimals: 0,
        ours: |r| {
            tunnel(r, Workload::MuxDirect, sweep::BULK_FLOW, |f| {
                f.throughput_kbps
            })
        },
        tolerance: ABSOLUTE,
        known_gap: LINK_GAP,
    },
    Claim {
        id: "tunnel.via.cubic_kbps",
        section: "§5.7",
        what: "Cubic's throughput with both flows inside SproutTunnel, kbps",
        paper: 3776.0,
        decimals: 0,
        ours: |r| {
            tunnel(r, Workload::MuxTunneled, sweep::BULK_FLOW, |f| {
                f.throughput_kbps
            })
        },
        tolerance: ABSOLUTE,
        known_gap: THROUGHPUT_GAP,
    },
    Claim {
        id: "tunnel.direct.skype_kbps",
        section: "§5.7",
        what: "Skype's throughput sharing the Verizon LTE downlink with Cubic, kbps",
        paper: 78.0,
        decimals: 0,
        ours: |r| {
            tunnel(r, Workload::MuxDirect, sweep::INTERACTIVE_FLOW, |f| {
                f.throughput_kbps
            })
        },
        tolerance: ABSOLUTE,
        known_gap: APP_GAP,
    },
    Claim {
        id: "tunnel.via.skype_kbps",
        section: "§5.7",
        what: "Skype's throughput with both flows inside SproutTunnel, kbps",
        paper: 490.0,
        decimals: 0,
        ours: |r| {
            tunnel(r, Workload::MuxTunneled, sweep::INTERACTIVE_FLOW, |f| {
                f.throughput_kbps
            })
        },
        tolerance: ABSOLUTE,
        known_gap: APP_GAP,
    },
    Claim {
        id: "tunnel.direct.skype_delay_s",
        section: "§5.7",
        what: "Skype's delay sharing the link with Cubic (ours: its p95), s",
        paper: 6.0,
        decimals: 1,
        ours: |r| {
            tunnel(r, Workload::MuxDirect, sweep::INTERACTIVE_FLOW, |f| {
                f.p95_delay_ms / 1e3
            })
        },
        tolerance: ABSOLUTE,
        known_gap: LINK_GAP,
    },
    Claim {
        id: "tunnel.via.skype_delay_s",
        section: "§5.7",
        what: "Skype's delay inside SproutTunnel (ours: its p95), s",
        paper: 0.17,
        decimals: 2,
        ours: |r| {
            tunnel(r, Workload::MuxTunneled, sweep::INTERACTIVE_FLOW, |f| {
                f.p95_delay_ms / 1e3
            })
        },
        tolerance: ABSOLUTE,
        known_gap: APP_GAP,
    },
];

// ------------------------------------------ how the reports quote them

/// The paper's text of claim `id`.
fn text(id: &str) -> String {
    claim(id).paper_text()
}

/// Fig. 2's console quotes: the share within 20 ms, the tail slope.
pub(crate) fn fig2_quotes() -> [String; 2] {
    [
        format!("[paper: {}%]", text("fig2.within_20ms_pct")),
        format!("[paper: {}]", text("fig2.tail_slope")),
    ]
}

/// Intro table 1's quotes for `of`: its speedup, its delay reduction
/// with its mean delay.
pub(crate) fn table1_quotes(of: Scheme) -> [String; 2] {
    let t = |col: &str| text(&format!("table1.{}.{col}", of.tag()));
    [
        format!("[paper {:>5}]", format!("{}x", t("speedup"))),
        format!("[paper {}x ({}s)]", t("delay_ratio"), t("delay_s")),
    ]
}

/// §5.6's two console lines, downlink then uplink.
pub(crate) fn loss_quote() -> String {
    [("downlink", "vz-lte-down"), ("uplink", "vz-lte-up")]
        .map(|(direction, link)| {
            let t = |pct: u32, unit: &str| text(&format!("loss.{link}.{pct}pct.{unit}"));
            format!(
                "  paper {:<12}0% {}kbps/{}ms, 5% {}/{}, 10% {}/{}",
                format!("({direction}):"),
                t(0, "kbps"),
                t(0, "ms"),
                t(5, "kbps"),
                t(5, "ms"),
                t(10, "kbps"),
                t(10, "ms"),
            )
        })
        .join("\n")
}

/// §5.7's console line: each metric direct → via SproutTunnel, with the
/// change the paper's two numbers make.
pub(crate) fn tunnel_quote() -> String {
    let pair = |metric: &str, unit: &str| {
        let [direct, via] = ["direct", "via"].map(|at| claim(&format!("tunnel.{at}.{metric}")));
        let change = 100.0 * (via.paper / direct.paper - 1.0);
        let (from, to) = (direct.paper_text(), via.paper_text());
        format!("{from}->{to} {unit} ({change:+.0}%)")
    };
    format!(
        "  paper: cubic {}, skype {}, skype delay {}",
        pair("cubic_kbps", "kbps"),
        pair("skype_kbps", "kbps"),
        pair("skype_delay_s", "s"),
    )
}

// --------------------------------------------------------- the scorecard

/// The `scorecard` row's report: every claim judged against the fig2,
/// fig7, loss and tunnel sweeps, as `scorecard.tsv` (one row per claim;
/// a red row carries its `known_gap`) and one console line each.
pub fn scorecard_report(s: &Sweep<'_>, out: &mut dyn Write) -> io::Result<()> {
    let verdicts: Vec<Verdict> = CLAIMS.iter().map(|c| c.judge(s.results)).collect();
    let col = |name, cell: fn(&Verdict) -> String| Col(name, Box::new(cell));
    s.cfg.write_table(
        "scorecard.tsv",
        &verdicts,
        &[
            col("claim", |v| v.claim.id.to_string()),
            col("section", |v| v.claim.section.to_string()),
            col("paper", |v| v.claim.paper_text()),
            col("ours", |v| format!("{:.*}", v.claim.decimals + 1, v.ours)),
            col("ratio", |v| format!("{:.3}", v.ratio)),
            col("tolerance", |v| format!("x{}", v.claim.tolerance)),
            col("verdict", |v| verdict(v).to_string()),
            col("known_gap", |v| gap(v).to_string()),
        ],
    )?;
    let green = verdicts.iter().filter(|v| v.green).count();
    writeln!(
        out,
        "\n== scorecard: {} claims, {green} green, {} red ({:.0?}) ==",
        verdicts.len(),
        verdicts.len() - green,
        s.elapsed
    )?;
    for v in &verdicts {
        writeln!(
            out,
            "  {:5} {:34} paper {:>8}  ours {:>9}  ratio {:.3}",
            verdict(v),
            v.claim.id,
            v.claim.paper_text(),
            format!("{:.*}", v.claim.decimals, v.ours),
            v.ratio
        )?;
    }
    writeln!(out, "rows, tolerances and known gaps: scorecard.tsv")
}

fn verdict(v: &Verdict) -> &'static str {
    if v.green {
        "green"
    } else {
        "red"
    }
}

/// A red row's explanation; a red row without one is a regression to
/// look at.
fn gap(v: &Verdict) -> &'static str {
    match (v.green, v.claim.known_gap) {
        (true, _) => "",
        (false, Some(gap)) => gap,
        (false, None) => "unexplained",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::apply_worker_args;
    use crate::figures::{select, ExperimentConfig};
    use crate::sweep::{execute_with_memo, CellScratch, TraceMemo};

    #[test]
    fn the_claim_list_is_well_formed() {
        for (i, c) in CLAIMS.iter().enumerate() {
            assert!(CLAIMS[..i].iter().all(|d| d.id != c.id), "{c}: id twice");
            assert!(c.paper.is_finite(), "{c}: paper value");
            assert!(c.tolerance >= 1.0, "{c}: tolerance");
            if let Some(gap) = c.known_gap {
                let cites = |what: &str| {
                    gap.split(what)
                        .skip(1)
                        .any(|rest| rest.starts_with(|ch: char| ch.is_ascii_digit()))
                };
                assert!(cites("finding ") || cites("item "), "{c}: {gap}");
            }
        }
        // The reports' quotes find every id they build.
        for of in TABLE1 {
            table1_quotes(of);
        }
        let _ = (fig2_quotes(), loss_quote(), tunnel_quote());
    }

    #[test]
    fn every_claim_resolves_at_the_quick_shape_and_the_rendered_scale() {
        // The cells run here synthesise traces through the artifact
        // cache, whose directory the cell-cache tests repoint and list.
        let _cache = crate::cellcache::tests::CACHE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let row = select("scorecard").expect("the scorecard row")[0];
        let under = |flags: &[&str]| {
            let mut cfg = ExperimentConfig::default();
            let flags: Vec<String> = flags.iter().map(|f| f.to_string()).collect();
            apply_worker_args(&mut cfg, row.name, &flags).expect("the flags parse");
            row.declare(&cfg)
        };
        // `rendered_tables`' scale, executed cell by cell.
        let (memo, mut scratch) = (TraceMemo::new(7), CellScratch::default());
        let rendered: Vec<SweepResult> = under(&["--secs", "12", "--warmup", "2"])
            .iter()
            .flat_map(|m| m.cells().iter().map(move |cell| (m.name(), cell)))
            .map(|(name, cell)| execute_with_memo(name, cell, 7, &memo, &mut scratch))
            .collect();
        // The `--quick` shape: the same results on its cells.
        let quick = under(&["--quick"]);
        let cells: Vec<_> = quick.iter().flat_map(|m| m.cells()).collect();
        assert_eq!(cells.len(), rendered.len());
        let quick: Vec<SweepResult> = cells
            .into_iter()
            .zip(&rendered)
            .map(|(cell, r)| SweepResult {
                scenario: cell.clone(),
                ..r.clone()
            })
            .collect();
        for results in [&rendered, &quick] {
            for c in &CLAIMS {
                let ours = (c.ours)(results);
                assert!(ours.is_finite(), "{c}: ours = {ours}");
            }
        }
    }
}
