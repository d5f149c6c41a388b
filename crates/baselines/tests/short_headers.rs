//! A baseline endpoint reads one header kind, and a payload too short to
//! hold that header is junk: every proper prefix of a valid header —
//! TCP data and ACK, app frame and report, Saturator probe and probe ACK
//! — must leave its endpoint exactly as it was. No panic, no packet, no
//! state change. Every header here is one an endpoint really sent.

use sprout_baselines::{
    AppProfile, Reno, SaturatorReceiver, SaturatorSender, TcpReceiver, TcpSender, VideoAppReceiver,
    VideoAppSender,
};
use sprout_sim::{Endpoint, Packet};
use sprout_trace::Timestamp;

fn t(ms: u64) -> Timestamp {
    Timestamp::from_millis(ms)
}

/// Everything `e` sends at `now`.
fn polled(e: &mut impl Endpoint, now: Timestamp) -> Vec<Packet> {
    let mut out = Vec::new();
    e.poll_into(now, &mut out);
    out
}

/// What can be seen of `e` after it is handed `packet` at `now`: what it
/// sends at `now`, when it wants to wake next, and what `state` reads.
fn seen<E: Endpoint>(
    mut e: E,
    packet: Option<Packet>,
    now: Timestamp,
    state: impl Fn(&E) -> String,
) -> String {
    if let Some(p) = packet {
        e.on_packet(p, now);
    }
    let out = polled(&mut e, now);
    format!("{out:?} | {:?} | {}", e.next_wakeup(), state(&e))
}

/// Hand every proper prefix of `header` to a fresh `make()` at `now` and
/// require it to look like a twin that was handed nothing. The whole
/// header must make a difference, or the check proves nothing.
fn prefixes_are_ignored<E: Endpoint>(
    what: &str,
    make: impl Fn() -> E,
    header: &Packet,
    now: Timestamp,
    state: impl Fn(&E) -> String,
) {
    let untouched = seen(make(), None, now, &state);
    for n in 0..header.payload.len() {
        let prefix = Packet {
            payload: header.payload.slice(0..n),
            ..header.clone()
        };
        assert_eq!(
            seen(make(), Some(prefix), now, &state),
            untouched,
            "{what}: a {n}-byte prefix changed the endpoint"
        );
    }
    assert_ne!(
        seen(make(), Some(header.clone()), now, &state),
        untouched,
        "{what}: the whole header went unread"
    );
}

#[test]
fn every_proper_prefix_of_a_tcp_header_is_ignored() {
    let fresh = || TcpSender::new(Box::new(Reno::new()));
    let data = polled(&mut fresh(), t(0)).remove(0);
    let sender = || {
        let mut s = fresh();
        polled(&mut s, t(0));
        s
    };
    let mut receiver = TcpReceiver::new();
    receiver.on_packet(data.clone(), t(10));
    let ack = polled(&mut receiver, t(10)).remove(0);

    prefixes_are_ignored("TCP data", TcpReceiver::new, &data, t(10), |r| {
        r.segments_received().to_string()
    });
    prefixes_are_ignored("TCP ACK", sender, &ack, t(20), |s| {
        format!("{} {:?}", s.segments_sent(), s.rtt().srtt())
    });
}

#[test]
fn every_proper_prefix_of_an_app_header_is_ignored() {
    let sender = || VideoAppSender::new(AppProfile::facetime());
    let frame = polled(&mut sender(), t(0)).remove(0);
    // Delivered 900 ms late, so the first report names a congested path.
    let mut receiver = VideoAppReceiver::new();
    receiver.on_packet(frame.clone(), t(900));
    let report = polled(&mut receiver, t(900)).remove(0);

    prefixes_are_ignored("app frame", VideoAppReceiver::new, &frame, t(10), |r| {
        r.received().to_string()
    });
    // A congested sender holds its rate where a twin ramps it at 1 s.
    prefixes_are_ignored("app report", sender, &report, t(1_000), |s| {
        s.rate_bps().to_string()
    });
}

#[test]
fn every_proper_prefix_of_a_saturator_probe_is_ignored() {
    let probe = polled(&mut SaturatorSender::new(), t(0)).remove(0);
    let sender = || {
        let mut s = SaturatorSender::new();
        polled(&mut s, t(0));
        s
    };
    let mut receiver = SaturatorReceiver::new();
    receiver.on_packet(probe.clone(), t(10));
    let probe_ack = polled(&mut receiver, t(10)).remove(0);

    prefixes_are_ignored("probe", SaturatorReceiver::new, &probe, t(10), |r| {
        format!("{:?}", r.captured_trace())
    });
    prefixes_are_ignored("probe ACK", sender, &probe_ack, t(20), |s| {
        format!("{} {:?}", s.window(), s.last_rtt())
    });
}
