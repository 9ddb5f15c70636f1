//! Congestion control: one window, three policies.
//!
//! The interface follows the CCP/portus shape: the policy owns `cwnd` and
//! `ssthresh`, and the datapath only reports *measurements*, one per
//! congestion event (`Event`: a new-data ACK, whose ECN echo rides on
//! `Measurement::ecn`; the third duplicate ACK; an RTO). The sender owns
//! reliability (retransmit selection, RTO arming, duplicate-ACK
//! counting) and reads the window back from `Cong::cwnd`, so the two
//! evolve independently.
//!
//! Three policies ship:
//!
//! * `Reno` — the classic AIMD loop, extracted verbatim from the old
//!   monolithic sender. Its float arithmetic is kept operation-for-
//!   operation identical, so simulations that select Reno produce
//!   byte-identical traces to the pre-refactor code.
//! * `Cubic` — window growth is a cubic function of time since the
//!   last loss (concave up to the previous saturation point `W_max`,
//!   convex beyond it), which recovers bandwidth on long-RTT paths far
//!   faster than Reno's one-MSS-per-RTT.
//! * `Dctcp` — keeps an EWMA `alpha` of the fraction of ECN-marked
//!   bytes per window and cuts `cwnd` by `alpha/2` — a cut proportional
//!   to congestion *extent*, which holds switch queues at the marking
//!   threshold instead of overflowing them (the incast regime).

use dpdpu_des::{now, Time};

/// Which congestion-control algorithm a connection runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CongAlgKind {
    /// Classic Reno AIMD (the historical default).
    #[default]
    Reno,
    /// CUBIC window growth (time-based, RTT-fair on long paths).
    Cubic,
    /// DCTCP: ECN-proportional multiplicative decrease.
    Dctcp,
}

impl CongAlgKind {
    /// All algorithms, for sweeps.
    pub const ALL: [CongAlgKind; 3] = [CongAlgKind::Reno, CongAlgKind::Cubic, CongAlgKind::Dctcp];

    /// Stable lower-case name (CLI values, report labels).
    pub fn name(self) -> &'static str {
        match self {
            CongAlgKind::Reno => "reno",
            CongAlgKind::Cubic => "cubic",
            CongAlgKind::Dctcp => "dctcp",
        }
    }

    /// Parses a CLI value.
    pub(crate) fn parse(s: &str) -> Option<Self> {
        let s = s.to_ascii_lowercase();
        Self::ALL.into_iter().find(|kind| kind.name() == s)
    }
}

/// A congestion event, as the sender sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// A new-data cumulative ACK arrived (possibly echoing a CE mark).
    Ack,
    /// Third duplicate ACK: the sender is about to fast-retransmit.
    DupAck,
    /// Retransmission timeout fired.
    Timeout,
}

/// One congestion event's measurements, reported by the datapath.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Measurement {
    /// Cumulative ACK sequence carried by the triggering segment.
    pub(crate) ack: u64,
    /// Sender's next-to-send sequence at event time (window frontier —
    /// lets window-grained algorithms like DCTCP detect window edges).
    pub(crate) snd_nxt: u64,
    /// Bytes newly acknowledged by this event (0 for dup-ACK / RTO).
    pub(crate) acked_bytes: u64,
    /// Whether the triggering ACK echoed an ECN Congestion Experienced
    /// mark.
    pub(crate) ecn: bool,
}

/// CUBIC constants (RFC 8312): `C` scales the cubic term (with time in
/// seconds and windows in MSS units), `BETA` is the multiplicative
/// decrease factor.
const CUBIC_C: f64 = 0.4;
const CUBIC_BETA: f64 = 0.7;

/// DCTCP EWMA gain `g` (RFC 8257 recommends 1/16).
const DCTCP_G: f64 = 1.0 / 16.0;

/// What each algorithm keeps beyond the shared window.
#[derive(Debug)]
enum Policy {
    /// Classic Reno AIMD: slow start doubles per RTT below `ssthresh`,
    /// congestion avoidance adds one MSS per RTT above it, loss halves.
    Reno,
    /// CUBIC: after a loss at window `W_max`, the window follows
    /// `W(t) = C·(t − K)³ + W_max` — concave while recovering toward the
    /// old saturation point, convex while probing beyond it.
    Cubic {
        /// Window (in MSS) where the last congestion event occurred.
        w_max: f64,
        /// Time of the last congestion event; `None` until the first
        /// loss (Reno growth before any loss signal).
        epoch_start: Option<Time>,
        /// Plateau-crossing time `K = ∛(W_max·(1−β)/C)`, seconds.
        k: f64,
    },
    /// DCTCP: the receiver echoes per-segment CE marks; the sender keeps
    /// `alpha`, an EWMA of the marked-byte fraction per window, and on a
    /// marked window cuts `cwnd` by `alpha/2` — small cuts for small
    /// queue excursions, a full halving under persistent congestion.
    Dctcp {
        /// EWMA of the fraction of bytes marked per window.
        alpha: f64,
        /// Bytes acknowledged in the current observation window.
        window_bytes: u64,
        /// Of those, bytes whose ACKs echoed a CE mark.
        marked_bytes: u64,
        /// Sequence where the current observation window ends.
        window_end: u64,
    },
}

/// A connection's congestion window and the policy that moves it.
#[derive(Debug)]
pub(crate) struct Cong {
    /// Congestion window, bytes.
    pub(crate) cwnd: f64,
    /// Slow-start threshold, bytes.
    ssthresh: f64,
    /// Maximum segment size, bytes.
    mss: f64,
    /// Window ceiling, bytes.
    max_wnd: f64,
    /// Window frontier at the last ECN cut: at most one multiplicative
    /// decrease per window of data, as RFC 3168 requires.
    ecn_cut_until: u64,
    policy: Policy,
}

impl Cong {
    /// A window of `init_cwnd` bytes under `kind`, capped at `max_wnd`.
    pub(crate) fn new(kind: CongAlgKind, mss: u64, init_cwnd: f64, max_wnd: f64) -> Self {
        let policy = match kind {
            CongAlgKind::Reno => Policy::Reno,
            CongAlgKind::Cubic => Policy::Cubic {
                w_max: 0.0,
                epoch_start: None,
                k: 0.0,
            },
            // RFC 8257: start conservative — treat the first window as
            // fully congested until real measurements arrive.
            CongAlgKind::Dctcp => Policy::Dctcp {
                alpha: 1.0,
                window_bytes: 0,
                marked_bytes: 0,
                window_end: 0,
            },
        };
        Cong {
            cwnd: init_cwnd,
            ssthresh: max_wnd,
            mss: mss as f64,
            max_wnd,
            ecn_cut_until: 0,
            policy,
        }
    }

    /// Moves the window for one congestion event.
    pub(crate) fn on(&mut self, event: Event, m: &Measurement) {
        match event {
            Event::Ack if matches!(self.policy, Policy::Dctcp { .. }) => {
                // Marks are *measured*, not reacted to per-ACK: the cut
                // happens at the window boundary inside `observe`, scaled
                // by alpha. ECN also ends slow start the first time it
                // appears.
                if m.ecn && self.cwnd < self.ssthresh {
                    self.ssthresh = self.cwnd;
                }
                self.observe(m);
                self.grow();
            }
            Event::Ack if m.ecn => {
                // RFC 3168 response: treat the echo like a loss signal,
                // but cut at most once per window of data.
                if m.ack >= self.ecn_cut_until {
                    self.cut();
                    self.ecn_cut_until = m.snd_nxt;
                }
            }
            Event::Ack => self.grow(),
            // Loss; DCTCP falls back to the standard halving (RFC 8257
            // §3.4).
            Event::DupAck => self.cut(),
            // An RTO is a full stall: cut, then restart from one MSS.
            Event::Timeout => {
                self.cut();
                self.cwnd = self.mss;
            }
        }
    }

    /// Window growth per new-data ACK. Reno's additive increase — slow
    /// start below `ssthresh`, one MSS per RTT above it — is also DCTCP's,
    /// and CUBIC's until its first congestion event anchors the curve.
    fn grow(&mut self) {
        let mss = self.mss;
        self.cwnd += match self.policy {
            _ if self.cwnd < self.ssthresh => mss,
            Policy::Cubic {
                w_max,
                epoch_start: Some(t0),
                k,
            } => {
                let t = (now() - t0) as f64 / 1e9;
                let target = CUBIC_C * (t - k).powi(3) + w_max; // MSS units
                let segs = self.cwnd / mss;
                if target > segs {
                    // Close a fraction of the gap per ACK; over one RTT's
                    // worth of ACKs this tracks the cubic curve.
                    (target - segs) / segs * mss
                } else {
                    // At/above the curve: probe gently (~1.5% of an MSS
                    // per ACK) so the window never stalls flat.
                    0.015 * mss
                }
            }
            _ => mss * mss / self.cwnd,
        };
        self.cwnd = self.cwnd.min(self.max_wnd);
    }

    /// The multiplicative decrease, floored at two segments: Reno and
    /// DCTCP halve; CUBIC cuts by `BETA`, remembers the saturation point
    /// and restarts the cubic clock.
    fn cut(&mut self) {
        let mss = self.mss;
        if let Policy::Cubic {
            w_max,
            epoch_start,
            k,
        } = &mut self.policy
        {
            *w_max = self.cwnd / mss;
            *k = (*w_max * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
            *epoch_start = Some(now());
            self.ssthresh = (self.cwnd * CUBIC_BETA).max(2.0 * mss);
        } else {
            self.ssthresh = (self.cwnd / 2.0).max(2.0 * mss);
        }
        self.cwnd = self.ssthresh;
    }

    /// DCTCP's per-ACK bookkeeping: fold the ACK into the observation
    /// window and, once a window of data completes, update `alpha` and
    /// cut by `alpha/2` if any of it was marked.
    fn observe(&mut self, m: &Measurement) {
        let Policy::Dctcp {
            alpha,
            window_bytes,
            marked_bytes,
            window_end,
        } = &mut self.policy
        else {
            return;
        };
        *window_bytes += m.acked_bytes;
        if m.ecn {
            *marked_bytes += m.acked_bytes;
        }
        if m.ack >= *window_end {
            // One observation window (≈ one RTT of data) completed.
            let f = if *window_bytes == 0 {
                0.0
            } else {
                *marked_bytes as f64 / *window_bytes as f64
            };
            *alpha = (1.0 - DCTCP_G) * *alpha + DCTCP_G * f;
            if *marked_bytes > 0 {
                self.cwnd = (self.cwnd * (1.0 - *alpha / 2.0)).max(2.0 * self.mss);
                self.ssthresh = self.cwnd;
            }
            *window_bytes = 0;
            *marked_bytes = 0;
            *window_end = m.snd_nxt;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_des::Sim;

    const MSS: u64 = 8_192;

    /// A congestion event that carries no ACK progress (dup-ACK, RTO).
    const LOSS: Measurement = Measurement {
        ack: 0,
        snd_nxt: 0,
        acked_bytes: 0,
        ecn: false,
    };

    fn cong(kind: CongAlgKind) -> Cong {
        Cong::new(kind, MSS, (10 * MSS) as f64, (256 * MSS) as f64)
    }

    /// Reports one new-data ACK of one MSS; returns the window it leaves.
    fn ack(c: &mut Cong, ack_seq: u64, ecn: bool) -> f64 {
        let m = Measurement {
            ack: ack_seq,
            snd_nxt: ack_seq + 64 * MSS,
            acked_bytes: MSS,
            ecn,
        };
        c.on(Event::Ack, &m);
        c.cwnd
    }

    fn alpha(c: &Cong) -> f64 {
        match c.policy {
            Policy::Dctcp { alpha, .. } => alpha,
            _ => unreachable!("not a DCTCP window"),
        }
    }

    #[test]
    fn reno_slow_start_doubles_per_window() {
        let mut reno = cong(CongAlgKind::Reno);
        assert_eq!(reno.cwnd, (10 * MSS) as f64);
        // One ACK per in-flight MSS ≈ one RTT: cwnd grows by one MSS per
        // ACK in slow start, i.e. doubles per window.
        let mut seq = 0u64;
        let before = reno.cwnd;
        let acks = (before / MSS as f64) as u64;
        for _ in 0..acks {
            seq += MSS;
            ack(&mut reno, seq, false);
        }
        assert_eq!(reno.cwnd, before * 2.0, "slow start must double per RTT");
    }

    #[test]
    fn reno_congestion_avoidance_adds_one_mss_per_window() {
        let mut reno = cong(CongAlgKind::Reno);
        // Force congestion avoidance: a dup-ack cut sets ssthresh = cwnd.
        reno.on(Event::DupAck, &LOSS);
        let before = reno.cwnd;
        let acks = (before / MSS as f64).round() as u64;
        let mut seq = 0;
        for _ in 0..acks {
            seq += MSS;
            ack(&mut reno, seq, false);
        }
        let gained = reno.cwnd - before;
        assert!(
            (gained - MSS as f64).abs() < 0.1 * MSS as f64,
            "CA should add ~1 MSS per RTT, gained {gained}"
        );
    }

    #[test]
    fn reno_halves_on_loss_and_collapses_on_rto() {
        let mut reno = cong(CongAlgKind::Reno);
        reno.on(Event::DupAck, &LOSS);
        assert_eq!(reno.cwnd, (5 * MSS) as f64, "halved");
        assert_eq!(reno.ssthresh, (5 * MSS) as f64);
        reno.on(Event::Timeout, &LOSS);
        assert_eq!(reno.cwnd, MSS as f64, "RTO collapses to one MSS");
    }

    #[test]
    fn cubic_curve_is_concave_then_convex() {
        // Drive CUBIC with a paced ACK clock inside a Sim (its growth is
        // a function of *time* since the last loss). The window deltas
        // must shrink while approaching W_max (concave) and grow once
        // beyond it (convex).
        let mut sim = Sim::new();
        sim.spawn(async {
            let mut cubic = cong(CongAlgKind::Cubic);
            // Grow to a plateau, then signal one loss at W = 100 MSS.
            cubic.cwnd = (100 * MSS) as f64;
            cubic.ssthresh = cubic.cwnd;
            cubic.on(Event::DupAck, &LOSS);
            assert!(
                (cubic.cwnd - 0.7 * (100 * MSS) as f64).abs() < 1.0,
                "beta cut to 0.7·W_max"
            );
            // Sample the curve every 25 simulated ms (K is seconds-scale
            // here); ACK enough bytes per step that the per-ACK ramp
            // tracks the curve.
            let mut seq = 0u64;
            let mut samples = Vec::new();
            for _ in 0..400 {
                dpdpu_des::sleep(25_000_000).await;
                let mut last = 0.0;
                for _ in 0..32 {
                    seq += MSS;
                    last = ack(&mut cubic, seq, false);
                }
                samples.push(last / MSS as f64);
            }
            let w_max = 100.0;
            // Concave phase: deltas shrink while below W_max.
            let below: Vec<f64> = samples.iter().copied().filter(|w| *w < w_max).collect();
            assert!(below.len() > 10, "must spend time below W_max");
            let early = below[1] - below[0];
            let late = below[below.len() - 1] - below[below.len() - 2];
            assert!(
                early > late && late >= 0.0,
                "concave approach: early delta {early:.3} must beat late {late:.3}"
            );
            // Convex phase: past W_max the deltas grow again.
            let above: Vec<f64> = samples
                .iter()
                .copied()
                .filter(|w| *w > w_max + 1.0)
                .collect();
            assert!(above.len() > 10, "must probe past W_max");
            let first = above[1] - above[0];
            let last = above[above.len() - 1] - above[above.len() - 2];
            assert!(
                last > first && first >= 0.0,
                "convex probe: late delta {last:.3} must beat early {first:.3}"
            );
        });
        sim.run();
    }

    #[test]
    fn cubic_recovers_faster_than_reno_after_a_cut() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let mut cubic = cong(CongAlgKind::Cubic);
            cubic.cwnd = (200 * MSS) as f64;
            cubic.ssthresh = cubic.cwnd;
            cubic.on(Event::DupAck, &LOSS);
            let mut reno = cong(CongAlgKind::Reno);
            reno.cwnd = (200 * MSS) as f64;
            reno.ssthresh = reno.cwnd;
            reno.on(Event::DupAck, &LOSS);
            // Same long-RTT ACK clock for both over ~3 s: few ACKs per
            // unit time, which is exactly where time-based growth wins.
            let mut seq = 0u64;
            let (mut rc, mut rr) = (0.0, 0.0);
            for _ in 0..300 {
                dpdpu_des::sleep(10_000_000).await;
                for _ in 0..8 {
                    seq += MSS;
                    rc = ack(&mut cubic, seq, false);
                    rr = ack(&mut reno, seq, false);
                }
            }
            assert!(
                rc > rr,
                "cubic ({:.1} MSS) must outgrow reno ({:.1} MSS) post-loss",
                rc / MSS as f64,
                rr / MSS as f64
            );
        });
        sim.run();
    }

    #[test]
    fn dctcp_cut_is_proportional_to_mark_fraction() {
        // Feed two DCTCP instances one full window each: one with 100%
        // of bytes marked, one with ~12.5%. The lightly-marked flow must
        // keep a (proportionally) larger window.
        let run = |mark_every: u64| {
            let mut d = cong(CongAlgKind::Dctcp);
            d.cwnd = (64 * MSS) as f64;
            d.ssthresh = d.cwnd; // out of slow start
            let mut seq = 0u64;
            // Several windows so alpha converges toward the fraction.
            // `ack` keeps a constant 64-segment frontier ahead of the
            // cumulative ACK, as a saturated sender keeps.
            for _ in 0..40 {
                for i in 0..64u64 {
                    seq += MSS;
                    ack(&mut d, seq, i % mark_every == 0);
                }
            }
            (alpha(&d), d.cwnd)
        };
        let (alpha_all, cwnd_all) = run(1); // every byte marked
        let (alpha_some, cwnd_some) = run(8); // 1/8 of bytes marked
        assert!(
            alpha_all > 0.9,
            "fully-marked flow must converge to alpha≈1, got {alpha_all:.3}"
        );
        assert!(
            alpha_some < 0.35 && alpha_some > 0.05,
            "1/8-marked flow must track its fraction, got {alpha_some:.3}"
        );
        assert!(
            cwnd_some > cwnd_all * 1.5,
            "lighter marking must leave a larger window: {cwnd_some:.0} vs {cwnd_all:.0}"
        );
    }

    #[test]
    fn dctcp_unmarked_flow_grows_like_reno() {
        let mut d = cong(CongAlgKind::Dctcp);
        let before = d.cwnd;
        let mut seq = 0u64;
        for _ in 0..10 {
            seq += MSS;
            ack(&mut d, seq, false);
        }
        assert_eq!(
            d.cwnd,
            before + (10 * MSS) as f64,
            "no marks → pure slow-start growth"
        );
        assert!(alpha(&d) < 1.0, "alpha must decay with unmarked windows");
    }

    #[test]
    fn kind_roundtrips_names() {
        for kind in CongAlgKind::ALL {
            assert_eq!(CongAlgKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(CongAlgKind::parse("bbr"), None);
        assert_eq!(CongAlgKind::default(), CongAlgKind::Reno);
    }
}
