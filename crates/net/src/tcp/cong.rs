//! Pluggable congestion control: the algorithm is an object behind the
//! `CongAlg` trait, not arithmetic inlined in the sender's state
//! machine.
//!
//! The interface follows the CCP/portus shape: the datapath *installs*
//! the algorithm with the connection's constants, feeds it *measurements*
//! (one per congestion event — new-data ACK, ECN-echo ACK, third
//! duplicate ACK, RTO), and the algorithm *reports* back the `cwnd` /
//! `ssthresh` pair the sender must apply. The sender owns reliability
//! (retransmit selection, RTO arming, duplicate-ACK counting); the
//! algorithm owns only the window decision, so the two evolve
//! independently.
//!
//! Three algorithms ship:
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

    /// Instantiates the algorithm.
    pub(crate) fn build(self) -> Box<dyn CongAlg> {
        match self {
            CongAlgKind::Reno => Box::new(Reno::default()),
            CongAlgKind::Cubic => Box::new(Cubic::default()),
            CongAlgKind::Dctcp => Box::new(Dctcp::default()),
        }
    }
}

/// Connection constants handed to the algorithm at install time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CongConfig {
    /// Maximum segment size, bytes.
    pub(crate) mss: u64,
    /// Initial congestion window, bytes.
    pub(crate) init_cwnd: f64,
    /// Window ceiling, bytes.
    pub(crate) max_wnd: f64,
}

impl Default for CongConfig {
    fn default() -> Self {
        CongConfig {
            mss: 1,
            init_cwnd: 1.0,
            max_wnd: 1.0,
        }
    }
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

/// The algorithm's window decision, applied verbatim by the sender.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Report {
    /// Congestion window, bytes.
    pub(crate) cwnd: f64,
    /// Slow-start threshold, bytes.
    pub(crate) ssthresh: f64,
}

/// A congestion-control algorithm: install once, then one callback per
/// congestion event; every callback reports the window decision.
pub(crate) trait CongAlg {
    /// Binds the algorithm to a connection; returns the initial window.
    fn install(&mut self, cfg: &CongConfig) -> Report;
    /// A new-data cumulative ACK arrived (no ECN echo).
    fn on_ack(&mut self, m: &Measurement) -> Report;
    /// Third duplicate ACK: the sender is about to fast-retransmit.
    fn on_dup_ack(&mut self, m: &Measurement) -> Report;
    /// Retransmission timeout fired.
    fn on_timeout(&mut self, m: &Measurement) -> Report;
    /// A new-data ACK arrived carrying an ECN echo.
    fn on_ecn(&mut self, m: &Measurement) -> Report;
}

/// The window state every algorithm keeps, and the steps they share.
/// Every step reports the window it leaves behind.
#[derive(Debug, Default)]
struct Window {
    cfg: CongConfig,
    cwnd: f64,
    ssthresh: f64,
}

impl Window {
    fn install(&mut self, cfg: &CongConfig) -> Report {
        self.cfg = *cfg;
        self.cwnd = cfg.init_cwnd;
        self.ssthresh = cfg.max_wnd;
        self.report()
    }

    fn report(&self) -> Report {
        Report {
            cwnd: self.cwnd,
            ssthresh: self.ssthresh,
        }
    }

    /// Reno's additive-increase step: slow start below `ssthresh`, one
    /// MSS per RTT above it. DCTCP grows the same way, and so does CUBIC
    /// until its first congestion event.
    fn grow(&mut self) -> Report {
        let mss = self.cfg.mss;
        if self.cwnd < self.ssthresh {
            self.cwnd += mss as f64;
        } else {
            self.cwnd += (mss as f64) * (mss as f64) / self.cwnd;
        }
        self.cwnd = self.cwnd.min(self.cfg.max_wnd);
        self.report()
    }

    /// The standard loss response: halve, floored at two segments.
    fn halve(&mut self) -> Report {
        self.ssthresh = (self.cwnd / 2.0).max(2.0 * self.cfg.mss as f64);
        self.cwnd = self.ssthresh;
        self.report()
    }

    /// An RTO is a full stall: restart from one MSS.
    fn collapse(&mut self) -> Report {
        self.cwnd = self.cfg.mss as f64;
        self.report()
    }
}

/// Classic Reno AIMD, lifted unchanged from the pre-refactor sender:
/// slow start doubles per RTT below `ssthresh`, congestion avoidance
/// adds one MSS per RTT above it, loss halves.
#[derive(Debug, Default)]
pub(crate) struct Reno {
    w: Window,
    /// Window frontier at the last ECN cut: at most one multiplicative
    /// decrease per window of data, as RFC 3168 requires.
    ecn_cut_until: u64,
}

impl CongAlg for Reno {
    fn install(&mut self, cfg: &CongConfig) -> Report {
        self.w.install(cfg)
    }

    fn on_ack(&mut self, _m: &Measurement) -> Report {
        self.w.grow()
    }

    fn on_dup_ack(&mut self, _m: &Measurement) -> Report {
        self.w.halve()
    }

    fn on_timeout(&mut self, _m: &Measurement) -> Report {
        self.w.halve();
        self.w.collapse()
    }

    fn on_ecn(&mut self, m: &Measurement) -> Report {
        // RFC 3168 response: treat the echo like a loss signal, but cut
        // at most once per window of data.
        if m.ack >= self.ecn_cut_until {
            self.w.halve();
            self.ecn_cut_until = m.snd_nxt;
        }
        self.w.report()
    }
}

/// CUBIC constants (RFC 8312): `C` scales the cubic term (with time in
/// seconds and windows in MSS units), `BETA` is the multiplicative
/// decrease factor.
const CUBIC_C: f64 = 0.4;
const CUBIC_BETA: f64 = 0.7;

/// CUBIC: after a loss at window `W_max`, the window follows
/// `W(t) = C·(t − K)³ + W_max` — concave while recovering toward the old
/// saturation point, convex while probing beyond it.
#[derive(Debug, Default)]
pub(crate) struct Cubic {
    w: Window,
    /// Window (in MSS) where the last congestion event occurred.
    w_max: f64,
    /// Time of the last congestion event; `None` until the first loss
    /// (pure slow start / additive probing before any loss signal).
    epoch_start: Option<Time>,
    /// Plateau-crossing time `K = ∛(W_max·(1−β)/C)`, seconds.
    k: f64,
    ecn_cut_until: u64,
}

impl Cubic {
    /// Registers a congestion event: remember the saturation point and
    /// restart the cubic clock.
    fn congestion_event(&mut self) {
        let mss = self.w.cfg.mss as f64;
        self.w_max = self.w.cwnd / mss;
        self.k = (self.w_max * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
        self.epoch_start = Some(now());
        self.w.ssthresh = (self.w.cwnd * CUBIC_BETA).max(2.0 * mss);
        self.w.cwnd = self.w.ssthresh;
    }
}

impl CongAlg for Cubic {
    fn install(&mut self, cfg: &CongConfig) -> Report {
        self.w.install(cfg)
    }

    fn on_ack(&mut self, _m: &Measurement) -> Report {
        // Slow start, and congestion avoidance until the first congestion
        // event anchors the cubic curve, are Reno's.
        let Some(t0) = self.epoch_start else {
            return self.w.grow();
        };
        let w = &mut self.w;
        if w.cwnd < w.ssthresh {
            return w.grow();
        }
        let mss = w.cfg.mss as f64;
        let t = (now() - t0) as f64 / 1e9;
        let target = CUBIC_C * (t - self.k).powi(3) + self.w_max; // MSS units
        let segs = w.cwnd / mss;
        if target > segs {
            // Close a fraction of the gap per ACK; over one RTT's worth
            // of ACKs this tracks the cubic curve.
            w.cwnd += (target - segs) / segs * mss;
        } else {
            // At/above the curve: probe gently (~1.5% of an MSS per ACK)
            // so the window never stalls flat.
            w.cwnd += 0.015 * mss;
        }
        w.cwnd = w.cwnd.min(w.cfg.max_wnd);
        w.report()
    }

    fn on_dup_ack(&mut self, _m: &Measurement) -> Report {
        self.congestion_event();
        self.w.report()
    }

    fn on_timeout(&mut self, _m: &Measurement) -> Report {
        self.congestion_event();
        self.w.collapse()
    }

    fn on_ecn(&mut self, m: &Measurement) -> Report {
        if m.ack >= self.ecn_cut_until {
            self.congestion_event();
            self.ecn_cut_until = m.snd_nxt;
        }
        self.w.report()
    }
}

/// DCTCP EWMA gain `g` (RFC 8257 recommends 1/16).
const DCTCP_G: f64 = 1.0 / 16.0;

/// DCTCP: the receiver echoes per-segment CE marks; the sender keeps
/// `alpha`, an EWMA of the marked-byte fraction per window, and on a
/// marked window cuts `cwnd` by `alpha/2` — small cuts for small queue
/// excursions, a full halving under persistent congestion.
#[derive(Debug, Default)]
pub(crate) struct Dctcp {
    w: Window,
    /// EWMA of the fraction of bytes marked per window.
    alpha: f64,
    /// Bytes acknowledged in the current observation window.
    window_bytes: u64,
    /// Of those, bytes whose ACKs echoed a CE mark.
    marked_bytes: u64,
    /// Sequence where the current observation window ends.
    window_end: u64,
}

impl Dctcp {
    fn observe(&mut self, m: &Measurement) {
        self.window_bytes += m.acked_bytes;
        if m.ecn {
            self.marked_bytes += m.acked_bytes;
        }
        if m.ack >= self.window_end {
            // One observation window (≈ one RTT of data) completed.
            let f = if self.window_bytes == 0 {
                0.0
            } else {
                self.marked_bytes as f64 / self.window_bytes as f64
            };
            self.alpha = (1.0 - DCTCP_G) * self.alpha + DCTCP_G * f;
            if self.marked_bytes > 0 {
                let mss = self.w.cfg.mss as f64;
                self.w.cwnd = (self.w.cwnd * (1.0 - self.alpha / 2.0)).max(2.0 * mss);
                self.w.ssthresh = self.w.cwnd;
            }
            self.window_bytes = 0;
            self.marked_bytes = 0;
            self.window_end = m.snd_nxt;
        }
    }
}

impl CongAlg for Dctcp {
    fn install(&mut self, cfg: &CongConfig) -> Report {
        // RFC 8257: start conservative — treat the first window as
        // fully congested until real measurements arrive.
        self.alpha = 1.0;
        self.w.install(cfg)
    }

    fn on_ack(&mut self, m: &Measurement) -> Report {
        self.observe(m);
        self.w.grow()
    }

    fn on_dup_ack(&mut self, _m: &Measurement) -> Report {
        // Loss falls back to the standard halving (RFC 8257 §3.4).
        self.w.halve()
    }

    fn on_timeout(&mut self, _m: &Measurement) -> Report {
        self.w.halve();
        self.w.collapse()
    }

    fn on_ecn(&mut self, m: &Measurement) -> Report {
        // Marks are *measured*, not reacted to per-ACK: the cut happens
        // at the window boundary inside `observe`, scaled by alpha. ECN
        // also ends slow start the first time it appears.
        if self.w.cwnd < self.w.ssthresh {
            self.w.ssthresh = self.w.cwnd;
        }
        self.observe(m);
        self.w.grow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_des::Sim;

    const MSS: u64 = 8_192;

    fn cfg() -> CongConfig {
        CongConfig {
            mss: MSS,
            init_cwnd: (10 * MSS) as f64,
            max_wnd: (256 * MSS) as f64,
        }
    }

    fn ack(alg: &mut dyn CongAlg, ack_seq: u64, ecn: bool) -> Report {
        let m = Measurement {
            ack: ack_seq,
            snd_nxt: ack_seq + 64 * MSS,
            acked_bytes: MSS,
            ecn,
        };
        if ecn {
            alg.on_ecn(&m)
        } else {
            alg.on_ack(&m)
        }
    }

    #[test]
    fn reno_slow_start_doubles_per_window() {
        let mut reno = Reno::default();
        let mut r = reno.install(&cfg());
        assert_eq!(r.cwnd, (10 * MSS) as f64);
        // One ACK per in-flight MSS ≈ one RTT: cwnd grows by one MSS per
        // ACK in slow start, i.e. doubles per window.
        let mut seq = 0u64;
        let before = r.cwnd;
        let acks = (before / MSS as f64) as u64;
        for _ in 0..acks {
            seq += MSS;
            r = ack(&mut reno, seq, false);
        }
        assert_eq!(r.cwnd, before * 2.0, "slow start must double per RTT");
    }

    #[test]
    fn reno_congestion_avoidance_adds_one_mss_per_window() {
        let mut reno = Reno::default();
        reno.install(&cfg());
        // Force congestion avoidance: a dup-ack cut sets ssthresh = cwnd.
        let mut r = reno.on_dup_ack(&Measurement {
            ack: 0,
            snd_nxt: 0,
            acked_bytes: 0,
            ecn: false,
        });
        let before = r.cwnd;
        let acks = (before / MSS as f64).round() as u64;
        let mut seq = 0;
        for _ in 0..acks {
            seq += MSS;
            r = ack(&mut reno, seq, false);
        }
        let gained = r.cwnd - before;
        assert!(
            (gained - MSS as f64).abs() < 0.1 * MSS as f64,
            "CA should add ~1 MSS per RTT, gained {gained}"
        );
    }

    #[test]
    fn reno_halves_on_loss_and_collapses_on_rto() {
        let mut reno = Reno::default();
        reno.install(&cfg());
        let m = Measurement {
            ack: 0,
            snd_nxt: 0,
            acked_bytes: 0,
            ecn: false,
        };
        let r = reno.on_dup_ack(&m);
        assert_eq!(r.cwnd, (5 * MSS) as f64, "halved");
        assert_eq!(r.ssthresh, (5 * MSS) as f64);
        let r = reno.on_timeout(&m);
        assert_eq!(r.cwnd, MSS as f64, "RTO collapses to one MSS");
    }

    #[test]
    fn cubic_curve_is_concave_then_convex() {
        // Drive CUBIC with a paced ACK clock inside a Sim (its growth is
        // a function of *time* since the last loss). The window deltas
        // must shrink while approaching W_max (concave) and grow once
        // beyond it (convex).
        let mut sim = Sim::new();
        sim.spawn(async {
            let mut cubic = Cubic::default();
            cubic.install(&cfg());
            // Grow to a plateau, then signal one loss at W = 100 MSS.
            cubic.w.cwnd = (100 * MSS) as f64;
            cubic.w.ssthresh = cubic.w.cwnd;
            let m = Measurement {
                ack: 0,
                snd_nxt: 0,
                acked_bytes: 0,
                ecn: false,
            };
            let r = cubic.on_dup_ack(&m);
            assert!(
                (r.cwnd - 0.7 * (100 * MSS) as f64).abs() < 1.0,
                "beta cut to 0.7·W_max"
            );
            // Sample the curve every 25 simulated ms (K is seconds-scale
            // here); ACK enough bytes per step that the per-ACK ramp
            // tracks the curve.
            let mut seq = 0u64;
            let mut samples = Vec::new();
            for _ in 0..400 {
                dpdpu_des::sleep(25_000_000).await;
                let mut last = Report {
                    cwnd: 0.0,
                    ssthresh: 0.0,
                };
                for _ in 0..32 {
                    seq += MSS;
                    last = ack(&mut cubic, seq, false);
                }
                samples.push(last.cwnd / MSS as f64);
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
            let loss = Measurement {
                ack: 0,
                snd_nxt: 0,
                acked_bytes: 0,
                ecn: false,
            };
            let mut cubic = Cubic::default();
            cubic.install(&cfg());
            cubic.w.cwnd = (200 * MSS) as f64;
            cubic.w.ssthresh = cubic.w.cwnd;
            cubic.on_dup_ack(&loss);
            let mut reno = Reno::default();
            reno.install(&cfg());
            reno.w.cwnd = (200 * MSS) as f64;
            reno.w.ssthresh = reno.w.cwnd;
            reno.on_dup_ack(&loss);
            // Same long-RTT ACK clock for both over ~3 s: few ACKs per
            // unit time, which is exactly where time-based growth wins.
            let mut seq = 0u64;
            let (mut rc, mut rr) = (0.0, 0.0);
            for _ in 0..300 {
                dpdpu_des::sleep(10_000_000).await;
                for _ in 0..8 {
                    seq += MSS;
                    rc = ack(&mut cubic, seq, false).cwnd;
                    rr = ack(&mut reno, seq, false).cwnd;
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
            let mut d = Dctcp::default();
            d.install(&cfg());
            d.w.cwnd = (64 * MSS) as f64;
            d.w.ssthresh = d.w.cwnd; // out of slow start
            let mut seq = 0u64;
            // Several windows so alpha converges toward the fraction.
            for _ in 0..40 {
                for i in 0..64u64 {
                    seq += MSS;
                    let m = Measurement {
                        ack: seq,
                        // A constant 64-segment frontier ahead of the
                        // cumulative ACK, as a saturated sender keeps.
                        snd_nxt: seq + 64 * MSS,
                        acked_bytes: MSS,
                        ecn: i % mark_every == 0,
                    };
                    if m.ecn {
                        d.on_ecn(&m);
                    } else {
                        d.on_ack(&m);
                    }
                }
            }
            (d.alpha, d.w.cwnd)
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
        let mut d = Dctcp::default();
        let mut r = d.install(&cfg());
        let before = r.cwnd;
        let mut seq = 0u64;
        for _ in 0..10 {
            seq += MSS;
            r = ack(&mut d, seq, false);
        }
        assert_eq!(
            r.cwnd,
            before + (10 * MSS) as f64,
            "no marks → pure slow-start growth"
        );
        assert!(d.alpha < 1.0, "alpha must decay with unmarked windows");
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
