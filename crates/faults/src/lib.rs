//! # dpdpu-faults — deterministic, seed-driven fault injection
//!
//! The paper's DDS exists because DPUs fail and overflow: DPU memory is
//! "an order of magnitude too small" (§7), accelerators go offline, links
//! drop frames, SSDs return errors — and every path must degrade to the
//! host without breaking transport semantics. This crate injects those
//! failures into the simulated device models so the robustness machinery
//! (retry/backoff in the file service, deadlines in the DDS client,
//! graceful degradation through the traffic director) has something real
//! to survive.
//!
//! A [`FaultPlan`] combines two injection styles:
//!
//! * **seeded-random rates** — each fault category draws from its own
//!   [`StdRng`] stream derived from the plan seed, so runs are
//!   bit-for-bit reproducible and categories do not perturb each other;
//! * **scripted windows** — "accelerator offline from 1 ms to 3 ms",
//!   "shard `node1` frozen from 2 ms to 5 ms" — for recovery tests that
//!   need an exactly reproducible failure.
//!
//! A [`SessionGuard`] is the one way to install a plan: it makes the plan
//! visible to the device models as the fault-plan part of the thread's
//! one `dpdpu_des::probe` session slot, beside the tracer and the
//! checker, and removes it when dropped. With no session installed
//! every consult is a cheap no-op and the models behave exactly as
//! before. The session also holds the third style, **scripted
//! counts** — "let the next `k` SSD writes pass, then fail `n`" — armed
//! by op count, not by clock, with [`FaultSession::arm`] and consulted
//! before the seeded rates, and a scripted **power loss**
//! ([`FaultSession::arm_power_loss`]) that tears one SSD write and stops
//! the device. All injected effects are charged in *virtual* time, so an
//! injected run is as deterministic as a clean one.

use std::cell::{Cell, RefCell};

use dpdpu_des::probe::{self, Guard, Part};
use dpdpu_des::{try_now, Counter, Time};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Fault categories, as counted by [`FaultSession::injected`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultSite {
    /// A network frame silently dropped.
    LinkDrop,
    /// A network frame held on the wire (latency spike).
    LinkDelay,
    /// An SSD read completed with an error.
    SsdRead,
    /// An SSD write completed with an error.
    SsdWrite,
    /// An SSD op served far slower than the model's base latency.
    SsdSlow,
    /// An accelerator job rejected: engine offline.
    AccelOffline,
    /// DPU cores reported overloaded to the scheduler/director.
    DpuOverload,
    /// A shard platform frozen: its server drops requests and responses
    /// for the duration of a scripted crash window.
    ShardCrash,
}

impl FaultSite {
    const ALL: [FaultSite; 8] = [
        FaultSite::LinkDrop,
        FaultSite::LinkDelay,
        FaultSite::SsdRead,
        FaultSite::SsdWrite,
        FaultSite::SsdSlow,
        FaultSite::AccelOffline,
        FaultSite::DpuOverload,
        FaultSite::ShardCrash,
    ];

    /// Stable lowercase label (used in reports, telemetry tags, and
    /// `dpdpu-check` fault-hygiene accounting).
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::LinkDrop => "link_drop",
            FaultSite::LinkDelay => "link_delay",
            FaultSite::SsdRead => "ssd_read",
            FaultSite::SsdWrite => "ssd_write",
            FaultSite::SsdSlow => "ssd_slow",
            FaultSite::AccelOffline => "accel_offline",
            FaultSite::DpuOverload => "dpu_overload",
            FaultSite::ShardCrash => "shard_crash",
        }
    }

    /// True when an injection here obliges a layer to retry, degrade or
    /// surface it (`dpdpu-check`'s fault hygiene). The other categories
    /// (delays, slow I/O, overload and crash windows) only stretch
    /// completion time and need no recovery action.
    pub(crate) fn must_be_handled(self) -> bool {
        matches!(
            self,
            FaultSite::LinkDrop
                | FaultSite::SsdRead
                | FaultSite::SsdWrite
                | FaultSite::AccelOffline
        )
    }
}

/// Direction of an SSD operation (for [`ssd_verdict`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// Read path.
    Read,
    /// Write path.
    Write,
}

/// What an SSD op should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoVerdict {
    /// Proceed normally.
    Ok,
    /// Proceed, but add this much service time first (slow I/O).
    Slow(Time),
    /// Complete with a device error.
    Fail,
}

/// What a link frame should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkVerdict {
    /// Deliver normally.
    Deliver,
    /// Deliver after holding the wire busy this much longer (latency
    /// spike; FIFO order is preserved because the *wire* is slow, not
    /// the frame).
    Delay(Time),
    /// Drop silently (the transport's loss recovery sees it).
    Drop,
}

/// A `[from, until)` virtual-time interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Window {
    from: Time,
    until: Time,
}

impl Window {
    fn contains(&self, t: Time) -> bool {
        self.from <= t && t < self.until
    }
}

/// A seeded-random + windowed fault schedule: pure data. Build one
/// fluently, then install it with a [`SessionGuard`] for the duration of
/// a run.
///
/// ```
/// use dpdpu_faults::{FaultPlan, SessionGuard};
///
/// let plan = FaultPlan::new(42)
///     .link_drops(0.01)
///     .ssd_read_errors(0.02)
///     .ssd_slow_io(0.05, 150_000)
///     .accel_offline(1_000_000, 3_000_000);
/// let guard = SessionGuard::new(plan);
/// // ... run the simulation; `guard.session.arm(..)` scripts exact faults ...
/// println!("{}", guard.session.report());
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    link_drop_rate: f64,
    link_delay_rate: f64,
    link_delay_ns: Time,
    ssd_read_error_rate: f64,
    ssd_write_error_rate: f64,
    ssd_slow_rate: f64,
    ssd_slow_ns: Time,
    accel_offline: Vec<Window>,
    dpu_overload: Vec<Window>,
    shard_crash: Vec<(String, Window)>,
}

fn check_rate(rate: f64, what: &str) {
    assert!((0.0..=1.0).contains(&rate), "{what} must be in [0,1]");
}

impl FaultPlan {
    /// An empty plan with the given seed (injects nothing until faults
    /// are added).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Drop each network frame independently with probability `rate`.
    pub fn link_drops(mut self, rate: f64) -> Self {
        check_rate(rate, "link drop rate");
        self.link_drop_rate = rate;
        self
    }

    /// With probability `rate`, hold the wire busy an extra `extra_ns`
    /// for a frame (a latency spike that preserves FIFO order).
    pub fn link_delays(mut self, rate: f64, extra_ns: Time) -> Self {
        check_rate(rate, "link delay rate");
        self.link_delay_rate = rate;
        self.link_delay_ns = extra_ns;
        self
    }

    /// Fail each SSD read independently with probability `rate`.
    pub fn ssd_read_errors(mut self, rate: f64) -> Self {
        check_rate(rate, "ssd read error rate");
        self.ssd_read_error_rate = rate;
        self
    }

    /// Fail each SSD write independently with probability `rate`.
    pub fn ssd_write_errors(mut self, rate: f64) -> Self {
        check_rate(rate, "ssd write error rate");
        self.ssd_write_error_rate = rate;
        self
    }

    /// With probability `rate`, serve an SSD op `extra_ns` slower.
    pub fn ssd_slow_io(mut self, rate: f64, extra_ns: Time) -> Self {
        check_rate(rate, "ssd slow-io rate");
        self.ssd_slow_rate = rate;
        self.ssd_slow_ns = extra_ns;
        self
    }

    /// Take every accelerator offline during `[from, until)` virtual ns.
    pub fn accel_offline(mut self, from: Time, until: Time) -> Self {
        assert!(from < until, "empty accel-offline window");
        self.accel_offline.push(Window { from, until });
        self
    }

    /// Report DPU cores overloaded during `[from, until)` virtual ns
    /// (the scheduler migrates, the director degrades).
    pub fn dpu_overload(mut self, from: Time, until: Time) -> Self {
        assert!(from < until, "empty dpu-overload window");
        self.dpu_overload.push(Window { from, until });
        self
    }

    /// Freeze the shard platform tagged `tag` during `[from, until)`
    /// virtual ns: its server drops ingress requests and egress
    /// responses, so peers see timeouts while durable state survives.
    pub fn shard_crash(mut self, tag: &str, from: Time, until: Time) -> Self {
        assert!(from < until, "empty shard-crash window");
        self.shard_crash
            .push((tag.to_string(), Window { from, until }));
        self
    }
}

/// Per-category injection counts, rendered deterministically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    counts: Vec<(FaultSite, u64)>,
}

impl FaultReport {
    /// Injections for one category.
    pub fn count(&self, site: FaultSite) -> u64 {
        self.counts
            .iter()
            .find(|(s, _)| *s == site)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    /// Total injections across categories.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|(_, n)| n).sum()
    }
}

impl std::fmt::Display for FaultReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "-- faults injected --")?;
        for (site, n) in &self.counts {
            writeln!(f, "{:<14} {n}", site.label())?;
        }
        Ok(())
    }
}

/// An installed fault plan plus its RNG streams, its scripted counts and
/// its injection counters.
pub struct FaultSession {
    plan: FaultPlan,
    // One independent stream per category: injecting (say) link faults
    // must not change which SSD ops fail under the same seed.
    link_rng: RefCell<StdRng>,
    ssd_rng: RefCell<StdRng>,
    // Scripted `(pass, fail)` counts per site, consulted before the
    // rates: a passed op draws as if nothing were armed, a scripted hit
    // draws nothing from a stream.
    scripted: [Cell<(u64, u64)>; FaultSite::ALL.len()],
    // Scripted power loss: the SSD writes that still complete and the
    // blocks the next one persists, then the block count of the write
    // it tore.
    power_loss: Cell<Option<(u64, u64)>>,
    torn_write: Cell<Option<u64>>,
    injected: [Counter; FaultSite::ALL.len()],
    // One flag per shard-crash window so each crash is counted once
    // when it first bites, not on every consult inside the window.
    shard_crash_fired: Vec<Cell<bool>>,
}

impl FaultSession {
    /// True when a fault session is installed.
    pub fn is_active() -> bool {
        probe::with(Part::Faults, |_: &FaultSession| ()).is_some()
    }

    /// Injections so far for one category.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site as usize].get()
    }

    /// Snapshot of all injection counts.
    pub fn report(&self) -> FaultReport {
        FaultReport {
            counts: FaultSite::ALL
                .iter()
                .map(|&s| (s, self.injected(s)))
                .collect(),
        }
    }

    /// Scripted: of the ops at `site` from now on, the first `k` pass as
    /// if nothing were armed (they still draw from the seeded streams)
    /// and the next `n` fail. Counting ops, not time, places a fault
    /// exactly where a run's op order puts it. Re-arming replaces what
    /// is still pending at `site`, as [`FaultSession::arm_power_loss`]
    /// does.
    ///
    /// # Panics
    ///
    /// If `site` has no scripted count: only [`FaultSite::SsdRead`],
    /// [`FaultSite::SsdWrite`] and [`FaultSite::LinkDrop`] have one.
    pub fn arm(&self, site: FaultSite, k: u64, n: u64) {
        match site {
            FaultSite::SsdRead | FaultSite::SsdWrite | FaultSite::LinkDrop => {
                self.scripted[site as usize].set((k, n))
            }
            _ => panic!("{} has no scripted count", site.label()),
        }
    }

    /// Scripted: lose power at the `k`-th SSD write from now, counting
    /// from 0 (`k = 0` is the next write). That write persists only its
    /// first `torn_blocks` blocks; it and every later SSD op never
    /// complete, so the run goes quiet. Re-arming replaces the script.
    /// The block device that holds the contents consults it
    /// ([`ssd_power_loss`]).
    pub fn arm_power_loss(&self, k: u64, torn_blocks: u64) {
        self.power_loss.set(Some((k, torn_blocks)));
    }

    fn record(&self, site: FaultSite) {
        self.injected[site as usize].inc();
        dpdpu_check::fault_injected(site.label(), site.must_be_handled());
        dpdpu_telemetry::count("faults_injected", &[("site", site.label())]);
    }

    /// Takes one op at `site` from its scripted count: true when it is
    /// a scripted hit.
    fn take_one(&self, site: FaultSite) -> bool {
        let script = &self.scripted[site as usize];
        let (k, n) = script.get();
        if k > 0 {
            script.set((k - 1, n));
            return false;
        }
        script.set((0, n.saturating_sub(1)));
        n > 0
    }

    fn link_verdict(&self) -> LinkVerdict {
        let plan = &self.plan;
        if self.take_one(FaultSite::LinkDrop)
            || (plan.link_drop_rate > 0.0
                && self.link_rng.borrow_mut().random_bool(plan.link_drop_rate))
        {
            self.record(FaultSite::LinkDrop);
            return LinkVerdict::Drop;
        }
        if plan.link_delay_rate > 0.0
            && self.link_rng.borrow_mut().random_bool(plan.link_delay_rate)
        {
            self.record(FaultSite::LinkDelay);
            return LinkVerdict::Delay(plan.link_delay_ns);
        }
        LinkVerdict::Deliver
    }

    fn ssd_verdict(&self, op: IoOp) -> IoVerdict {
        let plan = &self.plan;
        let (site, rate) = match op {
            IoOp::Read => (FaultSite::SsdRead, plan.ssd_read_error_rate),
            IoOp::Write => (FaultSite::SsdWrite, plan.ssd_write_error_rate),
        };
        if self.take_one(site) || (rate > 0.0 && self.ssd_rng.borrow_mut().random_bool(rate)) {
            self.record(site);
            return IoVerdict::Fail;
        }
        if plan.ssd_slow_rate > 0.0 && self.ssd_rng.borrow_mut().random_bool(plan.ssd_slow_rate) {
            self.record(FaultSite::SsdSlow);
            return IoVerdict::Slow(plan.ssd_slow_ns);
        }
        IoVerdict::Ok
    }

    /// The block count of the SSD write the power loss tore, once it has
    /// (see [`FaultSession::arm_power_loss`]).
    pub fn torn_write_blocks(&self) -> Option<u64> {
        self.torn_write.get()
    }

    fn ssd_power_loss(&self, op: IoOp, blocks: u64) -> Option<u64> {
        if self.torn_write.get().is_some() {
            return Some(0);
        }
        match self.power_loss.get()? {
            _ if op == IoOp::Read => None,
            (0, torn_blocks) => {
                self.torn_write.set(Some(blocks));
                Some(torn_blocks.min(blocks))
            }
            (k, torn_blocks) => {
                self.power_loss.set(Some((k - 1, torn_blocks)));
                None
            }
        }
    }

    fn accel_online(&self) -> bool {
        let t = try_now().unwrap_or(0);
        !self.plan.accel_offline.iter().any(|w| w.contains(t))
    }

    fn dpu_overloaded(&self) -> bool {
        let t = try_now().unwrap_or(0);
        let hit = self.plan.dpu_overload.iter().any(|w| w.contains(t));
        if hit {
            self.record(FaultSite::DpuOverload);
        }
        hit
    }

    fn shard_down(&self, tag: &str) -> bool {
        let t = try_now().unwrap_or(0);
        let mut down = false;
        for ((win_tag, win), fired) in self.plan.shard_crash.iter().zip(&self.shard_crash_fired) {
            if win_tag == tag && win.contains(t) {
                down = true;
                // Count each crash window once, when it first bites
                // (unlike `dpu_overloaded`, which charges every consult):
                // the crash is one fault even though the server consults
                // per message.
                if !fired.replace(true) {
                    self.record(FaultSite::ShardCrash);
                }
            }
        }
        down
    }
}

/// Runs `f` on the installed session; `none` when there is none.
fn consult<R>(none: R, f: impl FnOnce(&FaultSession) -> R) -> R {
    probe::with(Part::Faults, f).unwrap_or(none)
}

/// Consults the session for one link frame. [`LinkVerdict::Deliver`]
/// when no session is installed.
pub fn link_verdict() -> LinkVerdict {
    consult(LinkVerdict::Deliver, FaultSession::link_verdict)
}

/// Consults the session for one SSD op. [`IoVerdict::Ok`] when no
/// session is installed.
pub fn ssd_verdict(op: IoOp) -> IoVerdict {
    consult(IoVerdict::Ok, |s| s.ssd_verdict(op))
}

/// Consults the session before one SSD op of `blocks` blocks on a device
/// that holds contents: `Some(persisted)` once the power is lost, when the
/// op must never complete and only the first `persisted` blocks of a
/// write land (0 for every op after the torn write). `None` when no
/// session is installed.
pub fn ssd_power_loss(op: IoOp, blocks: u64) -> Option<u64> {
    consult(None, |s| s.ssd_power_loss(op, blocks))
}

/// Consults the session for one accelerator job: true when the plan has
/// the engine offline, which counts as an injection. False when no
/// session is installed.
pub fn accel_rejects_job() -> bool {
    consult(false, |s| {
        let offline = !s.accel_online();
        if offline {
            s.record(FaultSite::AccelOffline);
        }
        offline
    })
}

/// True when accelerators are currently online (placement probes this
/// without charging an injection).
pub fn accel_online() -> bool {
    consult(true, FaultSession::accel_online)
}

/// True when the plan says DPU cores are overloaded right now.
pub fn dpu_overloaded() -> bool {
    consult(false, FaultSession::dpu_overloaded)
}

/// True when the shard platform tagged `tag` is inside a scripted crash
/// window right now. Servers consult this at message ingress and egress
/// to model a frozen node (requests and responses silently dropped).
pub fn shard_down(tag: &str) -> bool {
    consult(false, |s| s.shard_down(tag))
}

/// The one way to install a [`FaultPlan`]: installs it as the fault-plan
/// part of this thread's des session on creation and removes it on drop
/// (even on panic), so one run's plan cannot leak into the next.
pub struct SessionGuard {
    /// The installed session.
    pub session: Guard<FaultSession>,
}

impl SessionGuard {
    /// Installs `plan` until the guard drops.
    ///
    /// # Panics
    ///
    /// If this thread already has a fault session. Plans do not nest: the
    /// inner guard's drop would leave the outer plan injecting nothing for
    /// the rest of its run, and its report would undercount.
    pub fn new(plan: FaultPlan) -> Self {
        let session = FaultSession {
            link_rng: RefCell::new(StdRng::seed_from_u64(plan.seed ^ 0x1111_1111)),
            ssd_rng: RefCell::new(StdRng::seed_from_u64(plan.seed ^ 0x2222_2222)),
            scripted: std::array::from_fn(|_| Cell::new((0, 0))),
            power_loss: Cell::new(None),
            torn_write: Cell::new(None),
            injected: std::array::from_fn(|_| Counter::new()),
            shard_crash_fired: plan.shard_crash.iter().map(|_| Cell::new(false)).collect(),
            plan,
        };
        SessionGuard {
            session: Guard::new(Part::Faults, session),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_session_is_a_no_op() {
        assert_eq!(link_verdict(), LinkVerdict::Deliver);
        assert_eq!(ssd_verdict(IoOp::Read), IoVerdict::Ok);
        assert!(!accel_rejects_job());
        assert!(accel_online());
        assert!(!dpu_overloaded());
    }

    #[test]
    fn scripted_counts_fire_exactly_n_times() {
        let g = SessionGuard::new(FaultPlan::new(1));
        g.session.arm(FaultSite::SsdRead, 0, 2);
        assert_eq!(ssd_verdict(IoOp::Read), IoVerdict::Fail);
        assert_eq!(ssd_verdict(IoOp::Write), IoVerdict::Ok);
        assert_eq!(ssd_verdict(IoOp::Read), IoVerdict::Fail);
        assert_eq!(ssd_verdict(IoOp::Read), IoVerdict::Ok);
        assert_eq!(g.session.injected(FaultSite::SsdRead), 2);
        assert_eq!(g.session.report().total(), 2);
    }

    #[test]
    fn scripted_hits_draw_nothing_from_the_streams() {
        let run = |k: usize, n: usize| {
            let g = SessionGuard::new(FaultPlan::new(7).ssd_read_errors(0.3).link_drops(0.3));
            g.session.arm(FaultSite::SsdRead, k as u64, n as u64);
            g.session.arm(FaultSite::LinkDrop, k as u64, n as u64);
            let reads: Vec<_> = (0..100 + n).map(|_| ssd_verdict(IoOp::Read)).collect();
            let frames: Vec<_> = (0..100 + n).map(|_| link_verdict()).collect();
            (reads, frames)
        };
        let (reads, frames) = run(0, 0);
        for k in [0, 1, 5] {
            let (scripted_reads, scripted_frames) = run(k, 3);
            // The `k` passed ops draw from the seeded streams exactly as
            // an unscripted run's first `k` do...
            assert_eq!(scripted_reads[..k], reads[..k], "k = {k}");
            assert_eq!(scripted_frames[..k], frames[..k], "k = {k}");
            assert_eq!(scripted_reads[k..k + 3], [IoVerdict::Fail; 3]);
            assert_eq!(scripted_frames[k..k + 3], [LinkVerdict::Drop; 3]);
            // ...and after the scripted hits the streams pick up where
            // the unscripted run's `k`-th draw left them.
            assert_eq!(scripted_reads[k + 3..], reads[k..], "k = {k}");
            assert_eq!(scripted_frames[k + 3..], frames[k..], "k = {k}");
        }
    }

    #[test]
    fn arming_a_site_without_a_scripted_count_names_it() {
        let g = SessionGuard::new(FaultPlan::new(1));
        for site in [
            FaultSite::LinkDelay,
            FaultSite::SsdSlow,
            FaultSite::AccelOffline,
            FaultSite::DpuOverload,
            FaultSite::ShardCrash,
        ] {
            let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                g.session.arm(site, 0, 1)
            }));
            let message = refused.expect_err("arming must be refused");
            let message = message.downcast_ref::<String>().expect("formatted message");
            assert!(message.contains(site.label()), "{site:?}: {message}");
        }
    }

    #[test]
    fn re_arming_a_pending_site_replaces_its_script() {
        let g = SessionGuard::new(FaultPlan::new(1));
        g.session.arm(FaultSite::SsdWrite, 1, 3);
        assert_eq!(ssd_verdict(IoOp::Write), IoVerdict::Ok);
        assert_eq!(ssd_verdict(IoOp::Write), IoVerdict::Fail);
        // Two hits still pending: the new script drops them and counts
        // its `k` from this call.
        g.session.arm(FaultSite::SsdWrite, 2, 1);
        assert_eq!(ssd_verdict(IoOp::Write), IoVerdict::Ok);
        assert_eq!(ssd_verdict(IoOp::Write), IoVerdict::Ok);
        assert_eq!(ssd_verdict(IoOp::Write), IoVerdict::Fail);
        assert_eq!(ssd_verdict(IoOp::Write), IoVerdict::Ok);
        assert_eq!(g.session.injected(FaultSite::SsdWrite), 2);
    }

    #[test]
    fn power_loss_tears_the_kth_write_and_stops_every_later_op() {
        let g = SessionGuard::new(FaultPlan::new(1));
        assert_eq!(ssd_power_loss(IoOp::Write, 4), None, "nothing armed");
        g.session.arm_power_loss(2, 3);
        assert_eq!(ssd_power_loss(IoOp::Read, 1), None, "reads do not count");
        assert_eq!(ssd_power_loss(IoOp::Write, 4), None);
        assert_eq!(ssd_power_loss(IoOp::Write, 4), None);
        assert_eq!(g.session.torn_write_blocks(), None);
        assert_eq!(
            ssd_power_loss(IoOp::Write, 2),
            Some(2),
            "the torn write, capped"
        );
        assert_eq!(g.session.torn_write_blocks(), Some(2));
        assert_eq!(ssd_power_loss(IoOp::Read, 1), Some(0));
        assert_eq!(ssd_power_loss(IoOp::Write, 4), Some(0));
        assert_eq!(g.session.report().total(), 0, "no category counts it");
    }

    #[test]
    fn guards_do_not_nest() {
        let outer = SessionGuard::new(FaultPlan::new(1));
        let nested = std::panic::catch_unwind(|| SessionGuard::new(FaultPlan::new(2)));
        assert!(nested.is_err(), "a second guard must be refused");
        // The outer plan is still the installed one, and still injects.
        outer.session.arm(FaultSite::LinkDrop, 0, 1);
        assert_eq!(link_verdict(), LinkVerdict::Drop);
        assert_eq!(outer.session.injected(FaultSite::LinkDrop), 1);
        drop(outer);
        assert!(!FaultSession::is_active());
    }

    #[test]
    fn seeded_rates_are_reproducible_and_independent() {
        let run = |with_link: bool| {
            let mut plan = FaultPlan::new(7).ssd_read_errors(0.3);
            if with_link {
                plan = plan.link_drops(0.5);
            }
            let g = SessionGuard::new(plan);
            let mut fails = Vec::new();
            for i in 0..200 {
                if with_link {
                    let _ = link_verdict();
                }
                if ssd_verdict(IoOp::Read) == IoVerdict::Fail {
                    fails.push(i);
                }
            }
            drop(g);
            fails
        };
        let a = run(false);
        let b = run(false);
        assert_eq!(a, b, "same seed must fail the same ops");
        // Per-category streams: adding link faults must not change which
        // SSD reads fail.
        let c = run(true);
        assert_eq!(a, c, "link stream must not perturb the ssd stream");
        assert!(a.len() > 30 && a.len() < 90, "rate off: {}", a.len());
    }

    #[test]
    fn windows_follow_virtual_time() {
        let g = SessionGuard::new(
            FaultPlan::new(3)
                .accel_offline(1_000, 2_000)
                .dpu_overload(500, 1_500),
        );
        let mut sim = dpdpu_des::Sim::new();
        sim.spawn(async {
            assert!(accel_online());
            assert!(!dpu_overloaded());
            dpdpu_des::sleep(600).await;
            assert!(dpu_overloaded());
            dpdpu_des::sleep(600).await; // t=1200
            assert!(accel_rejects_job());
            dpdpu_des::sleep(1_000).await; // t=2200
            assert!(accel_online());
            assert!(!dpu_overloaded());
        });
        sim.run();
        assert_eq!(g.session.injected(FaultSite::AccelOffline), 1);
        assert!(g.session.injected(FaultSite::DpuOverload) >= 1);
    }

    #[test]
    fn shard_crash_windows_follow_virtual_time_and_count_once() {
        let g = SessionGuard::new(FaultPlan::new(9).shard_crash("node0", 1_000, 2_000));
        let mut sim = dpdpu_des::Sim::new();
        sim.spawn(async {
            assert!(!shard_down("node0"));
            dpdpu_des::sleep(1_200).await;
            // Repeated consults inside the window: down, counted once.
            assert!(shard_down("node0"));
            assert!(shard_down("node0"));
            assert!(!shard_down("node1"), "other tags unaffected");
            dpdpu_des::sleep(1_000).await; // t=2200: window over
            assert!(!shard_down("node0"));
        });
        sim.run();
        assert_eq!(g.session.injected(FaultSite::ShardCrash), 1);
    }

    #[test]
    fn report_renders_deterministically() {
        let g = SessionGuard::new(FaultPlan::new(1));
        g.session.arm(FaultSite::SsdRead, 0, 1);
        g.session.arm(FaultSite::LinkDrop, 0, 1);
        let _ = ssd_verdict(IoOp::Read);
        let _ = link_verdict();
        let text = g.session.report().to_string();
        assert!(text.contains("link_drop"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + FaultSite::ALL.len());
    }
}
