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
//! visible to the device models through the same thread-local-session
//! pattern `dpdpu_telemetry` uses, and removes it when dropped. With no
//! session installed every consult is a cheap no-op and the models behave
//! exactly as before. The session also holds the third style, **scripted
//! counts** — "fail the next N SSD reads" — armed mid-run with
//! [`FaultSession::arm_ssd_read_failures`] and its two siblings and
//! consulted before the seeded rates. All injected effects are charged in
//! *virtual* time, so an injected run is as deterministic as a clean one.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

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
/// // ... run the simulation; `guard.session.arm_*` scripts exact faults ...
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
    // Scripted "fail the next n" counts, consulted before the rates: a
    // scripted hit draws nothing from a stream.
    fail_ssd_reads: Cell<u64>,
    fail_ssd_writes: Cell<u64>,
    drop_frames: Cell<u64>,
    injected: [Counter; FaultSite::ALL.len()],
    // One flag per shard-crash window so each crash is counted once
    // when it first bites, not on every consult inside the window.
    shard_crash_fired: Vec<Cell<bool>>,
}

thread_local! {
    static CURRENT: RefCell<Option<Rc<FaultSession>>> = const { RefCell::new(None) };
}

/// Takes one armed hit from a scripted count, if any is left.
fn take_one(count: &Cell<u64>) -> bool {
    let n = count.get();
    count.set(n.saturating_sub(1));
    n > 0
}

impl FaultSession {
    /// The installed session, if any.
    pub fn current() -> Option<Rc<FaultSession>> {
        CURRENT.with(|c| c.borrow().clone())
    }

    /// True when a fault session is installed.
    pub fn is_active() -> bool {
        CURRENT.with(|c| c.borrow().is_some())
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

    /// Scripted: fail the next `n` SSD reads (armed before or during a run;
    /// adds to what is still armed).
    pub fn arm_ssd_read_failures(&self, n: u64) {
        self.fail_ssd_reads.set(self.fail_ssd_reads.get() + n);
    }

    /// Scripted: fail the next `n` SSD writes (as above).
    pub fn arm_ssd_write_failures(&self, n: u64) {
        self.fail_ssd_writes.set(self.fail_ssd_writes.get() + n);
    }

    /// Scripted: drop the next `n` network frames (as above).
    pub fn arm_link_drops(&self, n: u64) {
        self.drop_frames.set(self.drop_frames.get() + n);
    }

    fn record(&self, site: FaultSite) {
        self.injected[site as usize].inc();
        dpdpu_check::fault_injected(site.label(), site.must_be_handled());
        dpdpu_telemetry::count("faults_injected", &[("site", site.label())]);
    }

    fn link_verdict(&self) -> LinkVerdict {
        let plan = &self.plan;
        if take_one(&self.drop_frames)
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
        let (scripted, rate, site) = match op {
            IoOp::Read => (
                &self.fail_ssd_reads,
                plan.ssd_read_error_rate,
                FaultSite::SsdRead,
            ),
            IoOp::Write => (
                &self.fail_ssd_writes,
                plan.ssd_write_error_rate,
                FaultSite::SsdWrite,
            ),
        };
        if take_one(scripted) || (rate > 0.0 && self.ssd_rng.borrow_mut().random_bool(rate)) {
            self.record(site);
            return IoVerdict::Fail;
        }
        if plan.ssd_slow_rate > 0.0 && self.ssd_rng.borrow_mut().random_bool(plan.ssd_slow_rate) {
            self.record(FaultSite::SsdSlow);
            return IoVerdict::Slow(plan.ssd_slow_ns);
        }
        IoVerdict::Ok
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

/// Consults the session for one link frame. [`LinkVerdict::Deliver`]
/// when no session is installed.
pub fn link_verdict() -> LinkVerdict {
    match FaultSession::current() {
        Some(s) => s.link_verdict(),
        None => LinkVerdict::Deliver,
    }
}

/// Consults the session for one SSD op. [`IoVerdict::Ok`] when no
/// session is installed.
pub fn ssd_verdict(op: IoOp) -> IoVerdict {
    match FaultSession::current() {
        Some(s) => s.ssd_verdict(op),
        None => IoVerdict::Ok,
    }
}

/// Consults the session for one accelerator job: true when the plan has
/// the engine offline, which counts as an injection. False when no
/// session is installed.
pub fn accel_rejects_job() -> bool {
    match FaultSession::current() {
        Some(s) if !s.accel_online() => {
            s.record(FaultSite::AccelOffline);
            true
        }
        _ => false,
    }
}

/// True when accelerators are currently online (placement probes this
/// without charging an injection).
pub fn accel_online() -> bool {
    match FaultSession::current() {
        Some(s) => s.accel_online(),
        None => true,
    }
}

/// True when the plan says DPU cores are overloaded right now.
pub fn dpu_overloaded() -> bool {
    match FaultSession::current() {
        Some(s) => s.dpu_overloaded(),
        None => false,
    }
}

/// True when the shard platform tagged `tag` is inside a scripted crash
/// window right now. Servers consult this at message ingress and egress
/// to model a frozen node (requests and responses silently dropped).
pub fn shard_down(tag: &str) -> bool {
    match FaultSession::current() {
        Some(s) => s.shard_down(tag),
        None => false,
    }
}

/// The one way to install a [`FaultPlan`]: installs it as this thread's
/// fault session on creation and removes it on drop (even on panic), so
/// one run's plan cannot leak into the next.
pub struct SessionGuard {
    /// The installed session.
    pub session: Rc<FaultSession>,
    _private: Cell<()>,
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
        assert!(
            !FaultSession::is_active(),
            "a fault session is already installed on this thread: drop its \
             SessionGuard before installing another (fault plans do not nest)"
        );
        let session = Rc::new(FaultSession {
            link_rng: RefCell::new(StdRng::seed_from_u64(plan.seed ^ 0x1111_1111)),
            ssd_rng: RefCell::new(StdRng::seed_from_u64(plan.seed ^ 0x2222_2222)),
            fail_ssd_reads: Cell::new(0),
            fail_ssd_writes: Cell::new(0),
            drop_frames: Cell::new(0),
            injected: std::array::from_fn(|_| Counter::new()),
            shard_crash_fired: plan.shard_crash.iter().map(|_| Cell::new(false)).collect(),
            plan,
        });
        CURRENT.with(|c| *c.borrow_mut() = Some(session.clone()));
        SessionGuard {
            session,
            _private: Cell::new(()),
        }
    }
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = None);
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
        g.session.arm_ssd_read_failures(2);
        assert_eq!(ssd_verdict(IoOp::Read), IoVerdict::Fail);
        assert_eq!(ssd_verdict(IoOp::Write), IoVerdict::Ok);
        assert_eq!(ssd_verdict(IoOp::Read), IoVerdict::Fail);
        assert_eq!(ssd_verdict(IoOp::Read), IoVerdict::Ok);
        assert_eq!(g.session.injected(FaultSite::SsdRead), 2);
        assert_eq!(g.session.report().total(), 2);
    }

    #[test]
    fn scripted_hits_draw_nothing_from_the_streams() {
        let run = |scripted: u64| {
            let g = SessionGuard::new(FaultPlan::new(7).ssd_read_errors(0.3).link_drops(0.3));
            g.session.arm_ssd_read_failures(scripted);
            g.session.arm_link_drops(scripted);
            let reads: Vec<_> = (0..100 + scripted)
                .map(|_| ssd_verdict(IoOp::Read))
                .collect();
            let frames: Vec<_> = (0..100 + scripted).map(|_| link_verdict()).collect();
            (reads, frames)
        };
        let (reads, frames) = run(0);
        let (scripted_reads, scripted_frames) = run(3);
        assert_eq!(scripted_reads[..3], [IoVerdict::Fail; 3]);
        assert_eq!(scripted_frames[..3], [LinkVerdict::Drop; 3]);
        // After the scripted hits the seeded streams pick up where an
        // unscripted run starts.
        assert_eq!(scripted_reads[3..], reads[..]);
        assert_eq!(scripted_frames[3..], frames[..]);
    }

    #[test]
    fn guards_do_not_nest() {
        let outer = SessionGuard::new(FaultPlan::new(1));
        let nested = std::panic::catch_unwind(|| SessionGuard::new(FaultPlan::new(2)));
        assert!(nested.is_err(), "a second guard must be refused");
        // The outer plan is still the installed one, and still injects.
        outer.session.arm_link_drops(1);
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
        g.session.arm_ssd_read_failures(1);
        g.session.arm_link_drops(1);
        let _ = ssd_verdict(IoOp::Read);
        let _ = link_verdict();
        let text = g.session.report().to_string();
        assert!(text.contains("link_drop"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + FaultSite::ALL.len());
    }
}
