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
//! * **scripted counts and windows** — "fail the next N SSD reads",
//!   "accelerator offline from 1 ms to 3 ms" — for recovery tests that
//!   need an exactly reproducible failure.
//!
//! Installing a plan ([`FaultSession::install`]) makes it visible to the
//! device models through the same thread-local-session pattern
//! `dpdpu_telemetry` uses; with no session installed every consult is a
//! cheap no-op and the models behave exactly as before. All injected
//! effects are charged in *virtual* time, so an injected run is as
//! deterministic as a clean one.

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

/// What an accelerator job should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccelVerdict {
    /// Proceed normally.
    Ok,
    /// Reject: the engine is offline.
    Offline,
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

/// A scriptable + seeded-random fault schedule. Build one fluently, then
/// [`FaultSession::install`] it for the duration of a run.
///
/// ```
/// use dpdpu_faults::{FaultPlan, FaultSession};
///
/// let plan = FaultPlan::new(42)
///     .link_drops(0.01)
///     .ssd_read_errors(0.02)
///     .ssd_slow_io(0.05, 150_000)
///     .accel_offline(1_000_000, 3_000_000);
/// let session = FaultSession::install(plan);
/// // ... run the simulation ...
/// FaultSession::uninstall();
/// println!("{}", session.report());
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
    fail_next_ssd_reads: u64,
    fail_next_ssd_writes: u64,
    drop_next_frames: u64,
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

    /// The plan seed.
    pub fn seed(&self) -> u64 {
        self.seed
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

    /// Scripted: fail exactly the next `n` SSD reads.
    pub fn fail_next_ssd_reads(mut self, n: u64) -> Self {
        self.fail_next_ssd_reads = n;
        self
    }

    /// Scripted: fail exactly the next `n` SSD writes.
    pub fn fail_next_ssd_writes(mut self, n: u64) -> Self {
        self.fail_next_ssd_writes = n;
        self
    }

    /// Scripted: drop exactly the next `n` network frames.
    pub fn drop_next_frames(mut self, n: u64) -> Self {
        self.drop_next_frames = n;
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

/// An installed fault plan plus its RNG streams and injection counters.
pub struct FaultSession {
    plan: RefCell<FaultPlan>,
    // One independent stream per category: injecting (say) link faults
    // must not change which SSD ops fail under the same seed.
    link_rng: RefCell<StdRng>,
    ssd_rng: RefCell<StdRng>,
    injected: [Counter; FaultSite::ALL.len()],
    // One flag per shard-crash window so each crash is counted once
    // when it first bites, not on every consult inside the window.
    shard_crash_fired: RefCell<Vec<bool>>,
}

thread_local! {
    static CURRENT: RefCell<Option<Rc<FaultSession>>> = const { RefCell::new(None) };
}

impl FaultSession {
    /// Installs `plan` as this thread's fault session (replacing any
    /// previous one) and returns a handle for counters and reports.
    pub fn install(plan: FaultPlan) -> Rc<FaultSession> {
        let seed = plan.seed;
        let crash_windows = plan.shard_crash.len();
        let session = Rc::new(FaultSession {
            plan: RefCell::new(plan),
            shard_crash_fired: RefCell::new(vec![false; crash_windows]),
            link_rng: RefCell::new(StdRng::seed_from_u64(seed ^ 0x1111_1111)),
            ssd_rng: RefCell::new(StdRng::seed_from_u64(seed ^ 0x2222_2222)),
            injected: std::array::from_fn(|_| Counter::new()),
        });
        CURRENT.with(|c| *c.borrow_mut() = Some(session.clone()));
        session
    }

    /// Removes the thread's fault session; consults become no-ops.
    pub fn uninstall() {
        CURRENT.with(|c| *c.borrow_mut() = None);
    }

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

    /// Scripted, mid-run: fail the next `n` SSD reads.
    pub fn arm_ssd_read_failures(&self, n: u64) {
        self.plan.borrow_mut().fail_next_ssd_reads += n;
    }

    /// Scripted, mid-run: fail the next `n` SSD writes.
    pub fn arm_ssd_write_failures(&self, n: u64) {
        self.plan.borrow_mut().fail_next_ssd_writes += n;
    }

    /// Scripted, mid-run: drop the next `n` network frames.
    pub fn arm_link_drops(&self, n: u64) {
        self.plan.borrow_mut().drop_next_frames += n;
    }

    /// Scripted, mid-run: freeze shard `tag` during `[from, until)`.
    pub fn arm_shard_crash(&self, tag: &str, from: Time, until: Time) {
        assert!(from < until, "empty shard-crash window");
        self.plan
            .borrow_mut()
            .shard_crash
            .push((tag.to_string(), Window { from, until }));
    }

    fn record(&self, site: FaultSite) {
        self.injected[site as usize].inc();
        dpdpu_check::fault_injected(site.label());
        dpdpu_telemetry::count("faults_injected", &[("site", site.label())]);
    }

    fn link_verdict(&self) -> LinkVerdict {
        {
            let mut plan = self.plan.borrow_mut();
            if plan.drop_next_frames > 0 {
                plan.drop_next_frames -= 1;
                drop(plan);
                self.record(FaultSite::LinkDrop);
                return LinkVerdict::Drop;
            }
        }
        let plan = self.plan.borrow();
        if plan.link_drop_rate > 0.0 && self.link_rng.borrow_mut().random_bool(plan.link_drop_rate)
        {
            drop(plan);
            self.record(FaultSite::LinkDrop);
            return LinkVerdict::Drop;
        }
        if plan.link_delay_rate > 0.0
            && self.link_rng.borrow_mut().random_bool(plan.link_delay_rate)
        {
            let ns = plan.link_delay_ns;
            drop(plan);
            self.record(FaultSite::LinkDelay);
            return LinkVerdict::Delay(ns);
        }
        LinkVerdict::Deliver
    }

    fn ssd_verdict(&self, op: IoOp) -> IoVerdict {
        {
            let mut plan = self.plan.borrow_mut();
            let scripted = match op {
                IoOp::Read => &mut plan.fail_next_ssd_reads,
                IoOp::Write => &mut plan.fail_next_ssd_writes,
            };
            if *scripted > 0 {
                *scripted -= 1;
                drop(plan);
                self.record(match op {
                    IoOp::Read => FaultSite::SsdRead,
                    IoOp::Write => FaultSite::SsdWrite,
                });
                return IoVerdict::Fail;
            }
        }
        let plan = self.plan.borrow();
        let rate = match op {
            IoOp::Read => plan.ssd_read_error_rate,
            IoOp::Write => plan.ssd_write_error_rate,
        };
        if rate > 0.0 && self.ssd_rng.borrow_mut().random_bool(rate) {
            drop(plan);
            self.record(match op {
                IoOp::Read => FaultSite::SsdRead,
                IoOp::Write => FaultSite::SsdWrite,
            });
            return IoVerdict::Fail;
        }
        if plan.ssd_slow_rate > 0.0 && self.ssd_rng.borrow_mut().random_bool(plan.ssd_slow_rate) {
            let ns = plan.ssd_slow_ns;
            drop(plan);
            self.record(FaultSite::SsdSlow);
            return IoVerdict::Slow(ns);
        }
        IoVerdict::Ok
    }

    fn accel_verdict(&self) -> AccelVerdict {
        if !self.accel_online() {
            self.record(FaultSite::AccelOffline);
            return AccelVerdict::Offline;
        }
        AccelVerdict::Ok
    }

    fn accel_online(&self) -> bool {
        let t = try_now().unwrap_or(0);
        !self
            .plan
            .borrow()
            .accel_offline
            .iter()
            .any(|w| w.contains(t))
    }

    fn dpu_overloaded(&self) -> bool {
        let t = try_now().unwrap_or(0);
        let hit = self
            .plan
            .borrow()
            .dpu_overload
            .iter()
            .any(|w| w.contains(t));
        if hit {
            self.record(FaultSite::DpuOverload);
        }
        hit
    }

    fn shard_down(&self, tag: &str) -> bool {
        let t = try_now().unwrap_or(0);
        let mut down = false;
        let mut newly_fired = 0u64;
        {
            let plan = self.plan.borrow();
            let mut fired = self.shard_crash_fired.borrow_mut();
            // Windows armed mid-run grow the plan after install; track them.
            fired.resize(plan.shard_crash.len(), false);
            for (i, (win_tag, win)) in plan.shard_crash.iter().enumerate() {
                if win_tag == tag && win.contains(t) {
                    down = true;
                    if !fired[i] {
                        fired[i] = true;
                        newly_fired += 1;
                    }
                }
            }
        }
        // Count each crash window once, when it first bites (unlike
        // `dpu_overloaded`, which charges every consult): the crash is
        // one fault even though the server consults per message.
        for _ in 0..newly_fired {
            self.record(FaultSite::ShardCrash);
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

/// Consults the session for one accelerator job. [`AccelVerdict::Ok`]
/// when no session is installed.
pub fn accel_verdict() -> AccelVerdict {
    match FaultSession::current() {
        Some(s) => s.accel_verdict(),
        None => AccelVerdict::Ok,
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

/// RAII guard for tests: installs on creation, uninstalls on drop (even
/// on panic), so one test's plan cannot leak into the next.
pub struct SessionGuard {
    /// The installed session.
    pub session: Rc<FaultSession>,
    _private: Cell<()>,
}

impl SessionGuard {
    /// Installs `plan` until the guard drops.
    pub fn new(plan: FaultPlan) -> Self {
        SessionGuard {
            session: FaultSession::install(plan),
            _private: Cell::new(()),
        }
    }
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        FaultSession::uninstall();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_session_is_a_no_op() {
        FaultSession::uninstall();
        assert_eq!(link_verdict(), LinkVerdict::Deliver);
        assert_eq!(ssd_verdict(IoOp::Read), IoVerdict::Ok);
        assert_eq!(accel_verdict(), AccelVerdict::Ok);
        assert!(accel_online());
        assert!(!dpu_overloaded());
    }

    #[test]
    fn scripted_counts_fire_exactly_n_times() {
        let g = SessionGuard::new(FaultPlan::new(1).fail_next_ssd_reads(2));
        assert_eq!(ssd_verdict(IoOp::Read), IoVerdict::Fail);
        assert_eq!(ssd_verdict(IoOp::Write), IoVerdict::Ok);
        assert_eq!(ssd_verdict(IoOp::Read), IoVerdict::Fail);
        assert_eq!(ssd_verdict(IoOp::Read), IoVerdict::Ok);
        assert_eq!(g.session.injected(FaultSite::SsdRead), 2);
        assert_eq!(g.session.report().total(), 2);
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
            assert_eq!(accel_verdict(), AccelVerdict::Offline);
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
    fn shard_crash_armed_mid_run_bites() {
        let g = SessionGuard::new(FaultPlan::new(11));
        let session = g.session.clone();
        let mut sim = dpdpu_des::Sim::new();
        sim.spawn(async move {
            assert!(!shard_down("node2"));
            session.arm_shard_crash("node2", 500, 1_500);
            dpdpu_des::sleep(600).await;
            assert!(shard_down("node2"));
        });
        sim.run();
        assert_eq!(g.session.injected(FaultSite::ShardCrash), 1);
    }

    #[test]
    fn report_renders_deterministically() {
        let g = SessionGuard::new(FaultPlan::new(1).fail_next_ssd_reads(1).drop_next_frames(1));
        let _ = ssd_verdict(IoOp::Read);
        let _ = link_verdict();
        let text = g.session.report().to_string();
        assert!(text.contains("link_drop"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + FaultSite::ALL.len());
    }
}
