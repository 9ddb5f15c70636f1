//! # dpdpu-check — the simulation conformance layer
//!
//! The whole reproduction strategy rests on one claim: the
//! discrete-event simulation is *deterministic* and *physically
//! coherent*, so its virtual-time numbers can stand in for BlueField-2
//! measurements. This crate enforces the "physically coherent" half
//! mechanically, on every event, during every test, example, and
//! ablation run.
//!
//! A [`CheckSession`] installs itself in two places: as the des
//! `Probe` **checker** sink (receiving Server wait/serve spans,
//! labeled-semaphore acquire/release events, and executor clock
//! advances) and as a thread-local that the engine crates reach via
//! free check-point functions ([`link_in`], [`ssd_done`],
//! [`kernel_result`], [`fault_injected`], …). All check-points are
//! no-ops when no session is installed, so the untraced fast path
//! stays a single branch. With a session installed a check-point is an
//! array index: resources, links, shards and tenants intern their name
//! into a [`Site`] at construction and every per-event table is a `Vec`
//! indexed by it. Ids follow interning order — OS-scheduling order under
//! a `--jobs N` runner — so sweeps, reports and messages go by name.
//!
//! ## Invariant catalogue
//!
//! | invariant | what it rejects |
//! |---|---|
//! | [`Invariant::TimeMonotonic`] | virtual time moving backwards within one run |
//! | [`Invariant::SpanCausality`] | a span ending before it starts, or dated in the future |
//! | [`Invariant::CapacityBound`] | more permits in flight than a resource has slots |
//! | [`Invariant::AcquireReleaseBalance`] | an acquire without a matching release at end of run |
//! | [`Invariant::LinkConservation`] | link frames/bytes delivered + dropped ≠ frames/bytes sent |
//! | [`Invariant::SsdConservation`] | SSD ops admitted ≠ completed + errored |
//! | [`Invariant::PcieConservation`] | DMA bytes entering a PCIe link ≠ bytes that left it |
//! | [`Invariant::KernelGroundTruth`] | a compute kernel output that contradicts the kernels-crate ground truth |
//! | [`Invariant::UtilizationBound`] | accumulated busy time above `slots × elapsed` |
//! | [`Invariant::FaultHygiene`] | an injected fault neither retried, degraded, nor surfaced |
//! | [`Invariant::ClusterConservation`] | cluster ops issued ≠ completed + failed/shed per shard |
//! | [`Invariant::FabricConservation`] | fabric messages delivered ≠ sent, or credit debt above the advertised window |
//! | [`Invariant::EpochFencing`] | a replica-group epoch that fails to strictly increase, or a write acked at an epoch below the group's fence |
//! | [`Invariant::ReplicaDivergence`] | live replicas of one group whose KV digests disagree at end of run |
//! | [`Invariant::TenantConservation`] | a gateway request without a tenant label, or per tenant issued ≠ completed + shed + failed |
//! | [`Invariant::QosIsolation`] | a dispatch toward the shard fabric without a scheduler grant, or a grant never dispatched |
//!
//! ## Modes
//!
//! * **Strict** (default, [`CheckSession::install`] / [`CheckGuard`]):
//!   a violation panics at the offending event with a precise message —
//!   the same failure mode as a debug assertion, and what every test
//!   and ablation wants.
//! * **Collecting** ([`CheckSession::install_collecting`]): violations
//!   accumulate and are returned by [`CheckSession::finish`] — used by
//!   this crate's own unit tests and by meta-tests that must observe a
//!   violation without dying.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use dpdpu_des::probe::{self, Probe};
use dpdpu_des::{try_now, Time};

pub use dpdpu_des::probe::Site;

pub mod golden;
pub mod linearizability;

/// The classes of simulation invariants enforced by this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Invariant {
    /// Virtual time never decreases within one executor run.
    TimeMonotonic,
    /// Every span has `start <= end` and is not dated past "now".
    SpanCausality,
    /// A resource never holds more permits in flight than its capacity.
    CapacityBound,
    /// Every acquire is matched by a release by the end of the run.
    AcquireReleaseBalance,
    /// Link frames/bytes in == delivered + dropped.
    LinkConservation,
    /// SSD ops admitted == completed + errored.
    SsdConservation,
    /// PCIe DMA ops/bytes in == ops/bytes out.
    PcieConservation,
    /// Compute kernel outputs agree with the kernels-crate ground truth.
    KernelGroundTruth,
    /// Busy time on a resource never exceeds `slots × elapsed`.
    UtilizationBound,
    /// Every injected fault is retried, degraded, or surfaced.
    FaultHygiene,
    /// Every cluster request issued to a shard is resolved: completed,
    /// failed, or shed by admission control. Nothing vanishes between
    /// the router and a shard's server.
    ClusterConservation,
    /// Fabric flow control is honest: per connection direction, every
    /// data message sent is eventually delivered (messages and bytes),
    /// credits returned never exceed credits consumed, and the credit
    /// debt (consumed − returned) never exceeds the advertised window —
    /// i.e. the sender can never overrun the receiver's posted buffers.
    FabricConservation,
    /// Replica-group epochs are fenced: every epoch transition
    /// (promotion or solo grant) strictly increases the group epoch,
    /// and no write is ever acked at an epoch below the group's current
    /// maximum — a resurrected stale primary cannot commit.
    EpochFencing,
    /// Non-deposed replicas of one group hold identical live KV state
    /// (entry count, value bytes, and content checksum) at end of run.
    ReplicaDivergence,
    /// Every request entering the gateway tier carries a tenant label,
    /// and per tenant nothing vanishes between admission and a terminal
    /// outcome: issued == completed + shed + failed, ops and bytes.
    TenantConservation,
    /// Every request the gateway dispatches toward the shard fabric was
    /// granted by the per-tenant QoS scheduler first — no path bypasses
    /// weighted-fair queueing — and every grant is dispatched.
    QosIsolation,
}

impl Invariant {
    /// Stable lowercase name (used in violation messages and docs).
    pub fn name(self) -> &'static str {
        match self {
            Invariant::TimeMonotonic => "time-monotonic",
            Invariant::SpanCausality => "span-causality",
            Invariant::CapacityBound => "capacity-bound",
            Invariant::AcquireReleaseBalance => "acquire-release-balance",
            Invariant::LinkConservation => "link-conservation",
            Invariant::SsdConservation => "ssd-conservation",
            Invariant::PcieConservation => "pcie-conservation",
            Invariant::KernelGroundTruth => "kernel-ground-truth",
            Invariant::UtilizationBound => "utilization-bound",
            Invariant::FaultHygiene => "fault-hygiene",
            Invariant::ClusterConservation => "cluster-conservation",
            Invariant::FabricConservation => "fabric-conservation",
            Invariant::EpochFencing => "epoch-fencing",
            Invariant::ReplicaDivergence => "replica-divergence",
            Invariant::TenantConservation => "tenant-conservation",
            Invariant::QosIsolation => "qos-isolation",
        }
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant was violated.
    pub invariant: Invariant,
    /// Human-readable description with the offending numbers.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.message)
    }
}

#[derive(Default)]
struct ResourceStat {
    capacity: usize,
    in_flight: usize,
    acquires: u64,
    releases: u64,
    /// Busy ("serve") nanoseconds accumulated in the current epoch.
    serve_ns: u64,
    window_start: Option<Time>,
    window_end: Time,
}

/// Conservation accounting for one flow site (a link, an SSD
/// direction, a PCIe link).
#[derive(Default)]
struct FlowStat {
    in_ops: u64,
    in_bytes: u64,
    out_ops: u64,
    out_bytes: u64,
    dropped_ops: u64,
    dropped_bytes: u64,
}

/// Credit/byte accounting for one fabric connection direction.
///
/// `window` accumulates across connections that reuse a site label
/// (e.g. a scenario running one sim per fabric kind): each instance
/// contributes its own credit budget, so the streaming debt bound
/// stays sound over the whole session.
#[derive(Default)]
struct FabricStat {
    window: u64,
    sent_msgs: u64,
    sent_bytes: u64,
    delivered_msgs: u64,
    delivered_bytes: u64,
    credits_consumed: u64,
    credits_returned: u64,
}

/// Gateway accounting for one tenant: the admission conservation split
/// and the scheduler grant/dispatch pairing.
#[derive(Default)]
struct TenantStat {
    issued_ops: u64,
    issued_bytes: u64,
    ok_ops: u64,
    ok_bytes: u64,
    shed_ops: u64,
    shed_bytes: u64,
    failed_ops: u64,
    failed_bytes: u64,
    /// Dispatch slots granted by the WFQ/DRR scheduler.
    granted: u64,
    /// Requests actually sent toward the shard fabric.
    dispatched: u64,
}

impl TenantStat {
    fn resolved_ops(&self) -> u64 {
        self.ok_ops + self.shed_ops + self.failed_ops
    }

    fn resolved_bytes(&self) -> u64 {
        self.ok_bytes + self.shed_bytes + self.failed_bytes
    }
}

/// Epoch and digest accounting for one replica group.
#[derive(Default)]
struct ReplGroupStat {
    /// Highest epoch seen for the group (transitions and acks).
    max_epoch: u64,
    /// Epoch transitions recorded (promotions and solo grants).
    transitions: u64,
    /// Writes acked through the replication protocol.
    acked: u64,
    /// `(replica, entries, bytes, checksum)` digests reported at
    /// quiesce for the end-of-run divergence sweep.
    digests: Vec<(usize, u64, u64, u64)>,
}

/// Per-site accounting indexed by [`Site::index`]. A slot is `None`
/// until this session first touches the site (ids are per thread, not
/// per session), and keeps the name it resolved then.
#[derive(Default)]
struct SiteMap<V>(Vec<Option<(Rc<str>, V)>>);

impl<V: Default> SiteMap<V> {
    /// The stat of `site`, created on first sight — the only time a
    /// check-point may allocate (the table grows to cover the new id).
    fn entry(&mut self, site: Site) -> &mut V {
        let i = site.index();
        if i >= self.0.len() {
            self.0.resize_with(i + 1, || None);
        }
        &mut self.0[i]
            .get_or_insert_with(|| (site.name(), V::default()))
            .1
    }

    fn values(&self) -> impl Iterator<Item = &V> {
        self.0.iter().flatten().map(|(_, v)| v)
    }

    fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.0.iter_mut().flatten().map(|(_, v)| v)
    }

    /// Sites this session touched.
    fn len(&self) -> usize {
        self.values().count()
    }

    /// Touched sites in name order: the order of every sweep, so a
    /// violation list never depends on an id's numeric value.
    fn by_name(&self) -> Vec<(&str, &V)> {
        let mut sites: Vec<_> = self.0.iter().flatten().map(|(n, v)| (&**n, v)).collect();
        sites.sort_unstable_by_key(|&(name, _)| name);
        sites
    }
}

/// Fault-hygiene categories with a handling obligation. The other
/// categories (delays, slow I/O, stalls, overload windows) only stretch
/// completion time and need no recovery action.
const FAULTS_REQUIRING_HANDLING: [&str; 4] =
    ["link_drop", "ssd_read", "ssd_write", "accel_offline"];

/// A thread-local conformance session. See the crate docs.
#[derive(Default)]
pub struct CheckSession {
    strict: bool,
    violations: RefCell<Vec<Violation>>,
    last_time: Cell<Time>,
    resources: RefCell<SiteMap<ResourceStat>>,
    links: RefCell<SiteMap<FlowStat>>,
    ssd: RefCell<SiteMap<FlowStat>>,
    pcie: RefCell<SiteMap<FlowStat>>,
    cluster: RefCell<SiteMap<FlowStat>>,
    fabric: RefCell<SiteMap<FabricStat>>,
    repl: RefCell<BTreeMap<usize, ReplGroupStat>>,
    tenants: RefCell<SiteMap<TenantStat>>,
    kernels_checked: Cell<u64>,
    faults_injected: RefCell<BTreeMap<&'static str, u64>>,
    faults_handled: RefCell<BTreeMap<(&'static str, &'static str), u64>>,
    finished: Cell<bool>,
}

thread_local! {
    static CURRENT: RefCell<Option<Rc<CheckSession>>> = const { RefCell::new(None) };
}

impl CheckSession {
    /// Installs a strict session for this thread (replacing any
    /// previous one) and hooks it into the des checker probe slot.
    pub fn install() -> Rc<Self> {
        Self::install_mode(true)
    }

    /// Installs a collecting session: violations accumulate instead of
    /// panicking. For tests that assert *on* violations.
    pub fn install_collecting() -> Rc<Self> {
        Self::install_mode(false)
    }

    fn install_mode(strict: bool) -> Rc<Self> {
        let session = Rc::new(CheckSession {
            strict,
            ..Default::default()
        });
        CURRENT.with(|c| *c.borrow_mut() = Some(session.clone()));
        probe::set_checker(Some(session.clone()));
        session
    }

    /// Re-installs an existing session as this thread's current one.
    /// Unlike [`CheckSession::install`] no fresh session is created:
    /// this is how a parallel time domain re-enters its session around
    /// every execution slice, so streaming invariants keep their
    /// accumulated state across slices.
    pub fn reinstall(session: &Rc<Self>) {
        CURRENT.with(|c| *c.borrow_mut() = Some(session.clone()));
        probe::set_checker(Some(session.clone()));
    }

    /// Installs a strict session only if none is active; returns the
    /// active session either way. Lets `DpdpuBuilder::boot` make the
    /// checker always-on without clobbering an outer [`CheckGuard`].
    pub fn ensure_installed() -> Rc<Self> {
        if let Some(cur) = Self::current() {
            return cur;
        }
        Self::install()
    }

    /// The session currently installed on this thread, if any.
    pub fn current() -> Option<Rc<Self>> {
        CURRENT.with(|c| c.borrow().clone())
    }

    /// Removes the thread's session and unhooks the des checker probe.
    pub fn uninstall() {
        CURRENT.with(|c| *c.borrow_mut() = None);
        probe::set_checker(None);
    }

    /// Violations recorded so far (strict sessions panic before
    /// recording a second one, collecting sessions accumulate).
    pub fn violations(&self) -> Vec<Violation> {
        self.violations.borrow().clone()
    }

    fn violate(&self, invariant: Invariant, message: String) {
        let v = Violation { invariant, message };
        self.violations.borrow_mut().push(v.clone());
        // Never turn an in-progress panic (e.g. a failing assert whose
        // unwind drops permits) into a double-panic abort.
        if self.strict && !std::thread::panicking() {
            panic!("dpdpu-check: invariant violated: {v}");
        }
    }

    /// Feeds a time observation; flags regressions within a run.
    fn observe_time(&self, t: Time) {
        if t < self.last_time.get() {
            self.violate(
                Invariant::TimeMonotonic,
                format!("observed t={t} after t={}", self.last_time.get()),
            );
        } else {
            self.last_time.set(t);
        }
    }

    /// A new executor run started at `t`. A fresh `Sim` restarts the
    /// virtual clock at zero, which is an epoch boundary, not time
    /// travel: close the per-resource utilisation windows and reset the
    /// monotonicity watermark.
    fn epoch_reset(&self, t: Time) {
        self.check_utilization();
        for stat in self.resources.borrow_mut().values_mut() {
            stat.serve_ns = 0;
            stat.window_start = None;
            stat.window_end = 0;
        }
        self.last_time.set(t);
    }

    fn check_utilization(&self) {
        let mut pending = Vec::new();
        for (track, stat) in self.resources.borrow().by_name() {
            let Some(start) = stat.window_start else {
                continue;
            };
            let elapsed = stat.window_end.saturating_sub(start);
            let budget = (stat.capacity as u64).saturating_mul(elapsed);
            if stat.capacity > 0 && stat.serve_ns > budget {
                pending.push((
                    Invariant::UtilizationBound,
                    format!(
                        "resource '{track}': busy {} ns over {} ns with {} slot(s) \
                         (max {} ns)",
                        stat.serve_ns, elapsed, stat.capacity, budget
                    ),
                ));
            }
        }
        for (inv, msg) in pending {
            self.violate(inv, msg);
        }
    }

    /// Runs the end-of-run balance checks and returns every violation
    /// recorded by this session. Call after the `Sim` has been dropped
    /// (task teardown releases held permits). Idempotent-ish: the
    /// balance sweep runs once.
    pub fn finish(&self) -> Vec<Violation> {
        if !self.finished.replace(true) {
            self.finish_checks();
        }
        self.violations()
    }

    fn finish_checks(&self) {
        self.check_utilization();
        let mut pending: Vec<(Invariant, String)> = Vec::new();
        for (track, stat) in self.resources.borrow().by_name() {
            if stat.in_flight != 0 || stat.acquires != stat.releases {
                pending.push((
                    Invariant::AcquireReleaseBalance,
                    format!(
                        "resource '{track}': {} acquires vs {} releases \
                         ({} still in flight) at end of run",
                        stat.acquires, stat.releases, stat.in_flight
                    ),
                ));
            }
        }
        for (name, f) in self.links.borrow().by_name() {
            if f.in_ops != f.out_ops + f.dropped_ops || f.in_bytes != f.out_bytes + f.dropped_bytes
            {
                pending.push((
                    Invariant::LinkConservation,
                    format!(
                        "link '{name}': {} frames/{} B in, {} frames/{} B delivered, \
                         {} frames/{} B dropped",
                        f.in_ops,
                        f.in_bytes,
                        f.out_ops,
                        f.out_bytes,
                        f.dropped_ops,
                        f.dropped_bytes
                    ),
                ));
            }
        }
        for (site, f) in self.ssd.borrow().by_name() {
            if f.in_ops != f.out_ops + f.dropped_ops {
                pending.push((
                    Invariant::SsdConservation,
                    format!(
                        "ssd '{site}': {} ops admitted, {} completed, {} errored",
                        f.in_ops, f.out_ops, f.dropped_ops
                    ),
                ));
            }
        }
        for (name, f) in self.pcie.borrow().by_name() {
            if f.in_ops != f.out_ops || f.in_bytes != f.out_bytes {
                pending.push((
                    Invariant::PcieConservation,
                    format!(
                        "pcie '{name}': {} ops/{} B in vs {} ops/{} B out",
                        f.in_ops, f.in_bytes, f.out_ops, f.out_bytes
                    ),
                ));
            }
        }
        for (shard, f) in self.cluster.borrow().by_name() {
            if f.in_ops != f.out_ops + f.dropped_ops || f.in_bytes != f.out_bytes + f.dropped_bytes
            {
                pending.push((
                    Invariant::ClusterConservation,
                    format!(
                        "cluster shard '{shard}': {} ops/{} B issued, {} ops/{} B completed, \
                         {} ops/{} B failed-or-shed",
                        f.in_ops,
                        f.in_bytes,
                        f.out_ops,
                        f.out_bytes,
                        f.dropped_ops,
                        f.dropped_bytes
                    ),
                ));
            }
        }
        for (site, f) in self.fabric.borrow().by_name() {
            if f.sent_msgs != f.delivered_msgs || f.sent_bytes != f.delivered_bytes {
                pending.push((
                    Invariant::FabricConservation,
                    format!(
                        "fabric '{site}': {} msgs/{} B sent vs {} msgs/{} B delivered \
                         at end of run",
                        f.sent_msgs, f.sent_bytes, f.delivered_msgs, f.delivered_bytes
                    ),
                ));
            }
            if f.credits_returned > f.credits_consumed {
                pending.push((
                    Invariant::FabricConservation,
                    format!(
                        "fabric '{site}': {} credits returned exceed {} consumed",
                        f.credits_returned, f.credits_consumed
                    ),
                ));
            }
        }
        for (group, stat) in self.repl.borrow().iter() {
            // Non-deposed replicas of one group must agree on live KV
            // state. Digests are reported by the cluster after quiesce
            // (deposed replicas excluded — they are fenced out forever
            // and legitimately diverge).
            if let Some((first_replica, e0, b0, c0)) = stat.digests.first().copied() {
                for &(replica, e, b, c) in &stat.digests[1..] {
                    if (e, b, c) != (e0, b0, c0) {
                        pending.push((
                            Invariant::ReplicaDivergence,
                            format!(
                                "group {group}: replica {replica} digest \
                                 ({e} entries/{b} B/chk {c:#x}) diverges from replica \
                                 {first_replica} ({e0} entries/{b0} B/chk {c0:#x})"
                            ),
                        ));
                    }
                }
            }
        }
        for (tenant, t) in self.tenants.borrow().by_name() {
            if t.issued_ops != t.resolved_ops() || t.issued_bytes != t.resolved_bytes() {
                pending.push((
                    Invariant::TenantConservation,
                    format!(
                        "tenant '{tenant}': {} ops/{} B issued, {} ok, {} shed, \
                         {} failed ({} ops/{} B resolved) at end of run",
                        t.issued_ops,
                        t.issued_bytes,
                        t.ok_ops,
                        t.shed_ops,
                        t.failed_ops,
                        t.resolved_ops(),
                        t.resolved_bytes()
                    ),
                ));
            }
            if t.granted != t.dispatched {
                pending.push((
                    Invariant::QosIsolation,
                    format!(
                        "tenant '{tenant}': {} scheduler grants vs {} fabric \
                         dispatches at end of run",
                        t.granted, t.dispatched
                    ),
                ));
            }
        }
        {
            let injected = self.faults_injected.borrow();
            let handled = self.faults_handled.borrow();
            for site in FAULTS_REQUIRING_HANDLING {
                let inj = injected.get(site).copied().unwrap_or(0);
                let han: u64 = handled
                    .iter()
                    .filter(|((s, _), _)| *s == site)
                    .map(|(_, n)| *n)
                    .sum();
                if han < inj {
                    pending.push((
                        Invariant::FaultHygiene,
                        format!(
                            "fault '{site}': {inj} injected but only {han} \
                             retried/degraded/surfaced"
                        ),
                    ));
                }
            }
        }
        for (inv, msg) in pending {
            self.violate(inv, msg);
        }
    }

    /// One-paragraph accounting report (stable ordering; suitable for
    /// golden summaries).
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("conformance:");
        let res = self.resources.borrow();
        let total_acq: u64 = res.values().map(|r| r.acquires).sum();
        let links = self.links.borrow();
        let link_in: u64 = links.values().map(|f| f.in_bytes).sum();
        let link_drop: u64 = links.values().map(|f| f.dropped_bytes).sum();
        let ssd = self.ssd.borrow();
        let ssd_ops: u64 = ssd.values().map(|f| f.in_ops).sum();
        let ssd_err: u64 = ssd.values().map(|f| f.dropped_ops).sum();
        let pcie = self.pcie.borrow();
        let dma: u64 = pcie.values().map(|f| f.in_bytes).sum();
        let inj: u64 = self.faults_injected.borrow().values().sum();
        let _ = write!(
            out,
            " resources={} acquires={total_acq} link_bytes={link_in} \
             link_dropped_bytes={link_drop} ssd_ops={ssd_ops} ssd_errors={ssd_err} \
             dma_bytes={dma} kernels_checked={} faults_injected={inj} violations={}",
            res.len(),
            self.kernels_checked.get(),
            self.violations.borrow().len(),
        );
        // Cluster accounting joins the report only when a cluster ran —
        // single-server golden summaries stay byte-identical.
        let cluster = self.cluster.borrow();
        let cluster_ops: u64 = cluster.values().map(|f| f.in_ops).sum();
        if cluster_ops > 0 {
            let cluster_shed: u64 = cluster.values().map(|f| f.dropped_ops).sum();
            let _ = write!(
                out,
                " cluster_shards={} cluster_ops={cluster_ops} cluster_shed={cluster_shed}",
                cluster.len(),
            );
        }
        // Fabric accounting likewise only appears when a non-TCP fabric
        // actually moved traffic, so pre-fabric goldens are untouched.
        let fabric = self.fabric.borrow();
        let fabric_msgs: u64 = fabric.values().map(|f| f.sent_msgs).sum();
        if fabric_msgs > 0 {
            let fabric_bytes: u64 = fabric.values().map(|f| f.sent_bytes).sum();
            let outstanding: u64 = fabric
                .values()
                .map(|f| f.credits_consumed.saturating_sub(f.credits_returned))
                .sum();
            let _ = write!(
                out,
                " fabric_sites={} fabric_msgs={fabric_msgs} fabric_bytes={fabric_bytes} \
                 fabric_credit_debt={outstanding}",
                fabric.len(),
            );
        }
        // Tenant/QoS accounting only appears when a gateway labeled
        // traffic, so pre-gateway goldens are untouched.
        let tenants = self.tenants.borrow();
        let tenant_ops: u64 = tenants.values().map(|t| t.issued_ops).sum();
        if tenant_ops > 0 {
            let tenant_ok: u64 = tenants.values().map(|t| t.ok_ops).sum();
            let tenant_shed: u64 = tenants.values().map(|t| t.shed_ops).sum();
            let grants: u64 = tenants.values().map(|t| t.granted).sum();
            let _ = write!(
                out,
                " tenants={} tenant_ops={tenant_ops} tenant_ok={tenant_ok} \
                 tenant_shed={tenant_shed} qos_grants={grants}",
                tenants.len(),
            );
        }
        // Replication accounting only appears when a replicated cluster
        // ran, so unreplicated goldens are untouched.
        let repl = self.repl.borrow();
        let repl_acked: u64 = repl.values().map(|g| g.acked).sum();
        let repl_transitions: u64 = repl.values().map(|g| g.transitions).sum();
        if repl_acked + repl_transitions > 0 {
            let _ = write!(
                out,
                " repl_groups={} repl_acked={repl_acked} repl_epoch_transitions={repl_transitions}",
                repl.len(),
            );
        }
        out
    }

    // ---- check-point recording -------------------------------------

    fn note_now(&self) {
        if let Some(t) = try_now() {
            self.observe_time(t);
        }
    }

    fn flow_in(&self, map: &RefCell<SiteMap<FlowStat>>, site: Site, bytes: u64) {
        let mut map = map.borrow_mut();
        let f = map.entry(site);
        f.in_ops += 1;
        f.in_bytes += bytes;
        drop(map);
        self.note_now();
    }

    fn flow_out(
        &self,
        map: &RefCell<SiteMap<FlowStat>>,
        invariant: Invariant,
        site: Site,
        bytes: u64,
        dropped: bool,
    ) {
        let mut overdraft = None;
        {
            let mut map = map.borrow_mut();
            let f = map.entry(site);
            if dropped {
                f.dropped_ops += 1;
                f.dropped_bytes += bytes;
            } else {
                f.out_ops += 1;
                f.out_bytes += bytes;
            }
            if f.out_ops + f.dropped_ops > f.in_ops || f.out_bytes + f.dropped_bytes > f.in_bytes {
                overdraft = Some(format!(
                    "site '{site}': {} ops/{} B out exceeds {} ops/{} B in",
                    f.out_ops + f.dropped_ops,
                    f.out_bytes + f.dropped_bytes,
                    f.in_ops,
                    f.in_bytes
                ));
            }
        }
        if let Some(msg) = overdraft {
            self.violate(invariant, msg);
        }
    }
}

impl Probe for CheckSession {
    fn span(&self, track: Site, name: &'static str, start: Time, end: Time) {
        if end < start {
            self.violate(
                Invariant::SpanCausality,
                format!("span '{name}' on '{track}' ends at {end} before its start {start}"),
            );
            return;
        }
        if let Some(now) = try_now() {
            if end > now {
                self.violate(
                    Invariant::SpanCausality,
                    format!("span '{name}' on '{track}' dated {end}, after now={now}"),
                );
                return;
            }
        }
        if name == "serve" {
            let mut res = self.resources.borrow_mut();
            let stat = res.entry(track);
            stat.serve_ns += end - start;
            stat.window_start = Some(stat.window_start.unwrap_or(start).min(start));
            stat.window_end = stat.window_end.max(end);
        }
        self.note_now();
    }

    fn acquire(&self, track: Site, capacity: usize, in_flight: usize) {
        let mut over = false;
        {
            let mut res = self.resources.borrow_mut();
            let stat = res.entry(track);
            stat.capacity = stat.capacity.max(capacity);
            stat.in_flight = in_flight;
            stat.acquires += 1;
            if in_flight > capacity {
                over = true;
            }
        }
        if over {
            self.violate(
                Invariant::CapacityBound,
                format!("resource '{track}': {in_flight} permits in flight, capacity {capacity}"),
            );
        }
        self.note_now();
    }

    fn release(&self, track: Site, in_flight: usize) {
        let mut res = self.resources.borrow_mut();
        let stat = res.entry(track);
        stat.in_flight = in_flight;
        stat.releases += 1;
    }

    fn advance(&self, from: Time, to: Time) {
        if to < from {
            self.violate(
                Invariant::TimeMonotonic,
                format!("executor advanced the clock backwards: {from} -> {to}"),
            );
            return;
        }
        if from < self.last_time.get() {
            // A fresh Sim restarted the clock: epoch boundary.
            self.epoch_reset(from);
        } else {
            self.observe_time(from);
        }
        self.observe_time(to);
    }

    fn epoch(&self) {
        // Announced by `Sim::new`: the clock restarts at zero before any
        // event of the new run is delivered.
        self.epoch_reset(0);
    }
}

/// RAII wrapper: installs a strict [`CheckSession`] on construction;
/// on drop runs [`CheckSession::finish`], uninstalls, and panics if any
/// violation was recorded (unless the thread is already panicking).
///
/// The guard must outlive the simulation, so the permits its tasks
/// hold are released before the balance sweeps run.
/// `dpdpu_des::block_on` tears its `Sim` down before it returns:
///
/// ```
/// let _check = dpdpu_check::CheckGuard::new();
/// dpdpu_des::block_on(async {
///     // ... the workload ...
/// });
/// ```
pub struct CheckGuard {
    session: Rc<CheckSession>,
}

impl CheckGuard {
    /// Installs a strict session and returns the guard.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        CheckGuard {
            session: CheckSession::install(),
        }
    }

    /// The underlying session (e.g. for [`CheckSession::report`]).
    pub fn session(&self) -> &Rc<CheckSession> {
        &self.session
    }
}

impl Drop for CheckGuard {
    fn drop(&mut self) {
        let violations = self.session.finish();
        CheckSession::uninstall();
        if !violations.is_empty() && !std::thread::panicking() {
            let list: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
            panic!(
                "dpdpu-check: {} invariant violation(s) at end of run:\n  {}",
                violations.len(),
                list.join("\n  ")
            );
        }
    }
}

// ---- free check-point functions (no-ops without a session) ---------

fn with_session(f: impl FnOnce(&CheckSession)) {
    CURRENT.with(|c| {
        if let Some(s) = c.borrow().as_ref() {
            f(s);
        }
    });
}

/// True when a conformance session is installed on this thread.
/// Engines consult this before doing expensive ground-truth work
/// (e.g. decompressing a kernel's output to validate a roundtrip).
pub fn is_active() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// A frame of `bytes` entered the named link.
pub fn link_in(link: Site, bytes: u64) {
    with_session(|s| s.flow_in(&s.links, link, bytes));
}

/// A frame of `bytes` left the named link toward its receiver.
pub fn link_delivered(link: Site, bytes: u64) {
    with_session(|s| s.flow_out(&s.links, Invariant::LinkConservation, link, bytes, false));
}

/// A frame of `bytes` was dropped by the named link (loss model or
/// injected fault).
pub fn link_dropped(link: Site, bytes: u64) {
    with_session(|s| s.flow_out(&s.links, Invariant::LinkConservation, link, bytes, true));
}

/// An SSD op of `bytes` was admitted past the device queue.
/// `site` should identify device + direction, e.g. `"nvme0.read"`.
pub fn ssd_in(site: Site, bytes: u64) {
    with_session(|s| s.flow_in(&s.ssd, site, bytes));
}

/// An admitted SSD op completed successfully.
pub fn ssd_done(site: Site, bytes: u64) {
    with_session(|s| s.flow_out(&s.ssd, Invariant::SsdConservation, site, bytes, false));
}

/// An admitted SSD op completed with a device error.
pub fn ssd_failed(site: Site, bytes: u64) {
    with_session(|s| s.flow_out(&s.ssd, Invariant::SsdConservation, site, bytes, true));
}

/// A DMA of `bytes` entered the named PCIe link.
pub fn pcie_in(link: Site, bytes: u64) {
    with_session(|s| s.flow_in(&s.pcie, link, bytes));
}

/// A DMA of `bytes` fully crossed the named PCIe link.
pub fn pcie_done(link: Site, bytes: u64) {
    with_session(|s| s.flow_out(&s.pcie, Invariant::PcieConservation, link, bytes, false));
}

/// A cluster request of `bytes` was issued to the named shard
/// (`site` is the shard's stable label, e.g. `"node0"`).
pub fn cluster_op_issued(site: Site, bytes: u64) {
    with_session(|s| s.flow_in(&s.cluster, site, bytes));
}

/// An issued cluster request completed successfully.
pub fn cluster_op_ok(site: Site, bytes: u64) {
    let inv = Invariant::ClusterConservation;
    with_session(|s| s.flow_out(&s.cluster, inv, site, bytes, false));
}

/// An issued cluster request terminated without a result: a terminal
/// client error or an admission-control shed.
pub fn cluster_op_failed(site: Site, bytes: u64) {
    let inv = Invariant::ClusterConservation;
    with_session(|s| s.flow_out(&s.cluster, inv, site, bytes, true));
}

/// A fabric connection direction opened with a credit window of
/// `window` data messages. Reusing a site label adds the new window to
/// the site's budget (each connection instance brings its own posted
/// receives).
pub fn fabric_conn_open(site: Site, window: u64) {
    with_session(|s| {
        s.fabric.borrow_mut().entry(site).window += window;
        s.note_now();
    });
}

/// The fabric sender committed a data message of `bytes` to the wire
/// path for `site` (one direction of one connection).
pub fn fabric_msg_sent(site: Site, bytes: u64) {
    with_session(|s| {
        let mut map = s.fabric.borrow_mut();
        let f = map.entry(site);
        f.sent_msgs += 1;
        f.sent_bytes += bytes;
        s.note_now();
    });
}

/// The fabric receiver handed a data message of `bytes` to the
/// application for `site`. Flags delivery overdraft immediately.
pub fn fabric_msg_delivered(site: Site, bytes: u64) {
    with_session(|s| {
        let mut overdraft = None;
        {
            let mut map = s.fabric.borrow_mut();
            let f = map.entry(site);
            f.delivered_msgs += 1;
            f.delivered_bytes += bytes;
            if f.delivered_msgs > f.sent_msgs || f.delivered_bytes > f.sent_bytes {
                overdraft = Some(format!(
                    "fabric '{site}': {} msgs/{} B delivered exceeds {} msgs/{} B sent",
                    f.delivered_msgs, f.delivered_bytes, f.sent_msgs, f.sent_bytes
                ));
            }
        }
        if let Some(msg) = overdraft {
            s.violate(Invariant::FabricConservation, msg);
        }
    });
}

/// The fabric sender spent `n` credits for `site`. Flags a window
/// overrun immediately: outstanding debt must never exceed the
/// advertised window, or posted receives could underflow.
pub fn fabric_credit_consumed(site: Site, n: u64) {
    with_session(|s| {
        let mut overrun = None;
        {
            let mut map = s.fabric.borrow_mut();
            let f = map.entry(site);
            f.credits_consumed += n;
            let debt = f.credits_consumed.saturating_sub(f.credits_returned);
            if debt > f.window {
                overrun = Some(format!(
                    "fabric '{site}': credit debt {debt} exceeds window {} \
                     ({} consumed, {} returned)",
                    f.window, f.credits_consumed, f.credits_returned
                ));
            }
        }
        if let Some(msg) = overrun {
            s.violate(Invariant::FabricConservation, msg);
        }
    });
}

/// The receiver granted `n` credits back to the sender for `site`.
/// Flags over-return immediately: the receiver cannot return credit it
/// was never given.
pub fn fabric_credit_returned(site: Site, n: u64) {
    with_session(|s| {
        let mut over = None;
        {
            let mut map = s.fabric.borrow_mut();
            let f = map.entry(site);
            f.credits_returned += n;
            if f.credits_returned > f.credits_consumed {
                over = Some(format!(
                    "fabric '{site}': {} credits returned exceed {} consumed",
                    f.credits_returned, f.credits_consumed
                ));
            }
        }
        if let Some(msg) = over {
            s.violate(Invariant::FabricConservation, msg);
        }
    });
}

/// A replica group's epoch advanced to `epoch` (a failover promotion
/// or a solo-commit grant). Flags immediately unless strictly above
/// every epoch previously seen for the group.
pub fn repl_epoch_advanced(group: usize, epoch: u64) {
    with_session(|s| {
        let mut stale = None;
        {
            let mut map = s.repl.borrow_mut();
            let g = map.entry(group).or_default();
            g.transitions += 1;
            if epoch <= g.max_epoch {
                stale = Some(format!(
                    "group {group}: epoch advanced to {epoch}, not above the \
                     group maximum {}",
                    g.max_epoch
                ));
            } else {
                g.max_epoch = epoch;
            }
        }
        if let Some(msg) = stale {
            s.violate(Invariant::EpochFencing, msg);
        }
        s.note_now();
    });
}

/// A write committed through the replication protocol at `epoch`
/// (recorded at the commit point: the backup's chain apply, or the
/// primary's solo commit). Flags immediately when `epoch` is below the
/// group's fence — a resurrected stale primary acking a write the
/// surviving chain does not hold.
pub fn repl_write_acked(group: usize, epoch: u64) {
    with_session(|s| {
        let mut stale = None;
        {
            let mut map = s.repl.borrow_mut();
            let g = map.entry(group).or_default();
            g.acked += 1;
            if epoch < g.max_epoch {
                stale = Some(format!(
                    "group {group}: write acked at stale epoch {epoch}, group \
                     fence is {}",
                    g.max_epoch
                ));
            } else {
                g.max_epoch = g.max_epoch.max(epoch);
            }
        }
        if let Some(msg) = stale {
            s.violate(Invariant::EpochFencing, msg);
        }
        s.note_now();
    });
}

/// A live replica's end-of-run KV digest: `entries` live records,
/// `bytes` of live values, and a content `checksum`. Digests of one
/// group are compared in the finish sweep; report only non-deposed
/// replicas (deposed ones are fenced out and legitimately diverge).
pub fn replica_digest(group: usize, replica: usize, entries: u64, bytes: u64, checksum: u64) {
    with_session(|s| {
        s.repl
            .borrow_mut()
            .entry(group)
            .or_default()
            .digests
            .push((replica, entries, bytes, checksum));
    });
}

/// A compute kernel executed: `err` carries a ground-truth mismatch
/// description (`None` = output validated clean).
pub fn kernel_result(kind: &'static str, in_bytes: usize, out_bytes: usize, err: Option<String>) {
    with_session(|s| {
        s.kernels_checked.set(s.kernels_checked.get() + 1);
        if let Some(msg) = err {
            s.violate(
                Invariant::KernelGroundTruth,
                format!("kernel '{kind}' ({in_bytes} B in, {out_bytes} B out): {msg}"),
            );
        }
    });
}

/// The fault layer injected a fault at `site` (its stable label,
/// e.g. `"ssd_read"`).
pub fn fault_injected(site: &'static str) {
    with_session(|s| {
        *s.faults_injected.borrow_mut().entry(site).or_default() += 1;
    });
}

/// A layer handled a fault at `site`: `outcome` is `"retried"`,
/// `"degraded"`, or `"surfaced"`.
pub fn fault_handled(site: &'static str, outcome: &'static str) {
    with_session(|s| {
        *s.faults_handled
            .borrow_mut()
            .entry((site, outcome))
            .or_default() += 1;
    });
}

/// A labeled request of `bytes` entered the gateway tier for `tenant`.
pub fn tenant_op_issued(tenant: Site, bytes: u64) {
    with_session(|s| {
        let mut map = s.tenants.borrow_mut();
        let t = map.entry(tenant);
        t.issued_ops += 1;
        t.issued_bytes += bytes;
        drop(map);
        s.note_now();
    });
}

fn tenant_resolved(tenant: Site, bump: impl FnOnce(&mut TenantStat)) {
    with_session(|s| {
        let mut overdraft = None;
        {
            let mut map = s.tenants.borrow_mut();
            let t = map.entry(tenant);
            bump(t);
            if t.resolved_ops() > t.issued_ops || t.resolved_bytes() > t.issued_bytes {
                overdraft = Some(format!(
                    "tenant '{tenant}': {} ops/{} B resolved exceeds {} ops/{} B issued",
                    t.resolved_ops(),
                    t.resolved_bytes(),
                    t.issued_ops,
                    t.issued_bytes
                ));
            }
        }
        if let Some(msg) = overdraft {
            s.violate(Invariant::TenantConservation, msg);
        }
    });
}

/// An issued tenant request completed successfully.
pub fn tenant_op_ok(tenant: Site, bytes: u64) {
    tenant_resolved(tenant, |t| {
        t.ok_ops += 1;
        t.ok_bytes += bytes;
    });
}

/// An issued tenant request was shed by per-tenant admission control
/// (rate limit, in-flight cap, or a downstream shard admission window).
pub fn tenant_op_shed(tenant: Site, bytes: u64) {
    tenant_resolved(tenant, |t| {
        t.shed_ops += 1;
        t.shed_bytes += bytes;
    });
}

/// An issued tenant request terminated with a non-shed error.
pub fn tenant_op_failed(tenant: Site, bytes: u64) {
    tenant_resolved(tenant, |t| {
        t.failed_ops += 1;
        t.failed_bytes += bytes;
    });
}

/// A request left the gateway at `site` without a tenant label — an
/// immediate violation: unlabeled traffic cannot be admitted, scheduled,
/// or accounted, so it must never reach the fabric.
pub fn tenant_unlabeled(site: &str) {
    with_session(|s| {
        s.violate(
            Invariant::TenantConservation,
            format!("a request left the gateway at '{site}' without a tenant label"),
        );
    });
}

/// The WFQ/DRR scheduler granted `tenant` a dispatch slot.
pub fn qos_granted(tenant: Site) {
    with_session(|s| {
        s.tenants.borrow_mut().entry(tenant).granted += 1;
        s.note_now();
    });
}

/// The gateway dispatched one of `tenant`'s requests toward the shard
/// fabric. Flags immediately when dispatches outrun scheduler grants —
/// a path that bypasses weighted-fair queueing.
pub fn tenant_dispatched(tenant: Site) {
    with_session(|s| {
        let mut bypass = None;
        {
            let mut map = s.tenants.borrow_mut();
            let t = map.entry(tenant);
            t.dispatched += 1;
            if t.dispatched > t.granted {
                bypass = Some(format!(
                    "tenant '{tenant}': {} dispatches exceed {} scheduler grants \
                     (a request bypassed the QoS scheduler)",
                    t.dispatched, t.granted
                ));
            }
        }
        if let Some(msg) = bypass {
            s.violate(Invariant::QosIsolation, msg);
        }
    });
}

#[cfg(test)]
mod tests;
