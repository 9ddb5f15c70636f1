//! # dpdpu-check — the simulation conformance layer
//!
//! The whole reproduction strategy rests on one claim: the
//! discrete-event simulation is *deterministic* and *physically
//! coherent*, so its virtual-time numbers can stand in for BlueField-2
//! measurements. This crate enforces the "physically coherent" half
//! mechanically, on every event, during every test, example, and
//! ablation run.
//!
//! A [`CheckSession`] is the checker part of the thread's one des
//! session slot, owned by a [`CheckGuard`]. It receives every des probe
//! event after the tracer (Server wait/serve spans, labeled-semaphore
//! acquire/release events, executor clock advances), and the engine
//! crates reach it through free check-point functions ([`flow_in`],
//! [`flow_out`], [`kernel_result`], [`fault_injected`], …). All
//! check-points are no-ops when no session is installed, so the
//! untraced fast path stays a single branch. With a session installed
//! a check-point is an array index: resources, links, shards and
//! tenants intern their name into a [`Site`] at construction and every
//! per-event table is a `Vec` indexed by it. Ids follow interning
//! order — OS-scheduling order under a `--jobs N` runner — so sweeps,
//! reports and messages go by name.
//!
//! ## One conservation ledger
//!
//! Seven invariants say the same thing about a different [`Flow`]: per
//! site, what entered left exactly once, through an [`Exit`]. They share
//! one ledger row per site, two check-points ([`flow_in`] and
//! [`flow_out`]), one overdraft check at the event (more left than
//! entered, in ops or bytes) and one end-of-run sweep (in ≠ the sum of
//! the exits). A new conservation invariant is a `Flow` variant.
//!
//! ## Invariant catalogue
//!
//! | invariant (as violations name it) | what it rejects |
//! |---|---|
//! | `time-monotonic` | virtual time moving backwards within one run |
//! | `span-causality` | a span ending before it starts, or dated in the future |
//! | `capacity-bound` | more permits in flight than a resource has slots |
//! | `acquire-release-balance` | an acquire without a matching release at end of run |
//! | `link-conservation` | [`Flow::Link`]: frames/bytes delivered + dropped ≠ frames/bytes sent |
//! | `ssd-conservation` | [`Flow::Ssd`]: SSD ops/bytes admitted ≠ completed + errored |
//! | `pcie-conservation` | [`Flow::Pcie`]: DMA ops/bytes entering a PCIe link ≠ those that left it |
//! | `kernel-ground-truth` | a compute kernel output that contradicts the kernels-crate ground truth |
//! | `utilization-bound` | accumulated busy time above `slots × elapsed` |
//! | `fault-hygiene` | an injected fault neither retried, degraded, nor surfaced |
//! | `cluster-conservation` | [`Flow::Cluster`]: per shard, ops/bytes issued ≠ completed + shed + failed |
//! | `fabric-conservation` | [`Flow::Fabric`]: messages/bytes delivered ≠ sent; or credit debt above the advertised window |
//! | `epoch-fencing` | a replica-group epoch that fails to strictly increase, or a write acked at an epoch below the group's fence |
//! | `replica-divergence` | live replicas of one group whose KV digests disagree at end of run |
//! | `tenant-conservation` | [`Flow::Tenant`]: per tenant, ops/bytes issued ≠ completed + shed + failed |
//! | `qos-isolation` | [`Flow::Qos`]: a dispatch toward the shard fabric without a scheduler grant, or a grant never dispatched |
//!
//! ## Modes
//!
//! * **Strict** ([`CheckGuard::new`]): a violation panics at the
//!   offending event with a precise message — the same failure mode as a
//!   debug assertion, and what every test and ablation wants.
//! * **Collecting** ([`CheckGuard::collecting`]): violations accumulate
//!   and are returned by [`CheckSession::finish`] — used by this crate's
//!   own unit tests and by meta-tests that must observe a violation
//!   without dying.
//!
//! Either guard's drop runs the end-of-run sweeps and removes the
//! session; a strict guard's drop panics on what they find. Installing a
//! second session while one is installed panics.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use dpdpu_des::probe::{self, Guard, Part, Probe};
use dpdpu_des::{try_now, Time};

pub use dpdpu_des::probe::Site;

pub mod golden;
pub mod linearizability;

/// The classes of simulation invariants enforced by this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Invariant {
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
    /// SSD ops/bytes admitted == completed + errored.
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
    /// Per tenant, nothing vanishes between entering the gateway tier
    /// and a terminal outcome: issued == completed + shed + failed, ops
    /// and bytes. (An undeclared tenant is refused before it enters.)
    TenantConservation,
    /// Every request the gateway dispatches toward the shard fabric was
    /// granted by the per-tenant QoS scheduler first — no path bypasses
    /// weighted-fair queueing — and every grant is dispatched.
    QosIsolation,
}

impl Invariant {
    /// Stable lowercase name (used in violation messages and docs).
    pub(crate) fn name(self) -> &'static str {
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
    pub(crate) invariant: Invariant,
    /// Human-readable description with the offending numbers.
    pub(crate) message: String,
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

/// A family of sites under one conservation invariant: per site, every
/// unit that [enters](flow_in) must [leave](flow_out) exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Frames onto a link: delivered, or dropped (`Failed`) by the loss
    /// model or an injected fault.
    Link,
    /// Ops admitted past an SSD's device queue (a site is device +
    /// direction, e.g. `"nvme0.read"`): completed, or errored (`Failed`).
    Ssd,
    /// DMAs onto a PCIe link: each crosses (`Ok`).
    Pcie,
    /// Requests the cluster router issued to a shard: completed, shed by
    /// the shard's admission window, or failed.
    Cluster,
    /// Data messages on one fabric connection direction: delivered.
    Fabric,
    /// Requests entering the gateway, per tenant: completed, shed by
    /// admission control (the gateway's or a shard's), or failed.
    Tenant,
    /// QoS scheduler grants, per tenant, 0 bytes each: every grant is
    /// dispatched toward the shard fabric (`Ok`), and no dispatch comes
    /// without one.
    Qos,
}

impl Flow {
    /// Every flow, in the order of the end-of-run sweep.
    const ALL: [Flow; 7] = [
        Flow::Link,
        Flow::Ssd,
        Flow::Pcie,
        Flow::Cluster,
        Flow::Fabric,
        Flow::Tenant,
        Flow::Qos,
    ];

    fn invariant(self) -> Invariant {
        match self {
            Flow::Link => Invariant::LinkConservation,
            Flow::Ssd => Invariant::SsdConservation,
            Flow::Pcie => Invariant::PcieConservation,
            Flow::Cluster => Invariant::ClusterConservation,
            Flow::Fabric => Invariant::FabricConservation,
            Flow::Tenant => Invariant::TenantConservation,
            Flow::Qos => Invariant::QosIsolation,
        }
    }

    /// What a site of this flow is called in a violation message.
    fn noun(self) -> &'static str {
        match self {
            Flow::Link => "link",
            Flow::Ssd => "ssd",
            Flow::Pcie => "pcie",
            Flow::Cluster => "cluster shard",
            Flow::Fabric => "fabric",
            Flow::Tenant => "tenant",
            Flow::Qos => "qos grants of tenant",
        }
    }
}

/// How a unit left a [`Flow`] site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// Delivered, completed, or dispatched.
    Ok,
    /// Refused by admission control: a shard's window, or a tenant's
    /// rate limit or in-flight cap.
    Shed,
    /// Lost or errored: a dropped frame, a device error, or a terminal
    /// request error.
    Failed,
}

/// A count of units and of their bytes.
#[derive(Default, Clone, Copy, PartialEq)]
struct Tally {
    ops: u64,
    bytes: u64,
}

impl Tally {
    fn count(&mut self, bytes: u64) {
        self.ops += 1;
        self.bytes += bytes;
    }

    fn plus(self, other: Tally) -> Tally {
        Tally {
            ops: self.ops + other.ops,
            bytes: self.bytes + other.bytes,
        }
    }
}

/// One flow site's row of the ledger: what entered, and what left by
/// each [`Exit`].
#[derive(Default)]
struct Ledger {
    entered: Tally,
    exits: [Tally; 3],
}

impl Ledger {
    fn exit(&self, exit: Exit) -> Tally {
        self.exits[exit as usize]
    }

    fn left(&self) -> Tally {
        self.exits.into_iter().fold(Tally::default(), Tally::plus)
    }

    /// The one message of a flow violation, at the event or at finish.
    fn violation(&self, flow: Flow, site: impl fmt::Display) -> (Invariant, String) {
        let (entered, left) = (self.entered, self.left());
        let [ok, shed, failed] = self.exits.map(|t| t.ops);
        let message = format!(
            "{} '{site}': {} ops/{} B in, {} ops/{} B out ({ok} ok, {shed} shed, {failed} failed)",
            flow.noun(),
            entered.ops,
            entered.bytes,
            left.ops,
            left.bytes,
        );
        (flow.invariant(), message)
    }
}

/// Credit accounting for one fabric connection direction; its messages
/// are [`Flow::Fabric`].
///
/// `window` accumulates across connections that reuse a site label
/// (e.g. a scenario running one sim per fabric kind): each instance
/// contributes its own credit budget, so the streaming debt bound
/// stays sound over the whole session.
#[derive(Default)]
struct CreditStat {
    window: u64,
    consumed: u64,
    returned: u64,
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

impl<V> SiteMap<V> {
    /// The stat of `site`, created on first sight — the only time a
    /// check-point may allocate (the table grows to cover the new id).
    fn entry(&mut self, site: Site) -> &mut V
    where
        V: Default,
    {
        let i = site.index();
        if i >= self.0.len() {
            self.0.resize_with(i + 1, || None);
        }
        &mut self.0[i]
            .get_or_insert_with(|| (site.name(), V::default()))
            .1
    }

    fn touched(&self, i: usize) -> bool {
        matches!(self.0.get(i), Some(Some(_)))
    }

    /// Sites touched in this table or in `other`: the site count of a
    /// family whose accounting spans two tables.
    fn len_with<W>(&self, other: &SiteMap<W>) -> usize {
        let ids = self.0.len().max(other.0.len());
        (0..ids)
            .filter(|&i| self.touched(i) || other.touched(i))
            .count()
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

/// A thread-local conformance session. See the crate docs.
#[derive(Default)]
pub struct CheckSession {
    strict: bool,
    violations: RefCell<Vec<Violation>>,
    last_time: Cell<Time>,
    resources: RefCell<SiteMap<ResourceStat>>,
    /// The conservation ledger, one table per [`Flow`] (indexed by it).
    flows: [RefCell<SiteMap<Ledger>>; Flow::ALL.len()],
    credits: RefCell<SiteMap<CreditStat>>,
    repl: RefCell<BTreeMap<usize, ReplGroupStat>>,
    kernels_checked: Cell<u64>,
    faults_injected: Cell<u64>,
    /// Injections per site that carry a handling obligation.
    faults_owed: RefCell<BTreeMap<&'static str, u64>>,
    faults_handled: RefCell<BTreeMap<(&'static str, &'static str), u64>>,
    finished: Cell<bool>,
}

impl CheckSession {
    /// Violations recorded so far (strict sessions panic before
    /// recording a second one, collecting sessions accumulate).
    pub(crate) fn violations(&self) -> Vec<Violation> {
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
        for flow in Flow::ALL {
            for (site, ledger) in self.ledger(flow).borrow().by_name() {
                if ledger.left() != ledger.entered {
                    pending.push(ledger.violation(flow, site));
                }
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
        {
            let handled = self.faults_handled.borrow();
            for (&site, &inj) in self.faults_owed.borrow().iter() {
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
        let entered = |flow| self.total(flow, |l| l.entered);
        let exited = |flow, exit| self.total(flow, move |l| l.exit(exit));
        let inj = self.faults_injected.get();
        let _ = write!(
            out,
            " resources={} acquires={total_acq} link_bytes={} link_dropped_bytes={} \
             ssd_ops={} ssd_errors={} dma_bytes={} kernels_checked={} faults_injected={inj} \
             violations={}",
            res.len(),
            entered(Flow::Link).bytes,
            exited(Flow::Link, Exit::Failed).bytes,
            entered(Flow::Ssd).ops,
            exited(Flow::Ssd, Exit::Failed).ops,
            entered(Flow::Pcie).bytes,
            self.kernels_checked.get(),
            self.violations.borrow().len(),
        );
        // Cluster accounting joins the report only when a cluster ran —
        // single-server golden summaries stay byte-identical.
        let cluster_ops = entered(Flow::Cluster).ops;
        if cluster_ops > 0 {
            let _ = write!(
                out,
                " cluster_shards={} cluster_ops={cluster_ops} cluster_shed={}",
                self.ledger(Flow::Cluster).borrow().len(),
                exited(Flow::Cluster, Exit::Shed).ops + exited(Flow::Cluster, Exit::Failed).ops,
            );
        }
        // Fabric accounting likewise only appears when a non-TCP fabric
        // actually moved traffic, so pre-fabric goldens are untouched.
        let fabric = entered(Flow::Fabric);
        if fabric.ops > 0 {
            let credits = self.credits.borrow();
            let debt: u64 = credits
                .values()
                .map(|c| c.consumed.saturating_sub(c.returned))
                .sum();
            let _ = write!(
                out,
                " fabric_sites={} fabric_msgs={} fabric_bytes={} fabric_credit_debt={debt}",
                credits.len_with(&self.ledger(Flow::Fabric).borrow()),
                fabric.ops,
                fabric.bytes,
            );
        }
        // Tenant/QoS accounting only appears when a gateway labeled
        // traffic, so pre-gateway goldens are untouched.
        let tenant_ops = entered(Flow::Tenant).ops;
        if tenant_ops > 0 {
            let _ = write!(
                out,
                " tenants={} tenant_ops={tenant_ops} tenant_ok={} tenant_shed={} qos_grants={}",
                self.ledger(Flow::Tenant)
                    .borrow()
                    .len_with(&self.ledger(Flow::Qos).borrow()),
                exited(Flow::Tenant, Exit::Ok).ops,
                exited(Flow::Tenant, Exit::Shed).ops,
                entered(Flow::Qos).ops,
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

    fn ledger(&self, flow: Flow) -> &RefCell<SiteMap<Ledger>> {
        &self.flows[flow as usize]
    }

    /// One tally of `flow`'s ledger rows, summed over its sites.
    fn total(&self, flow: Flow, tally: impl Fn(&Ledger) -> Tally) -> Tally {
        let rows = self.ledger(flow).borrow();
        rows.values().map(tally).fold(Tally::default(), Tally::plus)
    }

    fn flow_in(&self, flow: Flow, site: Site, bytes: u64) {
        self.ledger(flow)
            .borrow_mut()
            .entry(site)
            .entered
            .count(bytes);
        self.note_now();
    }

    /// The one overdraft check: flags at the event when more has left a
    /// site than entered it, in ops or in bytes.
    fn flow_out(&self, flow: Flow, site: Site, exit: Exit, bytes: u64) {
        let overdraft = {
            let mut rows = self.ledger(flow).borrow_mut();
            let ledger = rows.entry(site);
            ledger.exits[exit as usize].count(bytes);
            let (entered, left) = (ledger.entered, ledger.left());
            (left.ops > entered.ops || left.bytes > entered.bytes)
                .then(|| ledger.violation(flow, site))
        };
        if let Some((invariant, message)) = overdraft {
            self.violate(invariant, message);
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

/// Owns the thread's [`CheckSession`]: installs it as the des probe
/// checker on construction; on drop runs [`CheckSession::finish`],
/// removes it, and — for a strict session — panics if any violation was
/// recorded (unless the thread is already panicking).
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
///
/// # Panics
///
/// On construction, if a session is already installed on this thread.
pub struct CheckGuard(Guard<CheckSession>);

impl CheckGuard {
    /// Installs a strict session: a violation panics at the offending
    /// event.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Self::install(true)
    }

    /// Installs a collecting session: violations accumulate for
    /// [`CheckSession::finish`], and the drop does not panic on them.
    /// For tests that assert *on* violations.
    pub fn collecting() -> Self {
        Self::install(false)
    }

    fn install(strict: bool) -> Self {
        let session = CheckSession {
            strict,
            ..Default::default()
        };
        CheckGuard(Guard::sink(Part::Checker, session))
    }

    /// The underlying session (e.g. for [`CheckSession::report`]).
    pub fn session(&self) -> &Rc<CheckSession> {
        &self.0
    }
}

impl Drop for CheckGuard {
    fn drop(&mut self) {
        let violations = self.0.finish();
        if self.0.strict && !violations.is_empty() && !std::thread::panicking() {
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
    probe::with(Part::Checker, f);
}

/// True when a conformance session is installed on this thread.
/// Engines consult this before doing expensive ground-truth work
/// (e.g. decompressing a kernel's output to validate a roundtrip).
pub fn is_active() -> bool {
    probe::with(Part::Checker, |_: &CheckSession| ()).is_some()
}

/// A unit of `bytes` entered `site` of `flow`: a frame onto a link, an
/// SSD op past the device queue, a DMA onto a PCIe link, a request to a
/// shard or into the gateway, a fabric data message, a scheduler grant.
pub fn flow_in(flow: Flow, site: Site, bytes: u64) {
    with_session(|s| s.flow_in(flow, site, bytes));
}

/// A unit of `bytes` left `site` of `flow` through `exit`. Flags at
/// the event when more has left the site than entered it.
pub fn flow_out(flow: Flow, site: Site, exit: Exit, bytes: u64) {
    with_session(|s| s.flow_out(flow, site, exit, bytes));
}

/// A fabric connection direction opened with a credit window of
/// `window` data messages. Reusing a site label adds the new window to
/// the site's budget (each connection instance brings its own posted
/// receives).
pub fn fabric_conn_open(site: Site, window: u64) {
    with_session(|s| {
        s.credits.borrow_mut().entry(site).window += window;
        s.note_now();
    });
}

/// The fabric sender spent `n` credits for `site`. Flags a window
/// overrun immediately: outstanding debt must never exceed the
/// advertised window, or posted receives could underflow.
pub fn fabric_credit_consumed(site: Site, n: u64) {
    with_session(|s| {
        let mut overrun = None;
        {
            let mut map = s.credits.borrow_mut();
            let c = map.entry(site);
            c.consumed += n;
            let debt = c.consumed.saturating_sub(c.returned);
            if debt > c.window {
                overrun = Some(format!(
                    "fabric '{site}': credit debt {debt} exceeds window {} \
                     ({} consumed, {} returned)",
                    c.window, c.consumed, c.returned
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
            let mut map = s.credits.borrow_mut();
            let c = map.entry(site);
            c.returned += n;
            if c.returned > c.consumed {
                over = Some(format!(
                    "fabric '{site}': {} credits returned exceed {} consumed",
                    c.returned, c.consumed
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
/// e.g. `"ssd_read"`). `must_be_handled`: some layer owes it a
/// [`fault_handled`] (the fault layer's `FaultSite::must_be_handled`);
/// the others only stretch completion time.
pub fn fault_injected(site: &'static str, must_be_handled: bool) {
    with_session(|s| {
        s.faults_injected.set(s.faults_injected.get() + 1);
        if must_be_handled {
            *s.faults_owed.borrow_mut().entry(site).or_default() += 1;
        }
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

#[cfg(test)]
mod tests;
