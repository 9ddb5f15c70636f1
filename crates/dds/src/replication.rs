//! Per-shard replication control plane.
//!
//! Each shard of a replicated [`crate::cluster::DdsCluster`] is a
//! *replica group*: one primary and one (or more) backups, each a full
//! [`crate::server::Dds`] on its own platform. Writes chain
//! primary→backup over a dedicated fabric connection before acking;
//! reads serve from the primary. Membership is epoch-fenced: every
//! epoch transition (failover promotion, or a primary deposing an
//! unreachable backup to continue solo) strictly increases the group
//! epoch, and a replica fenced at epoch `e` rejects replication traffic
//! stamped with any older epoch ([`crate::proto::ErrorCode::StaleEpoch`]),
//! so a resurrected stale primary can never ack a write the surviving
//! chain does not hold.
//!
//! The [`ReplGroupCtl`] here is the group's shared source of truth —
//! the simulation stand-in for an external membership service. Its
//! methods are synchronous and run on the single simulation thread, so
//! a promotion and a solo-commit grant racing over the same group
//! serialize deterministically: whichever runs first wins, and the
//! loser is refused.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use dpdpu_des::{Counter, Permit, Semaphore};

use crate::proto::{ErrorCode, Reply};

/// Stripes of a primary's per-key chain order: a key's commits queue on
/// stripe `key % CHAIN_STRIPES`. Two keys that share a stripe only
/// serialize; they never reorder.
const CHAIN_STRIPES: usize = 64;

/// Shared control state for one replica group (one logical shard).
pub struct ReplGroupCtl {
    /// Group index (= shard index in the cluster).
    pub(crate) group: usize,
    /// Current group epoch; every transition strictly increases it.
    epoch: Cell<u64>,
    /// Which replica currently serves as primary.
    primary: Cell<usize>,
    /// Replicas fenced out of the group forever (a deposed replica is
    /// never promoted and never accepted back into the chain).
    deposed: RefCell<Vec<bool>>,
    /// Per-replica fence epochs, shared with each server's
    /// [`ReplRole`]: a replica rejects replication writes below its
    /// fence. Raised directly by the control plane on promotion — the
    /// simulation analogue of fencing through a lease service.
    fences: Vec<Rc<Cell<u64>>>,
    /// Failovers performed (promotions, not solo grants).
    pub promotions: Counter,
}

impl ReplGroupCtl {
    /// A fresh group of `replicas` members; replica 0 is the initial
    /// primary and the group starts at epoch 1.
    pub(crate) fn new(group: usize, replicas: usize) -> Rc<Self> {
        assert!(replicas >= 1, "a group needs at least one replica");
        Rc::new(ReplGroupCtl {
            group,
            epoch: Cell::new(1),
            primary: Cell::new(0),
            deposed: RefCell::new(vec![false; replicas]),
            fences: (0..replicas).map(|_| Rc::new(Cell::new(0))).collect(),
            promotions: Counter::new(),
        })
    }

    /// Current group epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.get()
    }

    /// Index of the current primary.
    pub fn primary(&self) -> usize {
        self.primary.get()
    }

    /// True when `replica` has been fenced out of the group.
    pub fn is_deposed(&self, replica: usize) -> bool {
        self.deposed.borrow()[replica]
    }

    /// The fence cell shared with `replica`'s server role.
    pub(crate) fn fence_of(&self, replica: usize) -> Rc<Cell<u64>> {
        self.fences[replica].clone()
    }

    fn advance_epoch(&self) -> u64 {
        let e = self.epoch.get() + 1;
        self.epoch.set(e);
        dpdpu_check::repl_epoch_advanced(self.group, e);
        e
    }

    /// Failover: depose the current primary and promote the next
    /// non-deposed replica at a new epoch, raising the promoted
    /// replica's fence so stale replication traffic is rejected.
    /// Returns `(new_primary, new_epoch)`, or `None` when no live
    /// candidate exists (the caller keeps retrying the old primary
    /// until its crash window ends).
    pub(crate) fn promote(&self) -> Option<(usize, u64)> {
        let old = self.primary.get();
        let candidate = {
            let deposed = self.deposed.borrow();
            (0..deposed.len()).find(|&i| i != old && !deposed[i])?
        };
        self.deposed.borrow_mut()[old] = true;
        let e = self.advance_epoch();
        self.primary.set(candidate);
        self.fences[candidate].set(e);
        self.promotions.inc();
        Some((candidate, e))
    }

    /// A primary that cannot reach its backup asks to continue solo:
    /// the backup is deposed and the group epoch advances so the
    /// deposed backup can never be promoted over the solo commits.
    /// Refused (`None`) when the caller is no longer the primary —
    /// i.e. a failover already promoted past it. Idempotent: a primary
    /// already solo gets the current epoch back, so every concurrent
    /// commit that finds the backup unreachable shares one transition.
    pub(crate) fn solo_grant(&self, me: usize) -> Option<u64> {
        if self.primary.get() != me || self.deposed.borrow()[me] {
            return None;
        }
        if self.primary_is_solo() {
            return Some(self.epoch.get());
        }
        {
            let mut deposed = self.deposed.borrow_mut();
            for (i, d) in deposed.iter_mut().enumerate() {
                if i != me {
                    *d = true;
                }
            }
        }
        let e = self.advance_epoch();
        self.fences[me].set(e);
        Some(e)
    }

    /// True when every replica but the primary is deposed — the
    /// primary commits alone without consulting the chain.
    pub fn primary_is_solo(&self) -> bool {
        let deposed = self.deposed.borrow();
        let primary = self.primary.get();
        deposed.iter().enumerate().all(|(i, d)| i == primary || *d)
    }
}

/// A server's membership in a replica group, attached by the cluster
/// after construction. Absent (the default) the server behaves exactly
/// as an unreplicated shard.
pub struct ReplRole {
    /// Shared group control state.
    pub(crate) ctl: Rc<ReplGroupCtl>,
    /// This server's replica index within the group.
    pub(crate) me: usize,
    /// Minimum epoch accepted on incoming replication writes; shared
    /// with (and raised by) the control plane.
    pub(crate) fence: Rc<Cell<u64>>,
    /// Chain link to the next replica, present on the initial primary
    /// (and any replica that may become one).
    pub(crate) backup: RefCell<Option<Rc<crate::server::DdsClient>>>,
    /// The per-key chain order: one permit per stripe of keys. A
    /// commit holds its key's stripe, so the backup applies two writes
    /// of one key in this primary's apply order; without it they could
    /// chain in the opposite order and leave the replicas permanently
    /// divergent. Commits of keys on different stripes overlap.
    chain_order: [Semaphore; CHAIN_STRIPES],
    /// Writes this replica chain-forwarded to its backup.
    pub(crate) chained: Counter,
    /// Writes committed solo (backup deposed or unreachable).
    pub solo_commits: Counter,
    /// Requests answered `StaleEpoch` (deposed replica, or stale
    /// replication traffic rejected by the fence).
    pub stale_rejections: Counter,
}

impl ReplRole {
    /// Builds the role for replica `me` of `ctl`'s group.
    pub(crate) fn new(ctl: Rc<ReplGroupCtl>, me: usize) -> Rc<Self> {
        let fence = ctl.fence_of(me);
        Rc::new(ReplRole {
            ctl,
            me,
            fence,
            backup: RefCell::new(None),
            chain_order: std::array::from_fn(|_| Semaphore::new(1)),
            chained: Counter::new(),
            solo_commits: Counter::new(),
            stale_rejections: Counter::new(),
        })
    }

    /// Waits for `key`'s place in the chain order; the permit holds it.
    pub(crate) async fn order_key(&self, key: u64) -> Permit {
        self.chain_order[stripe_of(key)].acquire().await
    }

    /// Waits for the places of all `keys`: each stripe once, in
    /// ascending order. A commit holds a single stripe, and every holder
    /// of several takes them in this one order, so no cycle of waits
    /// can form.
    pub(crate) async fn order_keys(&self, keys: &[u64]) -> Vec<Permit> {
        let mut stripes: Vec<usize> = keys.iter().map(|&k| stripe_of(k)).collect();
        stripes.sort_unstable();
        stripes.dedup();
        let mut permits = Vec::with_capacity(stripes.len());
        for s in stripes {
            permits.push(self.chain_order[s].acquire().await);
        }
        permits
    }

    /// True when this replica has been fenced out of the group.
    pub(crate) fn deposed(&self) -> bool {
        self.ctl.is_deposed(self.me)
    }

    /// True when this replica is the group's current primary.
    pub(crate) fn is_primary(&self) -> bool {
        self.ctl.primary() == self.me
    }

    /// Counts a request this replica refuses on epoch grounds and
    /// returns the refusal.
    pub(crate) fn stand_down(&self) -> Reply {
        self.stale_rejections.inc();
        Reply::Error(ErrorCode::StaleEpoch)
    }
}

fn stripe_of(key: u64) -> usize {
    (key % CHAIN_STRIPES as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promote_walks_replicas_and_advances_epochs() {
        let ctl = ReplGroupCtl::new(0, 3);
        assert_eq!((ctl.primary(), ctl.epoch()), (0, 1));
        let (p1, e1) = ctl.promote().expect("replica 1 available");
        assert_eq!((p1, e1), (1, 2));
        assert!(ctl.is_deposed(0));
        let (p2, e2) = ctl.promote().expect("replica 2 available");
        assert_eq!((p2, e2), (2, 3));
        assert!(ctl.promote().is_none(), "no live candidate left");
        assert_eq!(ctl.promotions.get(), 2);
    }

    #[test]
    fn solo_grant_refused_after_losing_the_primaryship() {
        // Three replicas, so the promoted primary still has a backup to
        // depose (of two, the promotion alone leaves it solo).
        let ctl = ReplGroupCtl::new(0, 3);
        // Failover promotes replica 1; the old primary's pending solo
        // request must be refused — it is no longer the primary.
        ctl.promote().unwrap();
        assert_eq!(ctl.solo_grant(0), None);
        // The new primary may go solo; the epoch advances again.
        assert_eq!(ctl.solo_grant(1), Some(3));
        assert!(ctl.primary_is_solo());
    }

    #[test]
    fn solo_grant_deposes_the_backup_exactly_once() {
        let ctl = ReplGroupCtl::new(0, 2);
        assert!(!ctl.primary_is_solo());
        assert_eq!(ctl.solo_grant(0), Some(2));
        assert!(ctl.is_deposed(1));
        assert!(ctl.primary_is_solo());
        // A deposed backup can never be promoted.
        assert!(ctl.promote().is_none());
    }

    #[test]
    fn a_second_solo_grant_is_the_first_one() {
        // Every concurrent commit that finds the backup unreachable asks
        // for a grant: one deposal is one transition, however many ask.
        let check = dpdpu_check::CheckGuard::new();
        let ctl = ReplGroupCtl::new(0, 2);
        assert_eq!(ctl.solo_grant(0), Some(2));
        assert_eq!(ctl.solo_grant(0), Some(2), "already solo: same epoch");
        assert_eq!(ctl.epoch(), 2);
        let report = check.session().report();
        assert!(report.contains("repl_epoch_transitions=1"), "{report}");
    }

    #[test]
    fn promotion_raises_the_new_primarys_fence() {
        let ctl = ReplGroupCtl::new(0, 2);
        let fence1 = ctl.fence_of(1);
        assert_eq!(fence1.get(), 0);
        let (_, e) = ctl.promote().unwrap();
        assert_eq!(fence1.get(), e, "fence rises with the promotion epoch");
    }
}
