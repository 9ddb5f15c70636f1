//! A FASTER-style key-value store over the DPU file service.
//!
//! Layout follows FASTER's shape: an in-memory **hash index** mapping
//! keys to locations in an append-only **hybrid log** that lives on
//! storage (here: a file in the DPU-owned file system). The paper's §7
//! constraint drives the design twist: DPU memory is small, so only part
//! of the index is DPU-resident — lookups that hit the DPU-resident
//! partition can be served entirely on the DPU; the rest must involve
//! the host (partial offloading). Updates always go through the host, as
//! in DDS's integration where the host owns write ordering.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use bytes::Bytes;

use dpdpu_hw::{Memory, MemoryReservation};
use dpdpu_storage::{FileService, FsError, RecordLog};

/// Approximate DPU-memory footprint of one index entry (bucket slot,
/// key, address, chain overhead).
pub const INDEX_ENTRY_BYTES: u64 = 64;

/// Where a key's index entry lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// Entry in DPU memory: the DPU can serve the read alone.
    Dpu,
    /// Entry only in host memory: the host must participate.
    Host,
    /// Key unknown.
    Missing,
}

#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    value_offset: u64,
    value_len: u32,
    /// [`fingerprint`] of the value's bytes, so [`KvStore::digest`]
    /// covers content without reading the log.
    fingerprint: u64,
    /// True when this entry was installed by a migration copy
    /// ([`KvStore::put_if_absent`]). A migration copy is always *older*
    /// than any client write racing it on this store (writes route to
    /// the ring's current owner before the copy leaves the old owner),
    /// so a migrated entry loses to a client entry regardless of log
    /// offsets — offsets order concurrent client puts, not copies.
    migrated: bool,
    /// True when the entry lives in the DPU-resident partition. Decided
    /// once, when the key is first indexed; updates keep it.
    on_dpu: bool,
}

impl IndexEntry {
    /// The entry for the record of `value` whose 12-byte header sits at
    /// log offset `record_offset`; [`KvStore::index_insert`] decides
    /// `on_dpu`.
    fn at(record_offset: u64, value: &[u8], migrated: bool) -> Self {
        IndexEntry {
            value_offset: record_offset + 12,
            value_len: value.len() as u32,
            fingerprint: fingerprint(value),
            migrated,
            on_dpu: false,
        }
    }
}

/// A 64-bit fingerprint of `value`'s bytes. Each step is a bijection
/// of its running state and of its word, so two values of one length
/// that differ in one word always fingerprint apart. Four lanes take
/// the words of each 32-byte block, so their multiplies overlap. Host
/// work only: it charges no virtual time.
fn fingerprint(value: &[u8]) -> u64 {
    let step = |h: u64, word: &[u8]| {
        let mut w = [0u8; 8];
        w[..word.len()].copy_from_slice(word);
        (h ^ u64::from_le_bytes(w))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(31)
    };
    let mut blocks = value.chunks_exact(32);
    let mut lanes = [0u64, 1, 2, 3];
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, word);
        }
    }
    let h = lanes
        .iter()
        .fold(value.len() as u64, |h, lane| step(h, &lane.to_le_bytes()));
    blocks.remainder().chunks(8).fold(h, step)
}

/// The KV store.
pub struct KvStore {
    log: RecordLog,
    /// Both partitions of the split index: an entry's `on_dpu` says
    /// which one holds it.
    index: RefCell<HashMap<u64, IndexEntry>>,
    /// Entries with `on_dpu` set — what the §7 budget test counts.
    dpu_entries: Cell<u64>,
    /// DPU memory held by the `dpu_entries` (grown per entry, never
    /// shrunk: FASTER-style stores reclaim index slots lazily).
    index_reservation: RefCell<MemoryReservation>,
    index_budget: u64,
}

impl KvStore {
    /// A store over `log` with an empty index.
    fn new(log: RecordLog, dpu_mem: Memory, index_budget: u64) -> Rc<Self> {
        let reservation = dpu_mem
            .try_reserve(0)
            .expect("an empty reservation always fits");
        Rc::new(KvStore {
            log,
            index: RefCell::new(HashMap::new()),
            dpu_entries: Cell::new(0),
            index_reservation: RefCell::new(reservation),
            index_budget,
        })
    }

    /// Recovers a store from an existing hybrid-log file: scans the log
    /// from the head, rebuilding the hash index (latest version of each
    /// key wins, as in FASTER recovery). This is the §9 "coordinated
    /// recovery" path for state the DPU persisted before a crash: the
    /// log on the SSD is the single source of truth; the in-memory index
    /// is reconstructable.
    pub async fn recover(
        service: Rc<FileService>,
        dpu_mem: Memory,
        index_budget: u64,
        name: &str,
    ) -> Result<Rc<Self>, FsError> {
        let log = service.open(name).await?;
        let log = RecordLog::open(service, log)?;
        let store = Self::new(log, dpu_mem, index_budget);
        // Sequential log scan: each header, then its value to
        // fingerprint. A torn tail record ends it: its ack never left
        // the DPU.
        let mut offset = 0u64;
        while let Some((header, len)) = store.log.header_at(offset, 12).await? {
            let key = u64::from_le_bytes(header[0..8].try_into().expect("8 bytes"));
            let value = store.log.read(offset + 12, len).await?;
            store.index_insert(key, IndexEntry::at(offset, &value, false));
            offset += 12 + len;
        }
        Ok(store)
    }

    /// Inserts or updates the index entry of `key`, respecting the DPU
    /// budget; returns whether the entry was installed. An existing key
    /// keeps its partition; a new key goes to the DPU while the budget
    /// and DPU memory allow, to the host partition otherwise.
    ///
    /// Client updates are newest-offset-wins: the log assigns offsets in
    /// the order puts queue their records (their arrival order at the
    /// log), but each put indexes its record only when its own task runs
    /// again after its batch is durable, and concurrent same-key puts can
    /// reach that point out of offset order. Letting a lower offset
    /// overwrite a higher one would resurrect the older value — a lost
    /// update under a linearizability check.
    ///
    /// The index learns an offset only after the batch that carried it
    /// returned `Ok`, so a [`get`](Self::get) never reads an offset whose
    /// bytes are not durable, and a failed put indexes nothing.
    ///
    /// Migration copies are put-if-absent *at index time*: a migrated
    /// entry never overwrites an existing entry (the present entry is
    /// either a fresher client write or an idempotent duplicate copy),
    /// and a client entry always overwrites a migrated one even from a
    /// lower log offset — the copy queued its record later but holds
    /// the older value, so offset order says nothing here. The presence
    /// re-check must happen at this point, not before the storage
    /// write: a concurrent client put that queued ahead of the copy but
    /// has not indexed yet is invisible to any earlier `contains` probe.
    fn index_insert(&self, key: u64, entry: IndexEntry) -> bool {
        let mut index = self.index.borrow_mut();
        if let Some(e) = index.get_mut(&key) {
            let wins = if entry.migrated {
                false
            } else if e.migrated {
                true
            } else {
                entry.value_offset > e.value_offset
            };
            if wins {
                *e = IndexEntry {
                    on_dpu: e.on_dpu,
                    ..entry
                };
            }
            return wins;
        }
        let dpu_used = self.dpu_entries.get() * INDEX_ENTRY_BYTES;
        let on_dpu = dpu_used + INDEX_ENTRY_BYTES <= self.index_budget
            && self
                .index_reservation
                .borrow_mut()
                .grow(INDEX_ENTRY_BYTES)
                .is_ok();
        if on_dpu {
            self.dpu_entries.set(self.dpu_entries.get() + 1);
        }
        index.insert(key, IndexEntry { on_dpu, ..entry });
        true
    }

    /// Creates a store whose DPU-resident index may use at most
    /// `index_budget` bytes of `dpu_mem`.
    pub async fn create(
        service: Rc<FileService>,
        dpu_mem: Memory,
        index_budget: u64,
        name: &str,
    ) -> Result<Rc<Self>, FsError> {
        let log = service.create(name).await?;
        let log = RecordLog::open(service, log)?;
        Ok(Self::new(log, dpu_mem, index_budget))
    }

    /// Appends `[key u64][len u32][value]` to the hybrid log, then
    /// indexes the record; returns whether the index took it.
    async fn append(&self, key: u64, value: &[u8], migrated: bool) -> Result<bool, FsError> {
        let mut rec = Vec::with_capacity(12 + value.len());
        rec.extend_from_slice(&key.to_le_bytes());
        rec.extend_from_slice(&(value.len() as u32).to_le_bytes());
        rec.extend_from_slice(value);
        let offset = self.log.append(rec).await?;
        let entry = IndexEntry::at(offset, value, migrated);
        Ok(self.index_insert(key, entry))
    }

    /// Upserts a record: appends it to the hybrid log and updates
    /// whichever index partition holds (or can hold) the key.
    pub async fn put(&self, key: u64, value: &[u8]) -> Result<(), FsError> {
        self.append(key, value, false).await.map(|_| ())
    }

    /// Migration copy: appends and indexes `value` only if `key` is
    /// absent, atomically with respect to concurrent [`KvStore::put`]s.
    /// Returns whether the copy was installed.
    ///
    /// The early `contains` probe only avoids a wasted log append; the
    /// authoritative if-absent decision is made by `index_insert`
    /// on the `migrated` entry, after the storage write — so a client
    /// put racing this copy wins no matter how the log offsets and index
    /// updates interleave, and an acked write can never be clobbered by
    /// a stale copy arriving from a key's old owner.
    pub async fn put_if_absent(&self, key: u64, value: &[u8]) -> Result<bool, FsError> {
        if self.contains(key) {
            return Ok(false);
        }
        self.append(key, value, true).await
    }

    /// Which partition (if any) indexes `key`.
    pub fn residency(&self, key: u64) -> Residency {
        match self.index.borrow().get(&key) {
            Some(e) if e.on_dpu => Residency::Dpu,
            Some(_) => Residency::Host,
            None => Residency::Missing,
        }
    }

    /// Reads a value by key (either partition; callers charge host CPU
    /// separately when the host partition was needed).
    pub async fn get(&self, key: u64) -> Result<Option<Bytes>, FsError> {
        let entry = self.index.borrow().get(&key).copied();
        match entry {
            None => Ok(None),
            Some(e) => {
                let data = self.log.read(e.value_offset, e.value_len as u64).await?;
                Ok(Some(Bytes::from(data)))
            }
        }
    }

    /// True when every *present* key of the dense range
    /// `[start_key, start_key + count)` is DPU-resident, so the DPU can
    /// serve the scan alone. A range with no present keys is trivially
    /// DPU-servable.
    pub(crate) fn range_resident_dpu(&self, start_key: u64, count: u32) -> bool {
        let index = self.index.borrow();
        (start_key..start_key.saturating_add(count as u64))
            .all(|k| index.get(&k).is_none_or(|e| e.on_dpu))
    }

    /// Multi-get over the dense key range `[start_key, start_key +
    /// count)`: returns the present keys in ascending order with their
    /// current values.
    pub(crate) async fn scan(
        &self,
        start_key: u64,
        count: u32,
    ) -> Result<Vec<(u64, Bytes)>, FsError> {
        let mut out = Vec::new();
        for key in start_key..start_key.saturating_add(count as u64) {
            if let Some(value) = self.get(key).await? {
                out.push((key, value));
            }
        }
        Ok(out)
    }

    /// True when `key` is present in either index partition (no I/O).
    pub(crate) fn contains(&self, key: u64) -> bool {
        self.index.borrow().contains_key(&key)
    }

    /// Every indexed key, ascending (migration enumeration; no I/O).
    pub fn keys(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.index.borrow().keys().copied().collect();
        out.sort_unstable();
        out
    }

    /// Drops `key` from whichever index partition holds it (the bytes
    /// stay in the append-only log as garbage). Returns true if the key
    /// was present. The DPU memory reservation is deliberately not
    /// shrunk: FASTER-style stores reclaim index slots lazily.
    pub(crate) fn drop_key(&self, key: u64) -> bool {
        let dropped = self.index.borrow_mut().remove(&key);
        if dropped.is_some_and(|e| e.on_dpu) {
            self.dpu_entries.set(self.dpu_entries.get() - 1);
        }
        dropped.is_some()
    }

    /// Order-independent digest of the *live* state (indexed entries
    /// only, not log garbage): `(entries, value_bytes, checksum)`. Two
    /// replicas that applied the same writes agree on all three even if
    /// their logs interleaved overwrites differently — the checksum
    /// covers each key, its value's length and its value's bytes (the
    /// entry's fingerprint), not log offsets.
    pub(crate) fn digest(&self) -> (u64, u64, u64) {
        let mix = |mut h: u64| {
            h ^= h >> 30;
            h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^ (h >> 27)
        };
        let mut entries = 0u64;
        let mut bytes = 0u64;
        let mut checksum = 0u64;
        for (key, e) in self.index.borrow().iter() {
            entries += 1;
            bytes += e.value_len as u64;
            let h = mix(key ^ ((e.value_len as u64) << 32) ^ 0x9E37_79B9_7F4A_7C15);
            checksum = checksum.wrapping_add(mix(h ^ e.fingerprint));
        }
        (entries, bytes, checksum)
    }

    /// Number of keys in each partition `(dpu, host)`.
    pub fn partition_sizes(&self) -> (usize, usize) {
        let dpu = self.dpu_entries.get() as usize;
        (dpu, self.index.borrow().len() - dpu)
    }
}

#[cfg(test)]
impl KvStore {
    /// Bytes appended to the hybrid log so far.
    pub(crate) fn log_bytes(&self) -> u64 {
        self.log.tail()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_des::Sim;
    use dpdpu_hw::Platform;
    use dpdpu_storage::{BlockDevice, ExtentFs};

    pub(crate) fn fs_for(p: &Rc<Platform>) -> Rc<ExtentFs> {
        ExtentFs::format(BlockDevice::new(p.ssd.clone(), 1 << 20))
    }

    async fn store(p: &Rc<Platform>, budget: u64) -> Rc<KvStore> {
        let svc = FileService::new(fs_for(p), p.dpu_cpu.clone(), p.dpu_ssd_pcie.clone());
        KvStore::create(svc, p.dpu_mem.clone(), budget, "kv.log")
            .await
            .unwrap()
    }

    #[test]
    fn put_get_round_trip() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let kv = store(&p, 1 << 20).await;
            kv.put(1, b"alpha").await.unwrap();
            kv.put(2, b"beta").await.unwrap();
            assert_eq!(
                kv.get(1).await.unwrap().unwrap(),
                Bytes::from_static(b"alpha")
            );
            assert_eq!(
                kv.get(2).await.unwrap().unwrap(),
                Bytes::from_static(b"beta")
            );
            assert_eq!(kv.get(3).await.unwrap(), None);
        });
        sim.run();
    }

    #[test]
    fn update_returns_latest_version() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let kv = store(&p, 1 << 20).await;
            kv.put(9, b"v1").await.unwrap();
            kv.put(9, b"version-two").await.unwrap();
            assert_eq!(
                kv.get(9).await.unwrap().unwrap(),
                Bytes::from_static(b"version-two")
            );
            // Log keeps both versions (append-only).
            assert_eq!(kv.log_bytes(), (12 + 2) + (12 + 11));
        });
        sim.run();
    }

    #[test]
    fn index_overflows_to_host_partition() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            // Budget for exactly 4 entries.
            let kv = store(&p, 4 * INDEX_ENTRY_BYTES).await;
            for k in 0..10u64 {
                kv.put(k, b"x").await.unwrap();
            }
            let (dpu, host) = kv.partition_sizes();
            assert_eq!(dpu, 4);
            assert_eq!(host, 6);
            assert_eq!(kv.residency(0), Residency::Dpu);
            assert_eq!(kv.residency(9), Residency::Host);
            assert_eq!(kv.residency(99), Residency::Missing);
            // Host-partition keys still readable.
            assert_eq!(kv.get(9).await.unwrap().unwrap(), Bytes::from_static(b"x"));
        });
        sim.run();
    }

    #[test]
    fn dpu_memory_reservation_tracks_index() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let before = p.dpu_mem.used();
            let kv = store(&p, 1 << 20).await;
            for k in 0..100u64 {
                kv.put(k, b"payload").await.unwrap();
            }
            assert_eq!(p.dpu_mem.used() - before, 100 * INDEX_ENTRY_BYTES);
        });
        sim.run();
    }

    #[test]
    fn recovery_rebuilds_the_index_from_the_log() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let fs = crate::kv::tests::fs_for(&p);
            let svc = FileService::new(fs, p.dpu_cpu.clone(), p.dpu_ssd_pcie.clone());
            let written = {
                let kv = KvStore::create(svc.clone(), p.dpu_mem.clone(), 1 << 20, "kv.log")
                    .await
                    .unwrap();
                for k in 0..50u64 {
                    kv.put(k, format!("value-{k}").as_bytes()).await.unwrap();
                }
                // Updates: the latest version must win after recovery.
                kv.put(7, b"updated-7").await.unwrap();
                kv.put(13, b"updated-13").await.unwrap();
                // "Crash": drop the store; only the log file survives.
                kv.digest()
            };
            let kv = KvStore::recover(svc, p.dpu_mem.clone(), 1 << 20, "kv.log")
                .await
                .unwrap();
            assert_eq!(kv.digest(), written, "recovery fingerprints each value");
            assert_eq!(
                kv.get(7).await.unwrap().unwrap(),
                Bytes::from_static(b"updated-7")
            );
            assert_eq!(
                kv.get(13).await.unwrap().unwrap(),
                Bytes::from_static(b"updated-13")
            );
            for k in 0..50u64 {
                if k != 7 && k != 13 {
                    assert_eq!(
                        kv.get(k).await.unwrap().unwrap(),
                        Bytes::from(format!("value-{k}").into_bytes()),
                        "key {k} lost in recovery"
                    );
                }
            }
            assert_eq!(kv.get(99).await.unwrap(), None);
        });
        sim.run();
    }

    #[test]
    fn recovery_discards_torn_tail_record() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let fs = crate::kv::tests::fs_for(&p);
            let svc = FileService::new(fs, p.dpu_cpu.clone(), p.dpu_ssd_pcie.clone());
            {
                let kv = KvStore::create(svc.clone(), p.dpu_mem.clone(), 1 << 20, "kv.log")
                    .await
                    .unwrap();
                kv.put(1, b"complete").await.unwrap();
                // Simulate a torn write: header claims more bytes than the
                // crash left behind.
                let log = svc.fs().open("kv.log").unwrap();
                let tail = svc.fs().size(log).unwrap();
                let mut torn = Vec::new();
                torn.extend_from_slice(&2u64.to_le_bytes());
                torn.extend_from_slice(&100u32.to_le_bytes()); // 100 bytes promised
                torn.extend_from_slice(b"only-9b!!"); // 9 delivered
                svc.write(log, tail, &torn).await.unwrap();
            }
            let kv = KvStore::recover(svc, p.dpu_mem.clone(), 1 << 20, "kv.log")
                .await
                .unwrap();
            assert_eq!(
                kv.get(1).await.unwrap().unwrap(),
                Bytes::from_static(b"complete"),
                "intact records survive"
            );
            assert_eq!(kv.get(2).await.unwrap(), None, "torn record discarded");
        });
        sim.run();
    }

    /// A put whose write fails leaves no trace in the log: the tail and
    /// the file size move only when a batch is durable, so recovery finds
    /// exactly the acked puts.
    #[test]
    fn failed_put_must_not_poison_recovery() {
        let guard = dpdpu_faults::SessionGuard::new(dpdpu_faults::FaultPlan::new(9));
        let faults = guard.session.clone();
        dpdpu_des::block_on(async move {
            let p = Platform::default_bf2();
            let svc = FileService::new(fs_for(&p), p.dpu_cpu.clone(), p.dpu_ssd_pcie.clone());
            let kv = KvStore::create(svc.clone(), p.dpu_mem.clone(), 1 << 20, "kv.log")
                .await
                .unwrap();
            kv.put(0, b"zero").await.unwrap();
            kv.put(1, b"one").await.unwrap();
            // One more failure than the file service retries.
            faults.arm_ssd_write_failures(4);
            assert!(kv.put(2, b"two").await.is_err());
            kv.put(3, b"three").await.unwrap();
            drop(kv);
            let kv = KvStore::recover(svc, p.dpu_mem.clone(), 1 << 20, "kv.log")
                .await
                .unwrap();
            assert_eq!(kv.keys(), vec![0, 1, 3], "acked key lost in recovery");
            assert_eq!(
                kv.get(0).await.unwrap().unwrap(),
                Bytes::from_static(b"zero")
            );
        });
    }

    /// A failed put long enough to span two blocks, then a short one:
    /// had the file grown by the failed 4 108 bytes, recovery would parse
    /// their zeros as `key 0` records.
    #[test]
    fn a_failed_long_put_then_a_short_one_recovers_only_acked_keys() {
        let guard = dpdpu_faults::SessionGuard::new(dpdpu_faults::FaultPlan::new(9));
        let faults = guard.session.clone();
        dpdpu_des::block_on(async move {
            let p = Platform::default_bf2();
            let svc = FileService::new(fs_for(&p), p.dpu_cpu.clone(), p.dpu_ssd_pcie.clone());
            let kv = KvStore::create(svc.clone(), p.dpu_mem.clone(), 1 << 20, "kv.log")
                .await
                .unwrap();
            kv.put(7, b"seven").await.unwrap();
            // One more failure than the file service retries.
            faults.arm_ssd_write_failures(4);
            assert!(kv.put(2, &[5u8; 4_096]).await.is_err());
            kv.put(3, b"three").await.unwrap();
            drop(kv);
            let kv = KvStore::recover(svc, p.dpu_mem.clone(), 1 << 20, "kv.log")
                .await
                .unwrap();
            assert_eq!(kv.keys(), vec![3, 7], "recovered keys");
            assert_eq!(
                kv.get(3).await.unwrap().unwrap(),
                Bytes::from_static(b"three")
            );
        });
        drop(guard);
    }

    #[test]
    fn stale_index_update_cannot_resurrect_old_value() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let kv = store(&p, 1 << 20).await;
            kv.put(1, b"v1").await.unwrap(); // value at offset 12
            kv.put(1, b"v2").await.unwrap(); // value at offset 26
                                             // A late-completing concurrent put of the older version tries
                                             // to re-install its (lower) offset: newest-offset-wins must
                                             // ignore it.
            kv.index_insert(1, IndexEntry::at(0, b"v1", false));
            assert_eq!(kv.get(1).await.unwrap().unwrap(), Bytes::from_static(b"v2"));
        });
        sim.run();
    }

    #[test]
    fn put_if_absent_installs_only_when_absent() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let kv = store(&p, 1 << 20).await;
            assert!(kv.put_if_absent(1, b"copy").await.unwrap());
            assert_eq!(
                kv.get(1).await.unwrap().unwrap(),
                Bytes::from_static(b"copy")
            );
            // Idempotent duplicate copy: refused, first copy stays.
            assert!(!kv.put_if_absent(1, b"dup").await.unwrap());
            assert_eq!(
                kv.get(1).await.unwrap().unwrap(),
                Bytes::from_static(b"copy")
            );
            // A later client write overwrites the migrated entry...
            kv.put(1, b"fresh").await.unwrap();
            assert_eq!(
                kv.get(1).await.unwrap().unwrap(),
                Bytes::from_static(b"fresh")
            );
            // ...and a copy arriving after a client write is refused.
            kv.put(3, b"client").await.unwrap();
            assert!(!kv.put_if_absent(3, b"stale").await.unwrap());
            assert_eq!(
                kv.get(3).await.unwrap().unwrap(),
                Bytes::from_static(b"client")
            );
        });
        sim.run();
    }

    /// The resharding lost-write race: a client put queues at a *lower*
    /// log offset, then a migration copy of the same key queues at a
    /// higher one before the client's index update lands. Under plain
    /// newest-offset-wins the stale copy's higher offset would bury the
    /// acked client write; the `migrated` flag must make the client
    /// write win regardless of index-update order.
    #[test]
    fn migration_copy_cannot_bury_a_concurrent_client_put() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let kv = store(&p, 1 << 20).await;
            let kv2 = kv.clone();
            // Client put polls first: queued at log offset 0.
            let client = dpdpu_des::spawn(async move { kv2.put(7, b"fresh-client").await });
            let kv3 = kv.clone();
            // Migration copy polls second: sees the key absent (the
            // client's index update is still awaiting storage), queues at
            // the higher offset.
            let copy = dpdpu_des::spawn(async move { kv3.put_if_absent(7, b"stale-copy!!").await });
            client.await.unwrap();
            copy.await.unwrap();
            assert_eq!(
                kv.get(7).await.unwrap().unwrap(),
                Bytes::from_static(b"fresh-client"),
                "stale migration copy buried the acked client write"
            );
        });
        sim.run();
    }

    #[test]
    fn scan_returns_present_keys_in_order() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let kv = store(&p, 1 << 20).await;
            for k in [7u64, 3, 5] {
                kv.put(k, format!("v{k}").as_bytes()).await.unwrap();
            }
            let hits = kv.scan(0, 10).await.unwrap();
            let keys: Vec<u64> = hits.iter().map(|(k, _)| *k).collect();
            assert_eq!(keys, vec![3, 5, 7]);
            assert_eq!(hits[1].1, Bytes::from_static(b"v5"));
            assert!(kv.scan(100, 50).await.unwrap().is_empty());
        });
        sim.run();
    }

    #[test]
    fn range_residency_tracks_host_overflow() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            // Budget for 4 entries: keys 0..4 land on the DPU, 4..8 host.
            let kv = store(&p, 4 * INDEX_ENTRY_BYTES).await;
            for k in 0..8u64 {
                kv.put(k, b"x").await.unwrap();
            }
            assert!(kv.range_resident_dpu(0, 4));
            assert!(!kv.range_resident_dpu(0, 8));
            assert!(!kv.range_resident_dpu(4, 2));
            assert!(
                kv.range_resident_dpu(100, 16),
                "absent range is trivially DPU-servable"
            );
        });
        sim.run();
    }

    #[test]
    fn keys_drop_and_digest_track_live_state() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let kv = store(&p, 2 * INDEX_ENTRY_BYTES).await; // force host overflow
            for k in [9u64, 1, 5, 3] {
                kv.put(k, b"val").await.unwrap();
            }
            assert_eq!(kv.keys(), vec![1, 3, 5, 9]);
            assert!(kv.contains(5));
            assert!(!kv.contains(4));

            let before = kv.digest();
            assert_eq!(before.0, 4);
            assert_eq!(before.1, 4 * 3);

            assert!(kv.drop_key(5));
            assert!(!kv.drop_key(5), "second drop is a no-op");
            assert!(!kv.contains(5));
            assert_eq!(kv.keys(), vec![1, 3, 9]);
            assert_eq!(kv.get(5).await.unwrap(), None, "dropped key unreadable");
            let after = kv.digest();
            assert_eq!(after.0, 3);
            assert_ne!(after.2, before.2, "checksum sees the drop");
        });
        sim.run();
    }

    #[test]
    fn digest_is_order_independent() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let a = store(&p, 1 << 20).await;
            let b = store(&p, 0).await; // all-host partition on b
            for k in [2u64, 4, 6] {
                a.put(k, b"same").await.unwrap();
            }
            for k in [6u64, 2, 4] {
                b.put(k, b"diff").await.unwrap(); // same length, reordered
                b.put(k, b"same").await.unwrap();
            }
            assert_eq!(
                a.digest(),
                b.digest(),
                "same live state must digest equal regardless of \
                 partition placement, apply order, or log garbage"
            );
        });
        sim.run();
    }

    #[test]
    fn digest_sees_the_value_bytes() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let a = store(&p, 1 << 20).await;
            let b = store(&p, 1 << 20).await;
            // One key, one length, different bytes: in the only word, in
            // the partial word at the end, and in a 32-byte block.
            let block = [7u8; 40];
            let mut other = block;
            other[17] = 8;
            let pairs: [(u64, &[u8], &[u8]); 3] = [
                (1, b"same-len", b"diff-len"),
                (2, b"123456789", b"12345678X"),
                (3, &block, &other),
            ];
            for (k, x, y) in pairs {
                a.put(k, x).await.unwrap();
                b.put(k, y).await.unwrap();
                let (da, db) = (a.digest(), b.digest());
                assert_eq!((da.0, da.1), (db.0, db.1), "same entries and bytes");
                assert_ne!(da.2, db.2, "key {k}: the checksum must see the value bytes");
                b.put(k, x).await.unwrap();
                assert_eq!(a.digest(), b.digest(), "key {k}: same bytes, same digest");
            }
        });
        sim.run();
    }

    #[test]
    fn binary_values_survive() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let kv = store(&p, 1 << 20).await;
            let value: Vec<u8> = (0..=255u8).collect();
            kv.put(5, &value).await.unwrap();
            assert_eq!(kv.get(5).await.unwrap().unwrap(), Bytes::from(value));
        });
        sim.run();
    }
}
