//! A FASTER-style key-value store over the DPU file service.
//!
//! Layout follows FASTER's shape: an in-memory **hash index** mapping
//! keys to locations in an append-only **hybrid log** that lives on
//! storage (here: a file in the DPU-owned file system). The paper's §7
//! constraint drives the design twist: DPU memory is small, so only part
//! of the index is DPU-resident — lookups that hit the DPU-resident
//! partition can be served entirely on the DPU; the rest must involve
//! the host (partial offloading). Writes follow the same split: the DPU
//! orders a client's update, and a backup applies a chain write, when the
//! key's entry is DPU-resident; an update of any other key goes through
//! the host, as in DDS's integration where the host owns write ordering.
//! Which keys hold the DPU slots follows their gets: a host-served key
//! that out-hits the coldest DPU-resident entry by a fixed margin swaps
//! partitions with it, unless that entry has a DPU-ordered put in flight.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

use bytes::Bytes;

use dpdpu_des::{spawn, Counter};
use dpdpu_hw::{Memory, MemoryReservation, PcieLink};
use dpdpu_storage::{FileService, FsError, RecordLog};

/// Approximate DPU-memory footprint of one index entry (bucket slot,
/// key, address, chain overhead).
pub const INDEX_ENTRY_BYTES: u64 = 64;

/// Gets by which a host-resident key must lead the coldest DPU-resident
/// entry before the two swap partitions. A swap costs a PCIe write of
/// the promoted entry, and under a uniform stream counts differ by
/// chance alone: Fig. 9's 128-key, 1 024-get stream reaches a lead of
/// 13 at 25 % coverage, where a swap would buy nothing. Only a lead that
/// chance rarely gives may move an entry.
pub(crate) const PROMOTION_MARGIN_GETS: u64 = 16;

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

/// Which partition holds an index entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Partition {
    Host,
    Dpu,
    /// Host-resident while its posted DMA to the DPU is in flight: it
    /// already holds the DPU slot its victim gave up.
    Promoting,
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
    /// The partition holding the entry: first-come when the key is
    /// first indexed, then moved only by a promotion; updates keep it.
    partition: Partition,
    /// Gets of this key since it was indexed. Updates keep it; it never
    /// decays.
    gets: u64,
    /// DPU-ordered puts of this key in flight ([`DpuPut`]): while any
    /// is, no swap demotes the entry. Updates keep it; a drop takes it.
    dpu_puts: u32,
}

impl IndexEntry {
    /// The entry for the record of `value` whose 12-byte header sits at
    /// log offset `record_offset`; [`KvStore::index_insert`] decides
    /// its partition.
    fn at(record_offset: u64, value: &[u8], migrated: bool) -> Self {
        IndexEntry {
            value_offset: record_offset + 12,
            value_len: value.len() as u32,
            fingerprint: fingerprint(value),
            migrated,
            partition: Partition::Host,
            gets: 0,
            dpu_puts: 0,
        }
    }
}

/// A put the DPU ordered against its key's DPU-resident entry, counted
/// in the entry's `dpu_puts` from routing ([`KvStore::order_on_dpu`])
/// until the ticket drops: when the put has indexed its record, or when
/// it failed or stood down without one.
pub(crate) struct DpuPut {
    kv: Rc<KvStore>,
    key: u64,
}

impl Drop for DpuPut {
    fn drop(&mut self) {
        // A drop of the key meanwhile took the count with it.
        if let Some(e) = self.kv.index.borrow_mut().get_mut(&self.key) {
            e.dpu_puts = e.dpu_puts.saturating_sub(1);
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
    /// Both partitions of the split index: an entry's `partition` says
    /// which one holds it.
    index: RefCell<HashMap<u64, IndexEntry>>,
    /// `(gets, key)` of every DPU-resident entry, coldest first: a
    /// promotion's victim without a scan of the index.
    dpu_heat: RefCell<BTreeSet<(u64, u64)>>,
    /// DPU slots held, by DPU-resident and promoting entries — what the
    /// §7 budget test counts.
    dpu_entries: Cell<u64>,
    /// DPU memory held by the `dpu_entries` (grown per entry, never
    /// shrunk: FASTER-style stores reclaim index slots lazily).
    index_reservation: RefCell<MemoryReservation>,
    index_budget: u64,
    /// Swaps of a host-resident key with the coldest DPU-resident one.
    pub(crate) index_promotions: Counter,
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
            dpu_heat: RefCell::new(BTreeSet::new()),
            dpu_entries: Cell::new(0),
            index_reservation: RefCell::new(reservation),
            index_budget,
            index_promotions: Counter::new(),
        })
    }

    /// Recovers a store from an existing hybrid-log file: scans the log
    /// from the head, rebuilding the hash index (latest version of each
    /// key wins, as in FASTER recovery; every get count starts at 0).
    /// This is the §9 "coordinated recovery" path for state the DPU
    /// persisted before a crash: the log on the SSD is the single source
    /// of truth; the in-memory index is reconstructable.
    pub async fn recover(
        service: Rc<FileService>,
        dpu_mem: Memory,
        index_budget: u64,
        name: &str,
    ) -> Result<Rc<Self>, FsError> {
        let log = service.open(name).await?;
        let log = RecordLog::open(service, log)?;
        let store = Self::new(log, dpu_mem, index_budget);
        // One pass over the log, each value fingerprinted. A torn tail
        // record ends it: its ack never left the DPU.
        let mut offset = 0u64;
        for (header, value) in store.log.walk(0, 12).await? {
            let key = u64::from_le_bytes(header[0..8].try_into().expect("8 bytes"));
            store.index_insert(key, IndexEntry::at(offset, &value, false), None);
            offset += 12 + value.len() as u64;
        }
        Ok(store)
    }

    /// Inserts or updates the index entry of `key`, respecting the DPU
    /// budget; returns whether the entry was installed. An existing key
    /// keeps its partition and its get count; a new key goes to the DPU
    /// while the budget and DPU memory allow, to the host partition
    /// otherwise.
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
    ///
    /// A DPU-ordered put (`ordered`) gives its count back here, after
    /// the update, and its entry must still be DPU-resident: the count
    /// kept every swap off it.
    fn index_insert(&self, key: u64, entry: IndexEntry, ordered: Option<DpuPut>) -> bool {
        let mut index = self.index.borrow_mut();
        if let Some(e) = index.get_mut(&key) {
            assert!(
                ordered.is_none() || e.dpu_puts == 0 || e.partition == Partition::Dpu,
                "key {key} left the DPU under a DPU-ordered put"
            );
            let wins = if entry.migrated {
                false
            } else if e.migrated {
                true
            } else {
                entry.value_offset > e.value_offset
            };
            if wins {
                *e = IndexEntry {
                    partition: e.partition,
                    gets: e.gets,
                    dpu_puts: e.dpu_puts,
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
        let partition = if on_dpu {
            self.dpu_entries.set(self.dpu_entries.get() + 1);
            self.dpu_heat.borrow_mut().insert((0, key));
            Partition::Dpu
        } else {
            Partition::Host
        };
        index.insert(key, IndexEntry { partition, ..entry });
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
    async fn append(
        &self,
        key: u64,
        value: &[u8],
        migrated: bool,
        ordered: Option<DpuPut>,
    ) -> Result<bool, FsError> {
        let mut rec = Vec::with_capacity(12 + value.len());
        rec.extend_from_slice(&key.to_le_bytes());
        rec.extend_from_slice(&(value.len() as u32).to_le_bytes());
        rec.extend_from_slice(value);
        let offset = self.log.append(rec).await?;
        let entry = IndexEntry::at(offset, value, migrated);
        Ok(self.index_insert(key, entry, ordered))
    }

    /// Upserts a record: appends it to the hybrid log and updates
    /// whichever index partition holds (or can hold) the key.
    pub async fn put(&self, key: u64, value: &[u8]) -> Result<(), FsError> {
        self.put_ordered(key, value, None).await
    }

    /// [`KvStore::put`], for a put the DPU ordered when `ordered` is its
    /// ticket: the put's index update gives the entry's count back.
    pub(crate) async fn put_ordered(
        &self,
        key: u64,
        value: &[u8],
        ordered: Option<DpuPut>,
    ) -> Result<(), FsError> {
        self.append(key, value, false, ordered).await.map(|_| ())
    }

    /// Counts a put of the DPU-resident `key` that the DPU orders, on
    /// its entry, and returns the ticket the put carries: no swap
    /// demotes the entry until the put indexes or the ticket drops.
    /// Called at routing, in the same step that read the residency.
    pub(crate) fn order_on_dpu(self: &Rc<Self>, key: u64) -> DpuPut {
        let mut index = self.index.borrow_mut();
        let e = index.get_mut(&key);
        let e = e.filter(|e| e.partition == Partition::Dpu);
        e.expect("the DPU orders puts of DPU-resident keys only")
            .dpu_puts += 1;
        DpuPut {
            kv: self.clone(),
            key,
        }
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
        self.append(key, value, true, None).await
    }

    /// Which partition (if any) indexes `key`.
    pub fn residency(&self, key: u64) -> Residency {
        match self.index.borrow().get(&key) {
            Some(e) if e.partition == Partition::Dpu => Residency::Dpu,
            Some(_) => Residency::Host,
            None => Residency::Missing,
        }
    }

    /// Reads a value by key (either partition; callers charge host CPU
    /// separately when the host partition was needed) and counts the get
    /// on its entry.
    pub async fn get(&self, key: u64) -> Result<Option<Bytes>, FsError> {
        let entry = self.index.borrow_mut().get_mut(&key).map(|e| {
            if e.partition == Partition::Dpu {
                let mut heat = self.dpu_heat.borrow_mut();
                heat.remove(&(e.gets, key));
                heat.insert((e.gets + 1, key));
            }
            e.gets += 1;
            *e
        });
        match entry {
            None => Ok(None),
            Some(e) => {
                let data = self.log.read(e.value_offset, e.value_len as u64).await?;
                Ok(Some(Bytes::from(data)))
            }
        }
    }

    /// Called by the host after it served a get of `key`: when `key` is
    /// host-resident and leads the coldest DPU-resident entry by
    /// [`PROMOTION_MARGIN_GETS`] gets, the two swap partitions, and the
    /// call returns true. The victim is host-resident at once; `key`
    /// takes the victim's DPU slot now and becomes DPU-resident when its
    /// entry's posted DMA over `pcie` lands, so neither the slot count
    /// nor the DPU memory held changes. A key whose promotion is in
    /// flight is not promoted again, and a victim with a DPU-ordered put
    /// in flight is not demoted: the swap waits for a later host get.
    pub(crate) fn promote_if_hot(self: &Rc<Self>, key: u64, pcie: &Rc<PcieLink>) -> bool {
        let index = self.index.borrow();
        let Some(gets) = index
            .get(&key)
            .filter(|e| e.partition == Partition::Host)
            .map(|e| e.gets)
        else {
            return false;
        };
        let Some(&(coldest, victim)) = self.dpu_heat.borrow().first() else {
            return false;
        };
        if gets < coldest + PROMOTION_MARGIN_GETS || index[&victim].dpu_puts > 0 {
            return false;
        }
        drop(index);
        self.swap(key, victim, pcie);
        true
    }

    /// Demotes the DPU-resident `victim` and promotes the host-resident
    /// `key` into its slot, the entry landing by a posted DMA over
    /// `pcie`.
    fn swap(self: &Rc<Self>, key: u64, victim: u64, pcie: &Rc<PcieLink>) {
        let mut index = self.index.borrow_mut();
        let demoted = index.get_mut(&victim).expect("indexed");
        self.dpu_heat.borrow_mut().remove(&(demoted.gets, victim));
        demoted.partition = Partition::Host;
        index.get_mut(&key).expect("indexed").partition = Partition::Promoting;
        self.index_promotions.inc();
        let (kv, pcie) = (self.clone(), pcie.clone());
        spawn(async move {
            pcie.dma(INDEX_ENTRY_BYTES).await;
            // In DPU memory now, unless it was dropped meanwhile.
            let mut index = kv.index.borrow_mut();
            let landed = index.get_mut(&key);
            if let Some(e) = landed.filter(|e| e.partition == Partition::Promoting) {
                e.partition = Partition::Dpu;
                kv.dpu_heat.borrow_mut().insert((e.gets, key));
            }
        });
    }

    /// True when every *present* key of the dense range
    /// `[start_key, start_key + count)` is DPU-resident, so the DPU can
    /// serve the scan alone. A range with no present keys is trivially
    /// DPU-servable.
    pub(crate) fn range_resident_dpu(&self, start_key: u64, count: u32) -> bool {
        let index = self.index.borrow();
        (start_key..start_key.saturating_add(count as u64))
            .all(|k| index.get(&k).is_none_or(|e| e.partition == Partition::Dpu))
    }

    /// Multi-get over the dense key range `[start_key, start_key +
    /// count)`: returns the present keys in ascending order with their
    /// values. The present keys come from one snapshot of the index, and
    /// their records are read with one [`RecordLog::read_many`]: one read
    /// per group of records sharing a device block, all at once. Every
    /// read finishes before the scan returns; the first error in log
    /// order is the scan's.
    pub(crate) async fn scan(
        &self,
        start_key: u64,
        count: u32,
    ) -> Result<Vec<(u64, Bytes)>, FsError> {
        let (keys, ranges): (Vec<u64>, Vec<(u64, u64)>) = {
            let index = self.index.borrow();
            (start_key..start_key.saturating_add(count as u64))
                .filter_map(|k| Some((k, index.get(&k)?)))
                .map(|(k, e)| (k, (e.value_offset, e.value_len as u64)))
                .unzip()
        };
        let values = self.log.read_many(&ranges).await?;
        let values = values.into_iter().map(Bytes::from);
        Ok(keys.into_iter().zip(values).collect())
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
        let Some(dropped) = self.index.borrow_mut().remove(&key) else {
            return false;
        };
        match dropped.partition {
            Partition::Host => {}
            Partition::Dpu => {
                self.dpu_heat.borrow_mut().remove(&(dropped.gets, key));
                self.dpu_entries.set(self.dpu_entries.get() - 1);
            }
            Partition::Promoting => self.dpu_entries.set(self.dpu_entries.get() - 1),
        }
        true
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

    /// Number of keys in each partition `(dpu, host)`; a promotion in
    /// flight counts on the DPU side, whose slot it holds.
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

    async fn store(p: &Rc<Platform>, budget: u64) -> Rc<KvStore> {
        let svc = FileService::boot(p);
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
            let svc = FileService::boot(&p);
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
            let svc = FileService::boot(&p);
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
            let svc = FileService::boot(&p);
            let kv = KvStore::create(svc.clone(), p.dpu_mem.clone(), 1 << 20, "kv.log")
                .await
                .unwrap();
            kv.put(0, b"zero").await.unwrap();
            kv.put(1, b"one").await.unwrap();
            // One more failure than the file service retries.
            faults.arm(dpdpu_faults::FaultSite::SsdWrite, 0, 4);
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
            let svc = FileService::boot(&p);
            let kv = KvStore::create(svc.clone(), p.dpu_mem.clone(), 1 << 20, "kv.log")
                .await
                .unwrap();
            kv.put(7, b"seven").await.unwrap();
            // One more failure than the file service retries.
            faults.arm(dpdpu_faults::FaultSite::SsdWrite, 0, 4);
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
            kv.index_insert(1, IndexEntry::at(0, b"v1", false), None);
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

    /// One get as the server serves it: residency is read once, at
    /// routing, and a host-served get may promote its key.
    async fn serve_get(kv: &Rc<KvStore>, p: &Platform, key: u64) {
        let host_served = kv.residency(key) == Residency::Host;
        kv.get(key).await.unwrap().expect("present");
        if host_served {
            kv.promote_if_hot(key, &p.host_dpu_pcie);
        }
    }

    /// Keys of the skewed stream, which indexes `0..32` with 8 DPU slots.
    const HOT: std::ops::Range<u64> = 20..28;

    /// Indexes `order` under an 8-slot budget, then serves 40 rounds of
    /// gets: every [`HOT`] key once and one key of `0..20` in turn.
    /// After each get, the slots held and the DPU memory reserved are
    /// checked against the budget and the preload's reservation.
    async fn skewed_stream(order: &[u64]) -> Rc<KvStore> {
        let p = Platform::default_bf2();
        let kv = store(&p, 8 * INDEX_ENTRY_BYTES).await;
        for &k in order {
            kv.put(k, b"v").await.unwrap();
        }
        let reserved = p.dpu_mem.used();
        for round in 0..40 {
            for key in HOT.chain([round % 20]) {
                serve_get(&kv, &p, key).await;
                assert_eq!(kv.partition_sizes().0, 8, "the slots held move");
                assert_eq!(p.dpu_mem.used(), reserved, "a swap reserved memory");
            }
        }
        // Past the last promotion's DMA.
        dpdpu_des::sleep(1_000_000).await;
        kv
    }

    fn dpu_set(kv: &KvStore) -> Vec<u64> {
        let keys = kv.keys().into_iter();
        keys.filter(|&k| kv.residency(k) == Residency::Dpu)
            .collect()
    }

    #[test]
    fn a_skewed_stream_converges_to_the_hot_set() {
        dpdpu_des::block_on(async {
            let kv = skewed_stream(&(0..32).collect::<Vec<_>>()).await;
            assert_eq!(dpu_set(&kv), HOT.collect::<Vec<_>>());
            assert_eq!(kv.index_promotions.get(), 8, "one swap per hot key");
        });
    }

    /// The victim is the coldest entry by `(gets, key)`, found without
    /// walking the `HashMap`, so two insertion orders whose first-come
    /// slots are equally cold end alike.
    #[test]
    fn the_swaps_do_not_depend_on_insertion_order() {
        dpdpu_des::block_on(async {
            let ascending = skewed_stream(&(0..32).collect::<Vec<_>>()).await;
            let other: Vec<u64> = (8..16)
                .rev()
                .chain((0..8).rev())
                .chain((16..32).rev())
                .collect();
            let other = skewed_stream(&other).await;
            assert_eq!(dpu_set(&other), dpu_set(&ascending));
            assert_eq!(
                other.index_promotions.get(),
                ascending.index_promotions.get()
            );
        });
    }

    #[test]
    fn swaps_keep_the_budget_and_the_reservation() {
        dpdpu_des::block_on(async {
            // `skewed_stream` checks both after every get.
            let kv = skewed_stream(&(0..32).collect::<Vec<_>>()).await;
            assert_eq!(kv.partition_sizes(), (8, 24));
            assert!(kv.index_promotions.get() > 0);
        });
    }

    #[test]
    fn a_put_keeps_the_count_and_the_partition() {
        dpdpu_des::block_on(async {
            let p = Platform::default_bf2();
            let kv = store(&p, INDEX_ENTRY_BYTES).await;
            kv.put(0, b"dpu").await.unwrap();
            kv.put(1, b"host").await.unwrap();
            for key in [0, 0, 1, 1, 1] {
                kv.get(key).await.unwrap();
            }
            kv.put(0, b"dpu-2").await.unwrap();
            kv.put(1, b"host-2").await.unwrap();
            let entry = |k: u64| kv.index.borrow()[&k];
            assert_eq!((entry(0).gets, entry(0).partition), (2, Partition::Dpu));
            assert_eq!((entry(1).gets, entry(1).partition), (3, Partition::Host));
            assert!(kv.dpu_heat.borrow().contains(&(2, 0)));
        });
    }

    #[test]
    fn drop_key_frees_the_slot_of_either_partition() {
        dpdpu_des::block_on(async {
            let p = Platform::default_bf2();
            let kv = store(&p, 2 * INDEX_ENTRY_BYTES).await;
            for k in 0..4 {
                kv.put(k, b"v").await.unwrap();
            }
            assert!(kv.drop_key(3), "a host entry");
            assert_eq!(kv.partition_sizes(), (2, 1));
            assert!(kv.drop_key(0), "a DPU entry");
            assert_eq!(kv.partition_sizes(), (1, 1));
            assert_eq!(kv.dpu_heat.borrow().len(), 1);
            kv.put(4, b"v").await.unwrap();
            assert_eq!(kv.residency(4), Residency::Dpu, "the freed slot");
            // A promotion dropped in flight gives its slot back, and its
            // landing finds nothing to place.
            for _ in 0..PROMOTION_MARGIN_GETS {
                kv.get(2).await.unwrap();
            }
            assert!(kv.promote_if_hot(2, &p.host_dpu_pcie));
            assert!(kv.drop_key(2), "a promoting entry");
            assert_eq!(kv.partition_sizes(), (1, 1));
            dpdpu_des::sleep(1_000_000).await;
            assert_eq!(kv.residency(2), Residency::Missing);
            assert_eq!(kv.partition_sizes(), (1, 1));
        });
    }

    #[test]
    fn recovery_starts_every_count_at_zero() {
        dpdpu_des::block_on(async {
            let p = Platform::default_bf2();
            let svc = FileService::boot(&p);
            let kv = KvStore::create(svc.clone(), p.dpu_mem.clone(), 1 << 20, "kv.log")
                .await
                .unwrap();
            for k in 0..8u64 {
                kv.put(k, b"v").await.unwrap();
                kv.get(k).await.unwrap();
            }
            drop(kv);
            let kv = KvStore::recover(svc, p.dpu_mem.clone(), 1 << 20, "kv.log")
                .await
                .unwrap();
            assert!(kv.index.borrow().values().all(|e| e.gets == 0));
            let heat = kv.dpu_heat.borrow();
            assert_eq!(heat.iter().map(|&(gets, _)| gets).max(), Some(0));
        });
    }

    /// One DPU slot, held by key 0; key 1, host-resident, leads it by
    /// [`PROMOTION_MARGIN_GETS`] gets.
    async fn a_swap_ready(p: &Rc<Platform>) -> Rc<KvStore> {
        let kv = store(p, INDEX_ENTRY_BYTES).await;
        kv.put(0, b"dpu").await.unwrap();
        kv.put(1, b"host").await.unwrap();
        for _ in 0..PROMOTION_MARGIN_GETS {
            kv.get(1).await.unwrap();
        }
        kv
    }

    /// A put the DPU ordered for `key`, spawned as the server runs it:
    /// its ticket is taken at once, and the put is in flight on return.
    async fn dpu_ordered_put(kv: &Rc<KvStore>, key: u64) -> dpdpu_des::JoinHandle<()> {
        let ticket = kv.order_on_dpu(key);
        let kv = kv.clone();
        let put = spawn(async move {
            kv.put_ordered(key, b"ordered", Some(ticket)).await.unwrap();
        });
        dpdpu_des::sleep(1_000).await;
        put
    }

    #[test]
    fn a_swap_waits_for_the_dpu_ordered_puts_of_its_victim() {
        dpdpu_des::block_on(async {
            let p = Platform::default_bf2();
            let kv = a_swap_ready(&p).await;
            let put = dpu_ordered_put(&kv, 0).await;
            assert_eq!(kv.index.borrow()[&0].dpu_puts, 1, "the put is in flight");
            assert!(
                !kv.promote_if_hot(1, &p.host_dpu_pcie),
                "the victim has a DPU-ordered put in flight"
            );
            assert_eq!(kv.residency(0), Residency::Dpu);
            put.await;
            assert_eq!(
                kv.index.borrow()[&0].dpu_puts,
                0,
                "the put gave its count back"
            );
            assert_eq!(kv.index_promotions.get(), 0);
            // The next host get of the hot key swaps.
            serve_get(&kv, &p, 1).await;
            assert_eq!(kv.index_promotions.get(), 1);
            assert_eq!(kv.residency(0), Residency::Host);
            assert_eq!(
                kv.get(0).await.unwrap().unwrap(),
                Bytes::from_static(b"ordered")
            );
        });
    }

    #[test]
    fn a_put_to_a_promoting_key_routes_to_the_host() {
        dpdpu_des::block_on(async {
            let p = Platform::default_bf2();
            let kv = a_swap_ready(&p).await;
            assert!(kv.promote_if_hot(1, &p.host_dpu_pcie));
            // `Dds::wants_dpu` routes a put by this residency.
            assert_eq!(kv.residency(1), Residency::Host, "promoting");
            kv.put(1, b"host-2").await.unwrap();
            dpdpu_des::sleep(1_000_000).await;
            assert_eq!(kv.residency(1), Residency::Dpu, "landed");
        });
    }

    #[test]
    fn a_failed_dpu_ordered_put_gives_its_count_back() {
        let guard = dpdpu_faults::SessionGuard::new(dpdpu_faults::FaultPlan::new(9));
        let faults = guard.session.clone();
        dpdpu_des::block_on(async move {
            let p = Platform::default_bf2();
            let kv = a_swap_ready(&p).await;
            let ticket = kv.order_on_dpu(0);
            assert!(!kv.promote_if_hot(1, &p.host_dpu_pcie), "counted");
            // One more failure than the file service retries.
            faults.arm(dpdpu_faults::FaultSite::SsdWrite, 0, 4);
            assert!(kv.put_ordered(0, b"lost", Some(ticket)).await.is_err());
            assert!(kv.promote_if_hot(1, &p.host_dpu_pcie), "given back");
        });
        drop(guard);
    }

    /// The planted violation: a swap that ignores the victim's count
    /// trips the put's index update.
    #[test]
    #[should_panic(expected = "left the DPU under a DPU-ordered put")]
    fn a_swap_past_a_dpu_ordered_put_trips_its_index_update() {
        dpdpu_des::block_on(async {
            let p = Platform::default_bf2();
            let kv = a_swap_ready(&p).await;
            let put = dpu_ordered_put(&kv, 0).await;
            kv.swap(1, 0, &p.host_dpu_pcie);
            put.await;
        });
    }

    /// Fig. 9's sweep: 128 keys preloaded in order, then 1 024 gets of
    /// its xorshift64 stream. Its counts differ by chance alone, and at
    /// no coverage does a swap fire.
    #[test]
    fn fig9s_uniform_stream_makes_no_swap() {
        for slots in [32u64, 64, 96] {
            let promotions = dpdpu_des::block_on(async move {
                let p = Platform::default_bf2();
                let kv = store(&p, slots * INDEX_ENTRY_BYTES).await;
                for k in 0..128u64 {
                    kv.put(k, b"v").await.unwrap();
                }
                let mut x = 0x2545F491u64;
                for _ in 0..1_024 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    serve_get(&kv, &p, x % 128).await;
                }
                kv.index_promotions.get()
            });
            assert_eq!(promotions, 0, "{slots} slots");
        }
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
