//! A Hyperscale-style page server over the DPU file service.
//!
//! Cloud-native DBMSs (Socrates/Hyperscale, Aurora) reflect transaction
//! updates on disaggregated storage with **log replay**: the compute tier
//! ships WAL records, page servers apply them to page images, and serve
//! `GetPage` requests. The paper (§7) points out that replay state is
//! far too large for DPU memory — so DDS serves *clean* pages from the
//! DPU and forwards requests touching *dirty* pages (those with pending
//! log) to the host, which holds the replay state.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use bytes::Bytes;

use dpdpu_des::Counter;
use dpdpu_hw::CpuPool;
use dpdpu_storage::{FileId, FileService, FsError, PageCache, RecordLog};

/// Host CPU cycles to apply one log record to a page image (lookup,
/// LSN checks, memcpy, bookkeeping).
pub(crate) const REPLAY_CYCLES_PER_RECORD: u64 = 20_000;

/// Bytes per page, the Hyperscale page size.
pub(crate) const PAGE_SIZE: u64 = 8_192;

/// One pending WAL record.
#[derive(Debug, Clone)]
pub(crate) struct LogRecord {
    /// Byte offset within the page.
    pub(crate) offset: u32,
    /// Replacement bytes.
    pub(crate) delta: Bytes,
}

/// The page server.
pub struct PageServer {
    service: Rc<FileService>,
    pages: FileId,
    wal: RecordLog,
    pending: RefCell<HashMap<u64, Vec<LogRecord>>>,
    /// Optional DPU-memory page cache in front of the SSD (§9 "caching
    /// in DPU-backed file system"); write-invalidated by log arrival.
    cache: Option<Rc<PageCache>>,
    /// Per-page invalidation epoch, bumped by every log arrival. A read
    /// snapshots the epoch before awaiting the SSD and only installs its
    /// image into the cache if the epoch is unchanged afterwards —
    /// otherwise a `cache.put` landing after a concurrent `invalidate`
    /// would re-insert a stale image.
    epochs: RefCell<HashMap<u64, u64>>,
    /// WAL records appended.
    pub(crate) log_records: Counter,
    /// Records replayed into page images.
    pub replayed: Counter,
}

impl PageServer {
    /// A server over existing files; the next WAL record goes at the
    /// end of `wal`.
    fn new(
        service: Rc<FileService>,
        pages: FileId,
        wal: FileId,
        cache: Option<Rc<PageCache>>,
    ) -> Result<Rc<Self>, FsError> {
        Ok(Rc::new(PageServer {
            wal: RecordLog::open(service.clone(), wal)?,
            service,
            pages,
            pending: RefCell::new(HashMap::new()),
            cache,
            epochs: RefCell::new(HashMap::new()),
            log_records: Counter::new(),
            replayed: Counter::new(),
        }))
    }

    /// Recovers a page server from its durable files after a crash (§9
    /// "coordinated recovery"). The WAL is scanned from the last
    /// checkpoint and every record re-queued as pending replay. Records
    /// that had already been applied may be re-applied — safe, because
    /// log records are physical byte replacements applied in log order
    /// (redo is idempotent).
    pub async fn recover(
        service: Rc<FileService>,
        cache: Option<Rc<PageCache>>,
    ) -> Result<Rc<Self>, FsError> {
        let pages = service.open("pages.db").await?;
        let wal = service.open("pages.wal").await?;
        // Last durable checkpoint (0 when none was ever taken).
        let ckpt = match service.fs().open("pages.ckpt") {
            Ok(f) => {
                let bytes = service.read(f, 0, 8).await?;
                u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
            }
            Err(_) => 0,
        };
        let ps = Self::new(service, pages, wal, cache)?;
        // Redo scan: [page u64][offset u32][len u32][delta]. A torn tail
        // record ends it: that append was never acked.
        for (header, delta) in ps.wal.walk(ckpt, 16).await? {
            let page_id = u64::from_le_bytes(header[0..8].try_into().expect("8 bytes"));
            let offset = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
            let delta = Bytes::from(delta);
            let mut pending = ps.pending.borrow_mut();
            let records = pending.entry(page_id).or_default();
            records.push(LogRecord { offset, delta });
        }
        Ok(ps)
    }

    /// Persists a checkpoint: records that the WAL prefix up to the
    /// current tail has been fully applied to page images. Requires an
    /// empty pending set (all pages clean), so the prefix really is
    /// applied.
    pub async fn checkpoint(&self) -> Result<(), FsError> {
        assert_eq!(self.dirty_pages(), 0, "checkpoint requires full replay");
        let ckpt = match self.service.fs().open("pages.ckpt") {
            Ok(f) => f,
            Err(_) => self.service.create("pages.ckpt").await?,
        };
        self.service
            .write(ckpt, 0, &self.wal.tail().to_le_bytes())
            .await
    }

    /// Creates a page server with `num_pages` zeroed 8 KiB pages
    /// (`PAGE_SIZE`) and an optional DPU-memory page cache.
    pub async fn with_cache(
        service: Rc<FileService>,
        num_pages: u64,
        cache: Option<Rc<PageCache>>,
    ) -> Result<Rc<Self>, FsError> {
        let pages = service.create("pages.db").await?;
        let wal = service.create("pages.wal").await?;
        // Materialize the file size with one tail write (blocks before it
        // read back as zeros — thin provisioning).
        if num_pages > 0 {
            service
                .write(pages, num_pages * PAGE_SIZE - 1, &[0u8])
                .await?;
        }
        Self::new(service, pages, wal, cache)
    }

    /// Appends one WAL record: durable in the WAL file, then queued for
    /// replay. The page becomes dirty until replay catches up.
    pub async fn append_log(&self, page_id: u64, offset: u32, delta: Bytes) -> Result<(), FsError> {
        assert!(
            offset as u64 + delta.len() as u64 <= PAGE_SIZE,
            "log record exceeds page bounds"
        );
        // Durable WAL append: [page u64][offset u32][len u32][delta].
        let mut rec = Vec::with_capacity(16 + delta.len());
        rec.extend_from_slice(&page_id.to_le_bytes());
        rec.extend_from_slice(&offset.to_le_bytes());
        rec.extend_from_slice(&(delta.len() as u32).to_le_bytes());
        rec.extend_from_slice(&delta);
        self.wal.append(rec).await?;
        self.pending
            .borrow_mut()
            .entry(page_id)
            .or_default()
            .push(LogRecord { offset, delta });
        if let Some(cache) = &self.cache {
            // The cached image is about to go stale. The epoch bump also
            // cancels any in-flight read's pending `cache.put` for this
            // page (it snapshotted the old epoch before its SSD await).
            *self.epochs.borrow_mut().entry(page_id).or_default() += 1;
            cache.invalidate(self.pages, page_id * PAGE_SIZE);
        }
        self.log_records.inc();
        Ok(())
    }

    /// Reads the stored image of `page_id`.
    async fn read_page(&self, page_id: u64) -> Result<Vec<u8>, FsError> {
        self.service
            .read(self.pages, page_id * PAGE_SIZE, PAGE_SIZE)
            .await
    }

    /// Current invalidation epoch of `page_id`.
    fn epoch(&self, page_id: u64) -> u64 {
        self.epochs.borrow().get(&page_id).copied().unwrap_or(0)
    }

    /// True when the page has no pending log — DPU-servable.
    pub(crate) fn is_clean(&self, page_id: u64) -> bool {
        !self.pending.borrow().contains_key(&page_id)
    }

    /// The records pending replay on `page_id`, in log order, as
    /// `(offset in page, bytes)`.
    pub fn pending(&self, page_id: u64) -> Vec<(u32, Bytes)> {
        let pending = self.pending.borrow();
        let records = pending.get(&page_id).into_iter().flatten();
        records.map(|r| (r.offset, r.delta.clone())).collect()
    }

    /// Pages currently dirty.
    pub fn dirty_pages(&self) -> usize {
        self.pending.borrow().len()
    }

    /// Serves a clean page straight from the DPU.
    ///
    /// # Panics
    /// Panics if the page is dirty — the traffic director must not route
    /// dirty pages here.
    pub(crate) async fn get_page_dpu(&self, page_id: u64) -> Result<Bytes, FsError> {
        assert!(
            self.is_clean(page_id),
            "director routed a dirty page to the DPU"
        );
        let offset = page_id * PAGE_SIZE;
        if let Some(cache) = &self.cache {
            if let Some(data) = cache.get(self.pages, offset) {
                return Ok(Bytes::from(data));
            }
        }
        let epoch = self.epoch(page_id);
        let data = self.read_page(page_id).await?;
        if let Some(cache) = &self.cache {
            // Skip the install if a log record invalidated the page while
            // the read was in flight — the image we hold predates it.
            if self.epoch(page_id) == epoch {
                cache.put(self.pages, offset, data.clone());
            }
        }
        Ok(Bytes::from(data))
    }

    /// Host-side replay of one page's pending records: read the image,
    /// apply deltas (charging host CPU per record), write it back; yields
    /// the image written, or `None` when nothing was pending. The records
    /// are acknowledged state: a replay that fails keeps them, ahead of
    /// anything appended meanwhile, and the page stays dirty.
    pub(crate) async fn replay_page(
        &self,
        page_id: u64,
        host_cpu: &CpuPool,
    ) -> Result<Option<Vec<u8>>, FsError> {
        let Some(records) = self.pending.borrow_mut().remove(&page_id) else {
            return Ok(None);
        };
        let applied = self.apply(page_id, &records, host_cpu).await;
        match applied {
            Ok(_) => self.replayed.add(records.len() as u64),
            Err(_) => {
                let mut pending = self.pending.borrow_mut();
                pending.entry(page_id).or_default().splice(0..0, records);
            }
        }
        applied.map(Some)
    }

    /// Applies `records` to the stored image of `page_id`; yields the
    /// image written.
    async fn apply(
        &self,
        page_id: u64,
        records: &[LogRecord],
        host_cpu: &CpuPool,
    ) -> Result<Vec<u8>, FsError> {
        let base = page_id * PAGE_SIZE;
        let epoch = self.epoch(page_id);
        let mut image = self.read_page(page_id).await?;
        for rec in records {
            host_cpu.exec(REPLAY_CYCLES_PER_RECORD).await;
            let start = rec.offset as usize;
            image[start..start + rec.delta.len()].copy_from_slice(&rec.delta);
        }
        self.service.write(self.pages, base, &image).await?;
        if let Some(cache) = &self.cache {
            // Refresh the cache with the replayed image — unless another
            // log record arrived mid-replay, in which case this image is
            // already missing a delta and must not be cached.
            if self.epoch(page_id) == epoch {
                cache.put(self.pages, base, image.clone());
            }
        }
        Ok(image)
    }

    /// Serves a page via the host: replay first (the host owns the
    /// pending log) and return the image the replay wrote, or read the
    /// stored image when nothing was pending.
    pub(crate) async fn get_page_host(
        &self,
        page_id: u64,
        host_cpu: &CpuPool,
    ) -> Result<Bytes, FsError> {
        let image = match self.replay_page(page_id, host_cpu).await? {
            Some(image) => image,
            None => self.read_page(page_id).await?,
        };
        Ok(Bytes::from(image))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_des::{block_on, Sim};
    use dpdpu_hw::Platform;

    async fn server(p: &Rc<Platform>) -> Rc<PageServer> {
        let svc = FileService::boot(p);
        PageServer::with_cache(svc, 64, None).await.unwrap()
    }

    #[test]
    fn clean_pages_serve_from_dpu() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let ps = server(&p).await;
            assert!(ps.is_clean(3));
            let page = ps.get_page_dpu(3).await.unwrap();
            assert_eq!(page.len() as u64, PAGE_SIZE);
            assert!(page.iter().all(|&b| b == 0));
        });
        sim.run();
    }

    #[test]
    fn log_dirties_page_and_replay_cleans_it() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let ps = server(&p).await;
            ps.append_log(5, 100, Bytes::from_static(b"hello"))
                .await
                .unwrap();
            assert!(!ps.is_clean(5));
            assert_eq!(ps.dirty_pages(), 1);
            ps.replay_page(5, &p.host_cpu).await.unwrap();
            assert!(ps.is_clean(5));
            let page = ps.get_page_dpu(5).await.unwrap();
            assert_eq!(&page[100..105], b"hello");
            assert_eq!(ps.replayed.get(), 1);
        });
        sim.run();
    }

    #[test]
    fn host_get_replays_inline() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let ps = server(&p).await;
            ps.append_log(2, 0, Bytes::from_static(b"AB"))
                .await
                .unwrap();
            ps.append_log(2, 2, Bytes::from_static(b"CD"))
                .await
                .unwrap();
            let before = p.host_cpu.busy_ns();
            let page = ps.get_page_host(2, &p.host_cpu).await.unwrap();
            assert_eq!(&page[0..4], b"ABCD");
            assert!(ps.is_clean(2));
            assert!(p.host_cpu.busy_ns() > before, "replay must cost host CPU");
        });
        sim.run();
    }

    /// The replay hands the image it wrote to the GetPage: one device
    /// read of the stored image, one write of the replayed one, and no
    /// second read.
    #[test]
    fn a_host_get_of_a_dirty_page_reads_it_once() {
        block_on(async {
            let p = Platform::default_bf2();
            let ps = server(&p).await;
            ps.append_log(3, 8, Bytes::from_static(b"page"))
                .await
                .unwrap();
            let (reads, writes) = (p.ssd.reads.get(), p.ssd.writes.get());
            let page = ps.get_page_host(3, &p.host_cpu).await.unwrap();
            assert_eq!(&page[8..12], b"page");
            let cost = (p.ssd.reads.get() - reads, p.ssd.writes.get() - writes);
            assert_eq!(cost, (1, 1), "(device reads, device writes)");
        });
    }

    #[test]
    fn replay_applies_records_in_order() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let ps = server(&p).await;
            ps.append_log(1, 10, Bytes::from_static(b"xxxx"))
                .await
                .unwrap();
            ps.append_log(1, 12, Bytes::from_static(b"YY"))
                .await
                .unwrap();
            let page = ps.get_page_host(1, &p.host_cpu).await.unwrap();
            assert_eq!(&page[10..14], b"xxYY");
        });
        sim.run();
    }

    #[test]
    fn cached_pages_skip_the_ssd_and_stay_fresh() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let svc = FileService::boot(&p);
            let cache = PageCache::new(&p.dpu_mem, 16, PAGE_SIZE).unwrap();
            let ps = PageServer::with_cache(svc, 64, Some(cache.clone()))
                .await
                .unwrap();
            // Cold read fills the cache; warm read hits it.
            ps.get_page_dpu(4).await.unwrap();
            let reads_before = ps.service.fs().device().ssd().reads.get();
            ps.get_page_dpu(4).await.unwrap();
            assert_eq!(
                ps.service.fs().device().ssd().reads.get(),
                reads_before,
                "warm read must not touch the SSD"
            );
            assert_eq!(cache.hits.get(), 1);
            // Log arrival invalidates; after replay the fresh image is
            // served (no stale cache).
            ps.append_log(4, 0, Bytes::from_static(b"NEW"))
                .await
                .unwrap();
            let page = ps.get_page_host(4, &p.host_cpu).await.unwrap();
            assert_eq!(&page[0..3], b"NEW");
            let again = ps.get_page_dpu(4).await.unwrap();
            assert_eq!(&again[0..3], b"NEW", "cache must never serve stale images");
        });
        sim.run();
    }

    #[test]
    fn log_arrival_mid_read_cannot_reinstall_stale_image() {
        // Regression: `append_log` invalidates the cache, but a cold
        // `get_page_dpu` whose SSD read is in flight when the record
        // lands still holds the pre-log image; its `cache.put` executes
        // *after* the invalidate. Without the epoch guard it re-inserts
        // the stale image and later reads serve pre-log bytes.
        //
        // Interleaving (the WAL's first record touches one block that
        // holds no byte below EOF, so the append is one ~17us device
        // write, against ~83us for the 8 KB page read):
        //   t=0     appender starts `append_log(4, ..)`
        //   t=5us   reader starts `get_page_dpu(4)` — page still clean,
        //           pre-log epoch snapshotted, SSD read in flight
        //   t~17us  append completes: pending + epoch bump + invalidate
        //   t~88us  reader's read returns the pre-log image; the install
        //           must be skipped (epoch changed)
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let svc = FileService::boot(&p);
            let cache = PageCache::new(&p.dpu_mem, 16, PAGE_SIZE).unwrap();
            let ps = PageServer::with_cache(svc, 64, Some(cache.clone()))
                .await
                .unwrap();
            let appender = {
                let ps = ps.clone();
                dpdpu_des::spawn(async move {
                    ps.append_log(4, 0, Bytes::from_static(b"NEW"))
                        .await
                        .unwrap();
                })
            };
            dpdpu_des::sleep(5_000).await;
            // The append is mid-flight: durable write not yet complete,
            // so the page is still clean and DPU-routable.
            assert!(ps.is_clean(4), "append must still be in flight");
            let stale = ps.get_page_dpu(4).await.unwrap();
            assert!(stale.iter().all(|&b| b == 0), "read raced the append");
            // The record landed while our read was in flight…
            assert!(!ps.is_clean(4), "append must complete before the read");
            appender.await;
            // …so the guarded install must have been skipped.
            assert!(
                cache.get(ps.pages, 4 * PAGE_SIZE).is_none(),
                "in-flight read re-installed an invalidated image"
            );
            // After replay, reads observe the fresh bytes.
            let page = ps.get_page_host(4, &p.host_cpu).await.unwrap();
            assert_eq!(&page[0..3], b"NEW");
            let again = ps.get_page_dpu(4).await.unwrap();
            assert_eq!(&again[0..3], b"NEW", "cache must never serve stale images");
        });
        sim.run();
    }

    #[test]
    fn recovery_requeues_unapplied_wal() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let svc = FileService::boot(&p);
            {
                let ps = PageServer::with_cache(svc.clone(), 64, None).await.unwrap();
                ps.append_log(3, 10, Bytes::from_static(b"abc"))
                    .await
                    .unwrap();
                ps.append_log(9, 0, Bytes::from_static(b"zz"))
                    .await
                    .unwrap();
                // Crash before any replay.
            }
            let ps = PageServer::recover(svc, None).await.unwrap();
            assert_eq!(ps.dirty_pages(), 2, "both pages need redo");
            let page = ps.get_page_host(3, &p.host_cpu).await.unwrap();
            assert_eq!(&page[10..13], b"abc");
            let page = ps.get_page_host(9, &p.host_cpu).await.unwrap();
            assert_eq!(&page[0..2], b"zz");
        });
        sim.run();
    }

    #[test]
    fn redo_is_idempotent_without_checkpoint() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let svc = FileService::boot(&p);
            {
                let ps = PageServer::with_cache(svc.clone(), 64, None).await.unwrap();
                ps.append_log(1, 0, Bytes::from_static(b"AAAA"))
                    .await
                    .unwrap();
                ps.append_log(1, 2, Bytes::from_static(b"BB"))
                    .await
                    .unwrap();
                // Apply, then crash WITHOUT checkpointing.
                ps.replay_page(1, &p.host_cpu).await.unwrap();
            }
            // Recovery re-applies already-applied records: same image.
            let ps = PageServer::recover(svc, None).await.unwrap();
            assert!(!ps.is_clean(1), "records conservatively requeued");
            let page = ps.get_page_host(1, &p.host_cpu).await.unwrap();
            assert_eq!(&page[0..4], b"AABB");
        });
        sim.run();
    }

    #[test]
    fn checkpoint_skips_applied_prefix() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let svc = FileService::boot(&p);
            {
                let ps = PageServer::with_cache(svc.clone(), 64, None).await.unwrap();
                ps.append_log(5, 0, Bytes::from_static(b"old"))
                    .await
                    .unwrap();
                ps.replay_page(5, &p.host_cpu).await.unwrap();
                ps.checkpoint().await.unwrap();
                // One more record after the checkpoint, then crash.
                ps.append_log(6, 0, Bytes::from_static(b"new"))
                    .await
                    .unwrap();
            }
            let ps = PageServer::recover(svc, None).await.unwrap();
            assert_eq!(
                ps.dirty_pages(),
                1,
                "only the post-checkpoint record redoes"
            );
            assert!(ps.is_clean(5));
            let page = ps.get_page_dpu(5).await.unwrap();
            assert_eq!(&page[0..3], b"old");
            let page = ps.get_page_host(6, &p.host_cpu).await.unwrap();
            assert_eq!(&page[0..3], b"new");
        });
        sim.run();
    }

    /// A replay that fails — at the base-page read or at the write-back —
    /// must keep the acknowledged records: the page stays dirty (so the
    /// director keeps routing it to the host) and the next host read
    /// applies them.
    #[test]
    fn failed_replay_keeps_its_log_records() {
        for fail_writes in [false, true] {
            let _check = dpdpu_check::CheckGuard::new();
            let guard = dpdpu_faults::SessionGuard::new(dpdpu_faults::FaultPlan::new(5));
            let faults = guard.session.clone();
            dpdpu_des::block_on(async move {
                let p = Platform::default_bf2();
                let ps = server(&p).await;
                ps.append_log(4, 0, Bytes::from_static(b"NEW"))
                    .await
                    .unwrap();
                // One more failure than the file service retries.
                if fail_writes {
                    faults.arm(dpdpu_faults::FaultSite::SsdWrite, 0, 4);
                } else {
                    faults.arm(dpdpu_faults::FaultSite::SsdRead, 0, 4);
                }
                assert!(ps.get_page_host(4, &p.host_cpu).await.is_err());
                assert!(!ps.is_clean(4), "acknowledged log records dropped");
                assert_eq!(ps.replayed.get(), 0, "nothing was applied");
                let page = ps.get_page_host(4, &p.host_cpu).await.unwrap();
                assert_eq!(&page[0..3], b"NEW");
                assert!(ps.is_clean(4));
                assert_eq!(ps.replayed.get(), 1);
            });
        }
    }

    #[test]
    #[should_panic(expected = "checkpoint requires full replay")]
    fn checkpoint_with_dirty_pages_rejected() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let ps = server(&p).await;
            ps.append_log(1, 0, Bytes::from_static(b"x")).await.unwrap();
            let _ = ps.checkpoint().await;
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "dirty page")]
    fn dpu_serving_dirty_page_is_a_director_bug() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let ps = server(&p).await;
            ps.append_log(7, 0, Bytes::from_static(b"z")).await.unwrap();
            let _ = ps.get_page_dpu(7).await;
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "exceeds page bounds")]
    fn oversized_record_rejected() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let ps = server(&p).await;
            let _ = ps
                .append_log(0, 8_190, Bytes::from_static(b"toolong"))
                .await;
        });
        sim.run();
    }
}
