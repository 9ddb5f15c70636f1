//! Caching in the DPU-backed file system (paper §9, "Caching in
//! DPU-backed file system").
//!
//! DDS ships cache-less; the paper's next step is to add caching with a
//! twist: *where* a page is cached matters — host memory serves host
//! applications best, DPU memory serves offloaded remote requests best,
//! and the two capacities must be split per workload. This module
//! provides the building block: a real LRU page cache with explicit
//! capacity accounting against a [`Memory`] pool, plus a cached wrapper
//! around the file service so both placements can be composed and swept
//! (ablation A3).

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use dpdpu_des::Counter;
use dpdpu_hw::{CpuPool, Memory, MemoryReservation};

use crate::fs::{FileId, FsError};
use crate::service::FileService;

/// Cache key: (file, aligned offset).
type Key = (u64, u64);

/// An LRU cache of fixed-size pages with memory-pool accounting.
pub struct PageCache {
    page_size: u64,
    capacity_pages: usize,
    map: RefCell<HashMap<Key, (Vec<u8>, u64)>>, // value + recency stamp
    order: RefCell<VecDeque<(Key, u64)>>,       // lazy-deleted LRU queue
    clock: std::cell::Cell<u64>,
    _reservation: Option<MemoryReservation>,
    /// Cache hits.
    pub hits: Counter,
    /// Cache misses.
    pub(crate) misses: Counter,
    /// Evictions performed.
    pub(crate) evictions: Counter,
}

impl PageCache {
    /// Creates a cache of `capacity_pages` pages of `page_size` bytes,
    /// reserving the space from `pool` (fails if it does not fit — the
    /// DPU's 16 GB is a hard wall).
    pub fn new(
        pool: &Memory,
        capacity_pages: usize,
        page_size: u64,
    ) -> Result<Rc<Self>, dpdpu_hw::MemoryError> {
        let reservation = if capacity_pages > 0 {
            Some(pool.try_reserve(capacity_pages as u64 * page_size)?)
        } else {
            None
        };
        Ok(Rc::new(PageCache {
            page_size,
            capacity_pages,
            map: RefCell::new(HashMap::new()),
            order: RefCell::new(VecDeque::new()),
            clock: std::cell::Cell::new(0),
            _reservation: reservation,
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
        }))
    }

    fn tick(&self) -> u64 {
        let t = self.clock.get() + 1;
        self.clock.set(t);
        t
    }

    /// Looks up a page, refreshing its recency.
    pub fn get(&self, file: FileId, offset: u64) -> Option<Vec<u8>> {
        debug_assert_eq!(offset % self.page_size, 0, "cache offsets are page-aligned");
        let key = (file.0, offset);
        let mut map = self.map.borrow_mut();
        match map.get_mut(&key) {
            Some((data, stamp)) => {
                let t = self.tick();
                *stamp = t;
                self.order.borrow_mut().push_back((key, t));
                self.hits.inc();
                Some(data.clone())
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Inserts a page, evicting the least-recently-used page if full.
    pub fn put(&self, file: FileId, offset: u64, data: Vec<u8>) {
        if self.capacity_pages == 0 {
            return;
        }
        debug_assert_eq!(offset % self.page_size, 0, "cache offsets are page-aligned");
        debug_assert!(
            data.len() as u64 <= self.page_size,
            "page larger than cache slot"
        );
        let key = (file.0, offset);
        let t = self.tick();
        let mut map = self.map.borrow_mut();
        let mut order = self.order.borrow_mut();
        if map.insert(key, (data, t)).is_none() {
            while map.len() > self.capacity_pages {
                // Pop stale queue entries until a live LRU victim appears.
                let Some((victim, stamp)) = order.pop_front() else {
                    break;
                };
                let live = map.get(&victim).map(|(_, s)| *s == stamp).unwrap_or(false);
                if live {
                    map.remove(&victim);
                    self.evictions.inc();
                }
            }
        }
        order.push_back((key, t));
    }

    /// Drops a page (on write, for write-invalidate consistency).
    pub fn invalidate(&self, file: FileId, offset: u64) {
        self.map.borrow_mut().remove(&(file.0, offset));
    }
}

/// A page-granular cached view over the DPU file service.
///
/// `cpu` is whichever processor performs the cache lookup (DPU cores for
/// offloaded remote requests, host cores for local applications); a hit
/// costs a few hundred cycles instead of an SSD round trip. The view is
/// read-only: a writer invalidates the page itself, as the DDS page
/// server does under its epoch guard.
pub struct CachedFileService {
    service: Rc<FileService>,
    cache: Rc<PageCache>,
    cpu: Rc<CpuPool>,
    page_size: u64,
}

/// Cycles to probe + copy out of the cache on a hit.
const CACHE_HIT_CYCLES: u64 = 400;

impl CachedFileService {
    /// Wraps `service` with `cache`, charging lookups to `cpu`.
    pub fn new(service: Rc<FileService>, cache: Rc<PageCache>, cpu: Rc<CpuPool>) -> Rc<Self> {
        let page_size = cache.page_size;
        Rc::new(CachedFileService {
            service,
            cache,
            cpu,
            page_size,
        })
    }

    /// The cache (for statistics).
    pub fn cache(&self) -> &Rc<PageCache> {
        &self.cache
    }

    /// Reads one `page_size`-aligned page through the cache.
    pub async fn read_page(&self, file: FileId, offset: u64) -> Result<Vec<u8>, FsError> {
        assert_eq!(offset % self.page_size, 0, "cached reads are page-aligned");
        self.cpu.exec(CACHE_HIT_CYCLES).await;
        if let Some(data) = self.cache.get(file, offset) {
            return Ok(data);
        }
        let data = self.service.read(file, offset, self.page_size).await?;
        self.cache.put(file, offset, data.clone());
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockdev::BlockDevice;
    use crate::fs::ExtentFs;
    use dpdpu_des::{now, Sim};
    use dpdpu_hw::Platform;

    #[test]
    fn lru_evicts_oldest() {
        let mem = Memory::new(1 << 20);
        let cache = PageCache::new(&mem, 2, 4_096).unwrap();
        let f = FileId(1);
        cache.put(f, 0, vec![0u8; 4_096]);
        cache.put(f, 4_096, vec![1u8; 4_096]);
        // Touch page 0 so page 1 becomes LRU.
        assert!(cache.get(f, 0).is_some());
        cache.put(f, 8_192, vec![2u8; 4_096]);
        assert_eq!(cache.map.borrow().len(), 2);
        assert!(cache.get(f, 0).is_some(), "recently-used page survives");
        assert!(cache.get(f, 4_096).is_none(), "LRU page evicted");
        assert_eq!(cache.evictions.get(), 1);
    }

    #[test]
    fn capacity_reserved_from_pool() {
        let mem = Memory::new(10 * 4_096);
        let _cache = PageCache::new(&mem, 8, 4_096).unwrap();
        assert_eq!(mem.used(), 8 * 4_096);
        assert!(PageCache::new(&mem, 8, 4_096).is_err(), "pool exhausted");
    }

    #[test]
    fn zero_capacity_cache_never_stores() {
        let mem = Memory::new(1 << 20);
        let cache = PageCache::new(&mem, 0, 4_096).unwrap();
        cache.put(FileId(1), 0, vec![1u8; 16]);
        assert!(cache.map.borrow().is_empty());
        assert_eq!(mem.used(), 0);
    }

    #[test]
    fn cached_reads_skip_the_ssd() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let fs = ExtentFs::format(BlockDevice::new(p.ssd.clone(), 1 << 16));
            let svc = FileService::new(fs, p.dpu_cpu.clone(), p.dpu_ssd_pcie.clone());
            let file = svc.create("f").await.unwrap();
            svc.write(file, 0, &vec![3u8; 8_192]).await.unwrap();

            let cache = PageCache::new(&p.dpu_mem, 16, 8_192).unwrap();
            let cached = CachedFileService::new(svc, cache, p.dpu_cpu.clone());

            let t0 = now();
            let a = cached.read_page(file, 0).await.unwrap();
            let cold = now() - t0;
            let t1 = now();
            let b = cached.read_page(file, 0).await.unwrap();
            let warm = now() - t1;
            assert_eq!(a, b);
            assert_eq!(a, vec![3u8; 8_192]);
            assert!(
                warm * 10 < cold,
                "hit must be >10x faster: cold={cold} warm={warm}"
            );
            assert_eq!(cached.cache().hits.get(), 1);
            assert_eq!(cached.cache().misses.get(), 1);
        });
        sim.run();
    }
}
