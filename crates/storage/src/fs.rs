//! An extent-based file system over the block device.
//!
//! This is the "unified file system" of DDS (paper §9, Q1): the file
//! mapping — name → inode → extents → LBAs — lives with whoever runs the
//! file service (the DPU in DPDPU), which is what lets remote requests be
//! served without consulting the host. Metadata is kept in service
//! memory, as DDS does; data blocks live on the (simulated) SSD and are
//! fully content-faithful.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use dpdpu_des::Semaphore;

use crate::blockdev::{BlockDevice, BLOCK_SIZE};

/// A file handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileId(pub u64);

/// File-system errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// No such file.
    NotFound,
    /// Name already exists.
    AlreadyExists,
    /// Device is full.
    NoSpace,
    /// Read beyond end of file.
    BadRange {
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Actual file size.
        size: u64,
    },
    /// The device reported an I/O error (possibly injected).
    Io(dpdpu_hw::IoError),
}

impl From<dpdpu_hw::IoError> for FsError {
    fn from(e: dpdpu_hw::IoError) -> Self {
        FsError::Io(e)
    }
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NotFound => f.write_str("file not found"),
            FsError::AlreadyExists => f.write_str("file already exists"),
            FsError::NoSpace => f.write_str("device full"),
            FsError::BadRange { offset, len, size } => {
                write!(f, "range {offset}+{len} beyond EOF {size}")
            }
            FsError::Io(e) => write!(f, "device i/o error: {e}"),
        }
    }
}

impl std::error::Error for FsError {}

#[derive(Debug, Clone, Copy)]
struct Extent {
    lba: u64,
    blocks: u64,
}

struct Inode {
    size: u64,
    /// Each extent with the logical index one past its last block, so
    /// the last entry carries the file's block total.
    extents: Vec<(u64, Extent)>,
    /// Serializes writers (FIFO): concurrent writers to one file would
    /// otherwise lose updates in the partial-block read-modify-write.
    write_lock: Semaphore,
}

impl Inode {
    /// LBA of logical block `idx`, and the run of physically-contiguous
    /// blocks starting there, capped at `max`.
    fn locate(&self, idx: u64, max: u64) -> (u64, u64) {
        let at = self.extents.partition_point(|&(end, _)| end <= idx);
        let Some(&(end, e)) = self.extents.get(at) else {
            panic!("logical block {idx} beyond allocation");
        };
        let left = end - idx;
        (e.lba + e.blocks - left, left.min(max))
    }
}

/// The extent file system.
pub struct ExtentFs {
    dev: Rc<BlockDevice>,
    inodes: RefCell<HashMap<u64, Inode>>,
    dir: RefCell<HashMap<String, u64>>,
    next_id: Cell<u64>,
    next_lba: Cell<u64>,
    free: RefCell<Vec<Extent>>,
}

impl ExtentFs {
    /// Formats a file system over a device.
    pub fn format(dev: Rc<BlockDevice>) -> Rc<Self> {
        Rc::new(ExtentFs {
            dev,
            inodes: RefCell::new(HashMap::new()),
            dir: RefCell::new(HashMap::new()),
            next_id: Cell::new(1),
            next_lba: Cell::new(0),
            free: RefCell::new(Vec::new()),
        })
    }

    /// The underlying device.
    pub fn device(&self) -> &Rc<BlockDevice> {
        &self.dev
    }

    /// Creates an empty file.
    pub fn create(&self, name: &str) -> Result<FileId, FsError> {
        let mut dir = self.dir.borrow_mut();
        if dir.contains_key(name) {
            return Err(FsError::AlreadyExists);
        }
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        dir.insert(name.to_string(), id);
        self.inodes.borrow_mut().insert(
            id,
            Inode {
                size: 0,
                extents: Vec::new(),
                write_lock: Semaphore::new(1),
            },
        );
        Ok(FileId(id))
    }

    /// Looks up a file by name.
    pub fn open(&self, name: &str) -> Result<FileId, FsError> {
        self.dir
            .borrow()
            .get(name)
            .map(|&id| FileId(id))
            .ok_or(FsError::NotFound)
    }

    /// Deletes a file, returning its blocks to the allocator.
    pub fn delete(&self, name: &str) -> Result<(), FsError> {
        let id = self
            .dir
            .borrow_mut()
            .remove(name)
            .ok_or(FsError::NotFound)?;
        let inode = self
            .inodes
            .borrow_mut()
            .remove(&id)
            .expect("inode for dir entry");
        let mut free = self.free.borrow_mut();
        for (_, e) in inode.extents {
            for b in 0..e.blocks {
                self.dev.trim(e.lba + b);
            }
            free.push(e);
        }
        Ok(())
    }

    /// Current size of a file in bytes.
    pub fn size(&self, id: FileId) -> Result<u64, FsError> {
        self.inodes
            .borrow()
            .get(&id.0)
            .map(|i| i.size)
            .ok_or(FsError::NotFound)
    }

    fn allocate(&self, blocks: u64) -> Result<Extent, FsError> {
        // First fit from the free list.
        {
            let mut free = self.free.borrow_mut();
            if let Some(pos) = free.iter().position(|e| e.blocks >= blocks) {
                let e = free[pos];
                if e.blocks == blocks {
                    free.swap_remove(pos);
                    return Ok(e);
                }
                free[pos] = Extent {
                    lba: e.lba + blocks,
                    blocks: e.blocks - blocks,
                };
                return Ok(Extent { lba: e.lba, blocks });
            }
        }
        let lba = self.next_lba.get();
        if lba + blocks > self.dev.capacity_blocks() {
            return Err(FsError::NoSpace);
        }
        self.next_lba.set(lba + blocks);
        Ok(Extent { lba, blocks })
    }

    /// [`Inode::locate`] on a file the caller has checked exists.
    fn locate(&self, id: FileId, idx: u64, max: u64) -> (u64, u64) {
        let inodes = self.inodes.borrow();
        let inode = inodes.get(&id.0).expect("caller checked the file exists");
        inode.locate(idx, max)
    }

    /// Writes `data` at `offset`, growing the file as needed. Partial
    /// first/last blocks are read-modify-written; aligned middles go down
    /// in contiguous multi-block I/Os.
    pub async fn write(&self, id: FileId, offset: u64, data: &[u8]) -> Result<(), FsError> {
        if data.is_empty() {
            return Ok(());
        }
        // Partial-block writes read-modify-write shared blocks and must
        // not interleave.
        let lock = match self.inodes.borrow().get(&id.0) {
            Some(inode) => inode.write_lock.acquire(),
            None => return Err(FsError::NotFound),
        };
        let _guard = lock.await;
        let end = offset + data.len() as u64;
        // Grow allocation to cover the end.
        {
            let mut inodes = self.inodes.borrow_mut();
            let inode = inodes.get_mut(&id.0).ok_or(FsError::NotFound)?;
            let need_blocks = end.div_ceil(BLOCK_SIZE as u64);
            let have = inode.extents.last().map_or(0, |&(end, _)| end);
            if need_blocks > have {
                let extent = self.allocate(need_blocks - have)?;
                inode.extents.push((need_blocks, extent));
            }
            if end > inode.size {
                inode.size = end;
            }
        }

        let bs = BLOCK_SIZE as u64;
        let mut cursor = offset;
        let mut remaining = data;
        while !remaining.is_empty() {
            let block_idx = cursor / bs;
            let in_block = (cursor % bs) as usize;
            let take = remaining.len().min(BLOCK_SIZE - in_block);
            let (lba, run) = self.locate(id, block_idx, u64::MAX);
            if in_block == 0 && take == BLOCK_SIZE {
                // Aligned: batch as many contiguous full blocks as we can.
                let full_blocks = ((remaining.len() / BLOCK_SIZE) as u64).min(run);
                let bytes = (full_blocks * bs) as usize;
                self.dev.write_blocks(lba, &remaining[..bytes]).await?;
                cursor += bytes as u64;
                remaining = &remaining[bytes..];
            } else {
                // Partial block: read-modify-write.
                let mut block = self.dev.read_blocks(lba, 1).await?;
                block[in_block..in_block + take].copy_from_slice(&remaining[..take]);
                self.dev.write_blocks(lba, &block).await?;
                cursor += take as u64;
                remaining = &remaining[take..];
            }
        }
        Ok(())
    }

    /// Reads `len` bytes at `offset` (must be within the file).
    pub async fn read(&self, id: FileId, offset: u64, len: u64) -> Result<Vec<u8>, FsError> {
        let size = self.size(id)?;
        if offset + len > size {
            return Err(FsError::BadRange { offset, len, size });
        }
        if len == 0 {
            return Ok(Vec::new());
        }
        let bs = BLOCK_SIZE as u64;
        let mut out = Vec::with_capacity(len as usize);
        let mut cursor = offset;
        let end = offset + len;
        while cursor < end {
            let block_idx = cursor / bs;
            let in_block = cursor % bs;
            let blocks_needed = (end - cursor + in_block).div_ceil(bs);
            let (lba, run) = self.locate(id, block_idx, blocks_needed);
            let chunk = self.dev.read_blocks(lba, run).await?;
            let skip = in_block as usize;
            let want = ((end - cursor) as usize).min(chunk.len() - skip);
            out.extend_from_slice(&chunk[skip..skip + want]);
            cursor += want as u64;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_des::Sim;
    use dpdpu_hw::Ssd;

    fn fs() -> Rc<ExtentFs> {
        ExtentFs::format(BlockDevice::new(Ssd::new("t"), 1 << 16))
    }

    /// The physical extent list of a file: `(lba, blocks)` per extent.
    fn extent_map(fs: &ExtentFs, id: FileId) -> Vec<(u64, u64)> {
        let inodes = fs.inodes.borrow();
        let inode = inodes.get(&id.0).expect("file exists");
        inode
            .extents
            .iter()
            .map(|(_, e)| (e.lba, e.blocks))
            .collect()
    }

    fn run_fs_test<F, Fut>(f: F)
    where
        F: FnOnce(Rc<ExtentFs>) -> Fut + 'static,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        let mut sim = Sim::new();
        let fsys = fs();
        sim.spawn(async move { f(fsys).await });
        sim.run();
    }

    #[test]
    fn create_write_read() {
        run_fs_test(|fs| async move {
            let id = fs.create("table.db").unwrap();
            let data: Vec<u8> = (0..20_000u32).map(|i| (i % 241) as u8).collect();
            fs.write(id, 0, &data).await.unwrap();
            assert_eq!(fs.size(id).unwrap(), 20_000);
            let back = fs.read(id, 0, 20_000).await.unwrap();
            assert_eq!(back, data);
        });
    }

    #[test]
    fn unaligned_overwrite() {
        run_fs_test(|fs| async move {
            let id = fs.create("f").unwrap();
            fs.write(id, 0, &vec![0xAA; 10_000]).await.unwrap();
            fs.write(id, 1_000, &vec![0xBB; 3_000]).await.unwrap();
            let back = fs.read(id, 0, 10_000).await.unwrap();
            assert!(back[..1_000].iter().all(|&b| b == 0xAA));
            assert!(back[1_000..4_000].iter().all(|&b| b == 0xBB));
            assert!(back[4_000..].iter().all(|&b| b == 0xAA));
        });
    }

    #[test]
    fn sparse_grow_via_offset_write() {
        run_fs_test(|fs| async move {
            let id = fs.create("f").unwrap();
            fs.write(id, 100_000, b"tail").await.unwrap();
            assert_eq!(fs.size(id).unwrap(), 100_004);
            let back = fs.read(id, 99_998, 6).await.unwrap();
            assert_eq!(&back, &[0, 0, b't', b'a', b'i', b'l']);
        });
    }

    #[test]
    fn read_past_eof_rejected() {
        run_fs_test(|fs| async move {
            let id = fs.create("f").unwrap();
            fs.write(id, 0, b"0123456789").await.unwrap();
            let err = fs.read(id, 5, 10).await.unwrap_err();
            assert_eq!(
                err,
                FsError::BadRange {
                    offset: 5,
                    len: 10,
                    size: 10
                }
            );
        });
    }

    #[test]
    fn directory_semantics() {
        run_fs_test(|fs| async move {
            let a = fs.create("a").unwrap();
            assert_eq!(fs.create("a").unwrap_err(), FsError::AlreadyExists);
            assert_eq!(fs.open("a").unwrap(), a);
            assert_eq!(fs.open("b").unwrap_err(), FsError::NotFound);
            fs.delete("a").unwrap();
            assert_eq!(fs.open("a").unwrap_err(), FsError::NotFound);
            assert_eq!(fs.delete("a").unwrap_err(), FsError::NotFound);
        });
    }

    #[test]
    fn deleted_blocks_are_reused() {
        run_fs_test(|fs| async move {
            let a = fs.create("a").unwrap();
            fs.write(a, 0, &vec![1u8; BLOCK_SIZE * 8]).await.unwrap();
            let map_a = extent_map(&fs, a);
            fs.delete("a").unwrap();
            let b = fs.create("b").unwrap();
            fs.write(b, 0, &vec![2u8; BLOCK_SIZE * 4]).await.unwrap();
            let map_b = extent_map(&fs, b);
            assert_eq!(map_b[0].0, map_a[0].0, "freed extent should be reused");
        });
    }

    #[test]
    fn extent_map_covers_file() {
        run_fs_test(|fs| async move {
            let id = fs.create("f").unwrap();
            fs.write(id, 0, &vec![7u8; 50_000]).await.unwrap();
            let blocks: u64 = extent_map(&fs, id).iter().map(|(_, n)| n).sum();
            assert_eq!(blocks, 50_000u64.div_ceil(BLOCK_SIZE as u64));
        });
    }

    #[test]
    fn device_full_reports_no_space() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let fs = ExtentFs::format(BlockDevice::new(Ssd::new("t"), 4));
            let id = fs.create("f").unwrap();
            let err = fs
                .write(id, 0, &vec![0u8; BLOCK_SIZE * 8])
                .await
                .unwrap_err();
            assert_eq!(err, FsError::NoSpace);
        });
        sim.run();
    }

    #[test]
    fn concurrent_subblock_appends_do_not_lose_updates() {
        run_fs_test(|fs| async move {
            let id = fs.create("log").unwrap();
            // 16 concurrent 100-byte appends at pre-reserved disjoint
            // offsets, all inside the same 4 KB block.
            let mut handles = Vec::new();
            for i in 0..16u64 {
                let fs = fs.clone();
                handles.push(dpdpu_des::spawn(async move {
                    fs.write(id, i * 100, &[i as u8 + 1; 100]).await.unwrap();
                }));
            }
            dpdpu_des::join_all(handles).await;
            let data = fs.read(id, 0, 1_600).await.unwrap();
            for i in 0..16usize {
                assert!(
                    data[i * 100..(i + 1) * 100]
                        .iter()
                        .all(|&b| b == i as u8 + 1),
                    "append {i} lost in RMW race"
                );
            }
        });
    }

    /// Reproducer, not fixed in the PR that added it: `write` pushes a new
    /// extent for every growth even when the allocator hands back the
    /// blocks right after the file's last one, so an append-only log is
    /// one extent per append and a value straddling two of them costs two
    /// serial device reads (160 µs instead of 78 µs for a 4 KiB KV value).
    /// Merging adjacent extents moves every KV golden.
    #[test]
    #[ignore = "ROADMAP item 3"]
    fn appended_file_stays_one_extent() {
        run_fs_test(|fs| async move {
            let id = fs.create("log").unwrap();
            // A KV log: 12-byte header + 4 KiB value per record.
            for k in 0..64u64 {
                fs.write(id, k * 4_108, &[k as u8; 4_108]).await.unwrap();
            }
            let extents = extent_map(&fs, id).len();
            let ssd = fs.device().ssd().clone();
            let reads_before = ssd.reads.get();
            // The last record's value straddles blocks 63 and 64.
            let value = fs.read(id, 63 * 4_108 + 12, 4_096).await.unwrap();
            assert_eq!(value, vec![63u8; 4_096]);
            assert_eq!(
                (extents, ssd.reads.get() - reads_before),
                (1, 1),
                "(extents of a lone appended file, device reads for one value)"
            );
        });
    }

    #[test]
    fn many_files_round_trip() {
        run_fs_test(|fs| async move {
            let mut ids = Vec::new();
            for i in 0..50 {
                let id = fs.create(&format!("file-{i}")).unwrap();
                let data = vec![i as u8; 1_000 + i * 37];
                fs.write(id, 0, &data).await.unwrap();
                ids.push((id, data));
            }
            for (id, data) in ids {
                let back = fs.read(id, 0, data.len() as u64).await.unwrap();
                assert_eq!(back, data);
            }
            assert_eq!(fs.dir.borrow().len(), 50);
        });
    }
}
