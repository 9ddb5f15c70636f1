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
use dpdpu_hw::Ssd;

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
    /// The last block a partial write put on the device, as `(lba,
    /// bytes)`: write-through, so it always equals what the device holds
    /// at that LBA. Only `write`'s read-modify-write consults it.
    last_block: Option<(u64, Box<[u8]>)>,
    /// Serializes writers (FIFO): concurrent writers to one file would
    /// otherwise lose updates in the partial-block read-modify-write.
    write_lock: Semaphore,
}

impl Inode {
    /// An inode with no held block and a free write lock.
    fn new(size: u64, extents: Vec<(u64, Extent)>) -> Self {
        Inode {
            size,
            extents,
            last_block: None,
            write_lock: Semaphore::new(1),
        }
    }

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

    /// The file system a restart after power loss finds, on a fresh
    /// `ssd` timing model: the same names, extents and sizes over a copy
    /// of the device's blocks. The metadata lives with the file service
    /// and holds only what completed writes published (a size moves only
    /// on `Ok`); held blocks and write locks do not survive.
    pub fn restart(&self, ssd: Rc<Ssd>) -> Rc<Self> {
        let inodes = self.inodes.borrow();
        let inodes = inodes
            .iter()
            .map(|(&id, inode)| (id, Inode::new(inode.size, inode.extents.clone())));
        Rc::new(ExtentFs {
            dev: self.dev.restart(ssd),
            inodes: RefCell::new(inodes.collect()),
            dir: self.dir.clone(),
            next_id: self.next_id.clone(),
            next_lba: self.next_lba.clone(),
            free: self.free.clone(),
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
        self.inodes
            .borrow_mut()
            .insert(id, Inode::new(0, Vec::new()));
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

    /// Runs `f` on the inode of a file the caller has checked exists.
    fn with_inode<R>(&self, id: FileId, f: impl FnOnce(&mut Inode) -> R) -> R {
        let mut inodes = self.inodes.borrow_mut();
        f(inodes
            .get_mut(&id.0)
            .expect("caller checked the file exists"))
    }

    /// Writes `data` at `offset`, growing the file as needed. Each
    /// physically contiguous run of blocks the write touches goes down as
    /// one device write; a partial first or last block is
    /// read-modify-written inside its run, and the device is read only for
    /// bytes the write must keep:
    ///
    /// * Every byte at or past EOF is zero on the device, or was left there
    ///   by a write that failed: it was never written, [`delete`](Self::delete)
    ///   trimmed it, or no size ever covered it. So a partial block whose
    ///   kept bytes all lie at or past the size *before this write* starts
    ///   from zeros, with no read.
    /// * The inode holds the last partial block a write put on the device,
    ///   write-through: set only after that block's run succeeded, cleared
    ///   by an error and replaced by any run over it, dropped with the
    ///   inode. The next read-modify-write of that LBA starts from it
    ///   instead of the device, so an append that continues the previous
    ///   one's block reads nothing. [`read`](Self::read) never consults it.
    /// * A growth whose new extent starts at the block right after the
    ///   file's last extent extends that extent, so an appended file stays
    ///   one physically contiguous run, and an append is one device write.
    /// * The new size is published only after every run returned `Ok`, so
    ///   a failed write never grows the file: a reader, or a recovery walk,
    ///   sees only bytes a completed write put there.
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
        let old_size = {
            let mut inodes = self.inodes.borrow_mut();
            let inode = inodes.get_mut(&id.0).ok_or(FsError::NotFound)?;
            let need_blocks = end.div_ceil(BLOCK_SIZE as u64);
            let have = inode.extents.last().map_or(0, |&(end, _)| end);
            if need_blocks > have {
                let extent = self.allocate(need_blocks - have)?;
                match inode.extents.last_mut() {
                    Some((last_end, last)) if last.lba + last.blocks == extent.lba => {
                        *last_end = need_blocks;
                        last.blocks += extent.blocks;
                    }
                    _ => inode.extents.push((need_blocks, extent)),
                }
            }
            inode.size
        };
        let written = self.write_locked(id, offset, data, old_size).await;
        self.with_inode(id, |inode| match written {
            Ok(()) => inode.size = inode.size.max(end),
            Err(_) => inode.last_block = None,
        });
        written
    }

    /// The device half of [`write`](Self::write), under its lock, with the
    /// file's size before this write: one `write_blocks` per physically
    /// contiguous run, gathered from the run's edge blocks and `data`.
    async fn write_locked(
        &self,
        id: FileId,
        offset: u64,
        data: &[u8],
        old_size: u64,
    ) -> Result<(), FsError> {
        let bs = BLOCK_SIZE as u64;
        let end = offset + data.len() as u64;
        let mut cursor = offset;
        while cursor < end {
            let idx = cursor / bs;
            let blocks = (end - idx * bs).div_ceil(bs);
            let (lba, run) = self.with_inode(id, |inode| inode.locate(idx, blocks));
            let run_start = idx * bs;
            let run_end = end.min(run_start + run * bs);
            let mut body = &data[(cursor - offset) as usize..(run_end - offset) as usize];
            // Bytes the run keeps in its first and in its last block.
            let head = (cursor - run_start) as usize;
            let tail = (run_start + run * bs - run_end) as usize;
            // The run replaces any held block it covers.
            let mut held = self.with_inode(id, |inode| {
                inode
                    .last_block
                    .take_if(|(held, _)| (lba..lba + run).contains(held))
            });
            // Each partial edge block's image, with its share of `body`
            // copied in; a run of one block has one edge.
            let mut first = None;
            if head > 0 {
                let mut block = self.edge(lba, run_start, old_size, &mut held).await?;
                let n = body.len().min(BLOCK_SIZE - head);
                block[head..head + n].copy_from_slice(&body[..n]);
                body = &body[n..];
                first = Some(block);
            }
            let mut last = None;
            if tail > 0 && (head == 0 || run > 1) {
                let mut block = self
                    .edge(lba + run - 1, run_end, old_size, &mut held)
                    .await?;
                let (rest, own) = body.split_at(body.len() - (BLOCK_SIZE - tail));
                block[..own.len()].copy_from_slice(own);
                body = rest;
                last = Some(block);
            }
            let parts = [
                first.as_deref().unwrap_or(&[]),
                body,
                last.as_deref().unwrap_or(&[]),
            ];
            self.dev.write_blocks(lba, &parts).await?;
            // The last partial block it wrote becomes the held one.
            let hold = match (first, last) {
                (_, Some(block)) => Some((lba + run - 1, block)),
                (block, None) => block.map(|block| (lba, block)),
            };
            if let Some((at, block)) = hold {
                self.with_inode(id, |inode| inode.last_block = Some((at, block.into())));
            }
            cursor = run_end;
        }
        Ok(())
    }

    /// The image of a partial edge block at `lba` whose lowest kept byte
    /// is `first_kept`: zeros when that byte lies at or past the old EOF,
    /// else the held block when it is this LBA, else one device read.
    async fn edge(
        &self,
        lba: u64,
        first_kept: u64,
        old_size: u64,
        held: &mut Option<(u64, Box<[u8]>)>,
    ) -> Result<Vec<u8>, FsError> {
        Ok(match held.take_if(|(held, _)| *held == lba) {
            _ if first_kept >= old_size => vec![0u8; BLOCK_SIZE],
            Some((_, bytes)) => bytes.into_vec(),
            None => self.dev.read_blocks(lba, 1).await?,
        })
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
            let (lba, run) = self.with_inode(id, |inode| inode.locate(block_idx, blocks_needed));
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

    /// Each growth of an appended file starts at the block right after
    /// its last extent, so the extents merge: 64 appends make one extent,
    /// and a 4 KiB value straddling two blocks is one device read (78 µs),
    /// not two serial ones (160 µs).
    #[test]
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

    /// Once a log holds one record, an unaligned 4 108-byte append reads
    /// nothing: its first block is the held last block of the previous
    /// append and its last block holds no byte below the old EOF. The two
    /// blocks it touches lie in one extent, so it is one device write.
    #[test]
    fn an_unaligned_append_reads_nothing_and_writes_each_block_once() {
        run_fs_test(|fs| async move {
            let id = fs.create("log").unwrap();
            fs.write(id, 0, &[0u8; 4_108]).await.unwrap();
            let ssd = fs.device().ssd().clone();
            for k in 1..32u64 {
                let (reads, writes) = (ssd.reads.get(), ssd.writes.get());
                fs.write(id, k * 4_108, &[k as u8; 4_108]).await.unwrap();
                assert_eq!(
                    (ssd.reads.get() - reads, ssd.writes.get() - writes),
                    (0, 1),
                    "(device reads, device writes) of append {k}"
                );
            }
            for k in 0..32u64 {
                let record = fs.read(id, k * 4_108, 4_108).await.unwrap();
                assert_eq!(record, vec![k as u8; 4_108], "record {k}");
            }
        });
    }

    /// Two files grown in turn interleave their extents, so neither
    /// merges: a write that spans two of a file's extents is one device
    /// write per extent, and reads back whole.
    #[test]
    fn a_write_over_two_extents_is_one_device_write_per_extent() {
        run_fs_test(|fs| async move {
            let (a, b) = (fs.create("a").unwrap(), fs.create("b").unwrap());
            for file in [a, b, a, b] {
                let size = fs.size(file).unwrap();
                fs.write(file, size, &[1u8; BLOCK_SIZE * 2]).await.unwrap();
            }
            assert_eq!(extent_map(&fs, a), vec![(0, 2), (4, 2)]);
            let ssd = fs.device().ssd().clone();
            let (reads, writes) = (ssd.reads.get(), ssd.writes.get());
            // Blocks 1..3 of `a`, unaligned at both ends: the head edge
            // keeps bytes below EOF (one read), the tail edge too.
            let data: Vec<u8> = (0..BLOCK_SIZE * 2).map(|i| (i % 251) as u8).collect();
            fs.write(a, BLOCK_SIZE as u64 + 100, &data).await.unwrap();
            assert_eq!(
                (ssd.reads.get() - reads, ssd.writes.get() - writes),
                (2, 2),
                "(device reads, device writes) of a write over two extents"
            );
            let back = fs.read(a, 0, BLOCK_SIZE as u64 * 4).await.unwrap();
            let at = BLOCK_SIZE + 100;
            assert!(back[..at].iter().all(|&b| b == 1));
            assert_eq!(&back[at..at + data.len()], &data[..]);
            assert!(back[at + data.len()..].iter().all(|&b| b == 1));
        });
    }

    /// A failed block write leaves the device as it was and drops the held
    /// block, so the next append reads the device, never a copy that was
    /// not persisted.
    #[test]
    fn a_failed_write_holds_no_block() {
        let mut sim = Sim::new();
        let fsys = fs();
        let guard = dpdpu_faults::SessionGuard::new(dpdpu_faults::FaultPlan::new(1));
        let session = guard.session.clone();
        sim.spawn(async move {
            let id = fsys.create("log").unwrap();
            fsys.write(id, 0, &[1u8; 100]).await.unwrap();
            session.arm(dpdpu_faults::FaultSite::SsdWrite, 0, 1);
            let err = fsys.write(id, 100, &[2u8; 100]).await.unwrap_err();
            assert!(matches!(err, FsError::Io(_)), "{err:?}");
            let ssd = fsys.device().ssd().clone();
            let reads = ssd.reads.get();
            fsys.write(id, 200, &[3u8; 100]).await.unwrap();
            assert_eq!(ssd.reads.get() - reads, 1, "no held block after a failure");
            let back = fsys.read(id, 0, 300).await.unwrap();
            assert_eq!(&back[..100], &[1u8; 100]);
            assert_eq!(
                &back[100..200],
                &[0u8; 100],
                "the failed bytes never landed"
            );
            assert_eq!(&back[200..], &[3u8; 100]);
        });
        sim.run();
        drop(guard);
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
