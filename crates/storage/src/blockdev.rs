//! A content-holding block device with NVMe timing.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use dpdpu_faults::IoOp;
use dpdpu_hw::{IoError, Ssd};

/// Logical block size (4 KB, the NVMe formatting the paper's 8 KB pages
/// sit on as block pairs).
pub(crate) const BLOCK_SIZE: usize = 4_096;

/// A block store: sparse real contents + simulated NVMe timing.
///
/// Unwritten blocks read back as zeros (thin provisioning). The device
/// charges SSD time per operation; the PCIe hop belongs to whichever
/// path (host root complex or DPU peer-to-peer) the caller models.
///
/// Under a scripted power loss (`FaultSession::arm_power_loss`) the torn
/// write stores only its first blocks, and it and every later op never
/// complete.
pub struct BlockDevice {
    ssd: Rc<Ssd>,
    blocks: RefCell<HashMap<u64, Box<[u8]>>>,
    capacity_blocks: u64,
}

impl BlockDevice {
    /// Creates a device over an SSD timing model.
    pub fn new(ssd: Rc<Ssd>, capacity_blocks: u64) -> Rc<Self> {
        Rc::new(BlockDevice {
            ssd,
            blocks: RefCell::new(HashMap::new()),
            capacity_blocks,
        })
    }

    /// Device capacity in blocks.
    pub(crate) fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    /// The underlying SSD timing model (for counters).
    pub fn ssd(&self) -> &Rc<Ssd> {
        &self.ssd
    }

    /// Reads `n` consecutive blocks as one I/O (one SSD op); blocks never
    /// written read as zeros.
    pub(crate) async fn read_blocks(&self, lba: u64, n: u64) -> Result<Vec<u8>, IoError> {
        assert!(lba + n <= self.capacity_blocks, "{lba}+{n} out of range");
        if dpdpu_faults::ssd_power_loss(IoOp::Read, n).is_some() {
            std::future::pending::<()>().await;
        }
        self.ssd.read(n * BLOCK_SIZE as u64).await?;
        let blocks = self.blocks.borrow();
        let mut out = Vec::with_capacity((n as usize) * BLOCK_SIZE);
        for i in 0..n {
            match blocks.get(&(lba + i)) {
                Some(b) => out.extend_from_slice(b),
                None => out.extend_from_slice(&[0u8; BLOCK_SIZE]),
            }
        }
        Ok(out)
    }

    /// Writes the concatenation of `parts`, each a multiple of the block
    /// size, at consecutive blocks as one SSD op: a caller gathers a run
    /// from separate buffers without joining them.
    pub(crate) async fn write_blocks(&self, lba: u64, parts: &[&[u8]]) -> Result<(), IoError> {
        assert!(
            parts.iter().all(|part| part.len() % BLOCK_SIZE == 0),
            "writes are block-aligned"
        );
        let len: usize = parts.iter().map(|part| part.len()).sum();
        let n = (len / BLOCK_SIZE) as u64;
        assert!(lba + n <= self.capacity_blocks, "{lba}+{n} out of range");
        if let Some(torn) = dpdpu_faults::ssd_power_loss(IoOp::Write, n) {
            self.store(lba, parts, torn);
            std::future::pending::<()>().await;
        }
        self.ssd.write(len as u64).await?;
        self.store(lba, parts, n);
        Ok(())
    }

    /// Puts the first `blocks` blocks of `parts` at consecutive LBAs from
    /// `lba`.
    fn store(&self, lba: u64, parts: &[&[u8]], blocks: u64) {
        let mut stored = self.blocks.borrow_mut();
        let chunks = parts.iter().flat_map(|part| part.chunks_exact(BLOCK_SIZE));
        for (at, chunk) in (lba..lba + blocks).zip(chunks) {
            stored.insert(at, chunk.into());
        }
    }

    /// The device a restart finds on a fresh `ssd` timing model: a copy
    /// of every block this one holds.
    pub(crate) fn restart(&self, ssd: Rc<Ssd>) -> Rc<Self> {
        Rc::new(BlockDevice {
            ssd,
            blocks: self.blocks.clone(),
            capacity_blocks: self.capacity_blocks,
        })
    }

    /// Discards a block's contents (TRIM).
    pub(crate) fn trim(&self, lba: u64) {
        self.blocks.borrow_mut().remove(&lba);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_des::Sim;

    fn dev() -> Rc<BlockDevice> {
        BlockDevice::new(Ssd::new("t"), 1 << 20)
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let d = dev();
            let data: Vec<u8> = (0..BLOCK_SIZE).map(|i| (i % 251) as u8).collect();
            d.write_blocks(7, &[&data]).await.unwrap();
            assert_eq!(d.read_blocks(7, 1).await.unwrap(), data);
        });
        sim.run();
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let d = dev();
            assert_eq!(d.read_blocks(42, 1).await.unwrap(), vec![0u8; BLOCK_SIZE]);
        });
        sim.run();
    }

    #[test]
    fn multi_block_io_is_one_ssd_op() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let d = dev();
            let data = vec![9u8; BLOCK_SIZE * 4];
            d.write_blocks(100, &[&data[..BLOCK_SIZE], &data[BLOCK_SIZE..]])
                .await
                .unwrap();
            assert_eq!(d.ssd().writes.get(), 1);
            let back = d.read_blocks(100, 4).await.unwrap();
            assert_eq!(back, data);
            assert_eq!(d.ssd().reads.get(), 1);
        });
        sim.run();
    }

    #[test]
    fn trim_releases_content() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let d = dev();
            d.write_blocks(5, &[&[1u8; BLOCK_SIZE]]).await.unwrap();
            assert_eq!(d.blocks.borrow().len(), 1);
            d.trim(5);
            assert_eq!(d.blocks.borrow().len(), 0);
            assert_eq!(d.read_blocks(5, 1).await.unwrap(), vec![0u8; BLOCK_SIZE]);
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let d = BlockDevice::new(Ssd::new("t"), 10);
            let _ = d.read_blocks(10, 1).await;
        });
        sim.run();
    }
}
