//! A content-holding block device with NVMe timing.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use dpdpu_hw::{IoError, Ssd};

/// Logical block size (4 KB, the NVMe formatting the paper's 8 KB pages
/// sit on as block pairs).
pub(crate) const BLOCK_SIZE: usize = 4_096;

/// A block store: sparse real contents + simulated NVMe timing.
///
/// Unwritten blocks read back as zeros (thin provisioning). The device
/// charges SSD time per operation; the PCIe hop belongs to whichever
/// path (host root complex or DPU peer-to-peer) the caller models.
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

    /// Writes `data` (a multiple of the block size) at consecutive blocks
    /// as one SSD op.
    pub(crate) async fn write_blocks(&self, lba: u64, data: &[u8]) -> Result<(), IoError> {
        assert_eq!(data.len() % BLOCK_SIZE, 0, "writes are block-aligned");
        let n = (data.len() / BLOCK_SIZE) as u64;
        assert!(lba + n <= self.capacity_blocks, "{lba}+{n} out of range");
        self.ssd.write(data.len() as u64).await?;
        let mut blocks = self.blocks.borrow_mut();
        for i in 0..n {
            let chunk = &data[(i as usize) * BLOCK_SIZE..(i as usize + 1) * BLOCK_SIZE];
            blocks.insert(lba + i, chunk.to_vec().into_boxed_slice());
        }
        Ok(())
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
            d.write_blocks(7, &data).await.unwrap();
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
            d.write_blocks(100, &data).await.unwrap();
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
            d.write_blocks(5, &vec![1u8; BLOCK_SIZE]).await.unwrap();
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
