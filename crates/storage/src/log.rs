//! An append-only record log over one [`FileService`] file.
//!
//! The hybrid log of `dds::kv`, the WAL of `dds::pageserver` and the
//! [`FastPersist`](crate::FastPersist) channel all keep the same three
//! decisions, and this module is the one place that makes them:
//!
//! * **Group commit at a tail that moves on success.**
//!   [`RecordLog::append`] queues its record and waits for the log's
//!   one-permit FIFO turn. Whoever takes the turn with its record still
//!   queued cuts everything queued into one contiguous write at `tail`,
//!   moves `tail` past it only when the write returned `Ok`, answers each
//!   queued append with its offset or the batch's error, and hands the
//!   turn on; a waiter that finds its record already answered returns at
//!   once. So an idle append writes alone and at once, the appends that
//!   queue behind an in-flight write share the next one, offsets follow
//!   queue order (arrival order at the log), and a failed batch leaves no
//!   hole: the next batch lands at the same offset. A batch writer dropped
//!   mid-write puts its batch back at the head of the queue.
//! * **One record shape.** `[fixed fields][body_len u32 LE][body]`: the
//!   header's last four bytes are the body length.
//! * **Torn tail.** A header that promises more bytes than the file holds
//!   ends the walk ([`RecordLog::header_at`]): the append was never
//!   acknowledged, so the record is discarded, without error. The file
//!   grows only when a write completed, so a batch torn by power loss
//!   is wholly past the end; the rule covers a record whose own bytes
//!   stop short.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::mem;
use std::rc::Rc;

use dpdpu_des::Semaphore;

use crate::fs::{FileId, FsError};
use crate::service::FileService;

/// Where a queued append's answer lands: its offset, or its batch's error.
type Slot = Rc<Cell<Option<Result<u64, FsError>>>>;

/// The group-commit tail and header walk of one log file.
pub struct RecordLog {
    service: Rc<FileService>,
    file: FileId,
    tail: Cell<u64>,
    /// Records waiting for the next batch, in arrival order.
    queue: RefCell<VecDeque<(Vec<u8>, Slot)>>,
    /// The one-permit FIFO turn: its holder writes the next batch.
    turn: Semaphore,
}

/// A batch cut from the queue. Dropped before it is answered (its
/// writer was cancelled mid-write), it puts its records back at the head
/// of the queue, in order, for the next turn holder.
struct Batch<'a> {
    log: &'a RecordLog,
    records: VecDeque<(Vec<u8>, Slot)>,
}

impl Drop for Batch<'_> {
    fn drop(&mut self) {
        let mut queue = self.log.queue.borrow_mut();
        let later = mem::replace(&mut *queue, mem::take(&mut self.records));
        queue.extend(later);
    }
}

impl RecordLog {
    /// A log over `file` whose next record goes at the file's end (0 for
    /// a new file, the recovered size for an old one).
    pub fn open(service: Rc<FileService>, file: FileId) -> Result<Self, FsError> {
        let tail = Cell::new(service.fs().size(file)?);
        Ok(RecordLog {
            service,
            file,
            tail,
            queue: RefCell::new(VecDeque::new()),
            turn: Semaphore::new(1),
        })
    }

    /// Bytes durably appended so far: the offset of the next batch.
    pub fn tail(&self) -> u64 {
        self.tail.get()
    }

    /// Appends `rec` and yields its offset once the batch that carried it
    /// is durable, or that batch's error. The record is queued when this
    /// future is first polled, and offsets follow that order.
    pub async fn append(&self, rec: Vec<u8>) -> Result<u64, FsError> {
        let slot = Slot::default();
        self.queue.borrow_mut().push_back((rec, slot.clone()));
        let _turn = self.turn.acquire().await;
        if let Some(answer) = slot.take() {
            return answer;
        }
        let mut batch = Batch {
            log: self,
            records: self.queue.take(),
        };
        let offset = self.tail.get();
        // A batch of one writes its record's own buffer.
        let written = match batch.records.make_contiguous() {
            [(rec, _)] => self.service.write(self.file, offset, rec).await,
            records => {
                let bytes = records.iter().map(|(rec, _)| &rec[..]).collect::<Vec<_>>();
                self.service.write(self.file, offset, &bytes.concat()).await
            }
        };
        // Each record's answer, in queue order; the tail moves only on `Ok`.
        let mut at = offset;
        for (rec, slot) in batch.records.drain(..) {
            slot.set(Some(written.clone().map(|()| at)));
            at += rec.len() as u64;
        }
        if written.is_ok() {
            self.tail.set(at);
        }
        slot.take()
            .expect("the turn holder's record is in the batch it cut")
    }

    /// Reads `len` bytes at `offset`.
    pub async fn read(&self, offset: u64, len: u64) -> Result<Vec<u8>, FsError> {
        self.service.read(self.file, offset, len).await
    }

    /// One step of a recovery walk: the `len`-byte header of the record
    /// at `pos` and its body length, or `None` when no whole record
    /// starts there (end of log, or a torn tail). The next record starts
    /// at `pos + len + body_len`.
    pub async fn header_at(&self, pos: u64, len: u64) -> Result<Option<(Vec<u8>, u64)>, FsError> {
        let size = self.service.fs().size(self.file)?;
        if pos + len > size {
            return Ok(None);
        }
        let header = self.read(pos, len).await?;
        let body_len = &header[header.len() - 4..];
        let body_len = u32::from_le_bytes(body_len.try_into().expect("4 bytes")) as u64;
        Ok((pos + len + body_len <= size).then_some((header, body_len)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockdev::BlockDevice;
    use crate::fs::ExtentFs;
    use dpdpu_des::{block_on, join_all, now, spawn, timeout};
    use dpdpu_faults::{FaultPlan, SessionGuard};
    use dpdpu_hw::Platform;

    fn new_log(p: &Rc<Platform>) -> Rc<RecordLog> {
        let fs = ExtentFs::format(BlockDevice::new(p.ssd.clone(), 1 << 20));
        let svc = FileService::new(fs, p.dpu_cpu.clone(), p.dpu_ssd_pcie.clone());
        let file = svc.fs().create("log").unwrap();
        Rc::new(RecordLog::open(svc, file).unwrap())
    }

    /// `[tag u64][len u32][body]`: a 12-byte header ending in the length.
    fn record(tag: u64, body: &[u8]) -> Vec<u8> {
        let mut rec = tag.to_le_bytes().to_vec();
        rec.extend_from_slice(&(body.len() as u32).to_le_bytes());
        rec.extend_from_slice(body);
        rec
    }

    /// Tags and body lengths of the records a walk from `pos` yields.
    async fn walk(log: &RecordLog, mut pos: u64) -> Vec<(u64, u64)> {
        let mut seen = Vec::new();
        while let Some((header, len)) = log.header_at(pos, 12).await.unwrap() {
            seen.push((u64::from_le_bytes(header[0..8].try_into().unwrap()), len));
            pos += 12 + len;
        }
        seen
    }

    #[test]
    fn same_instant_appends_get_disjoint_ranges_in_arrival_order() {
        block_on(async {
            let log = new_log(&Platform::default_bf2());
            let (big, small) = (vec![7u8; 64 * 1024], vec![9u8; 16]);
            let [first, second] = [big.clone(), small.clone()].map(|rec| {
                let log = log.clone();
                spawn(async move { log.append(rec).await.unwrap() })
            });
            // Both queued at spawn-poll time: the big one writes alone, the
            // small one takes the next batch at the offset after it.
            let (first, second) = (first.await, second.await);
            assert_eq!((first, second), (0, big.len() as u64));
            assert_eq!(log.tail(), (big.len() + small.len()) as u64);
            assert_eq!(log.read(first, big.len() as u64).await.unwrap(), big);
            assert_eq!(log.read(second, small.len() as u64).await.unwrap(), small);
        });
    }

    #[test]
    fn a_header_promising_more_than_the_file_holds_ends_the_walk() {
        block_on(async {
            let log = new_log(&Platform::default_bf2());
            log.append(record(1, b"whole")).await.unwrap();
            let mut torn = record(2, &[0u8; 100]);
            torn.truncate(12 + 9); // 100 bytes promised, 9 delivered
            log.append(torn).await.unwrap();
            assert_eq!(walk(&log, 0).await, vec![(1, 5)]);
            // A tail too short to hold a header ends it the same way.
            assert!(log.header_at(log.tail() - 4, 12).await.unwrap().is_none());
        });
    }

    #[test]
    fn a_walk_from_a_checkpoint_yields_exactly_the_suffix() {
        block_on(async {
            let log = new_log(&Platform::default_bf2());
            let mut checkpoint = 0;
            for tag in 0..5u64 {
                if tag == 2 {
                    checkpoint = log.tail();
                }
                let body = vec![tag as u8; 10 * tag as usize];
                log.append(record(tag, &body)).await.unwrap();
            }
            assert_eq!(checkpoint, 12 + (12 + 10));
            let suffix = walk(&log, checkpoint).await;
            assert_eq!(suffix, vec![(2, 20), (3, 30), (4, 40)]);
            assert_eq!(walk(&log, log.tail()).await, vec![]);
        });
    }
    /// Three appends at one instant: the first finds the log idle and
    /// writes alone; the other two queue behind it and share the next
    /// device write, at contiguous offsets in arrival order.
    #[test]
    fn appends_queued_behind_a_write_share_the_next_one() {
        block_on(async {
            let p = Platform::default_bf2();
            let log = new_log(&p);
            let recs = [record(1, b"one"), record(2, b"two!"), record(3, b"three")];
            let handles: Vec<_> = recs
                .iter()
                .map(|rec| {
                    let (log, rec) = (log.clone(), rec.clone());
                    spawn(async move { log.append(rec).await.unwrap() })
                })
                .collect();
            let offsets = join_all(handles).await;
            assert_eq!(offsets, vec![0, 15, 15 + 16]);
            assert_eq!(p.ssd.writes.get(), 2, "device writes for three appends");
            assert_eq!(walk(&log, 0).await, vec![(1, 3), (2, 4), (3, 5)]);
        });
    }

    /// An idle append waits for nothing: it completes exactly when a
    /// bare file-service write of the same record does.
    #[test]
    fn an_idle_append_takes_exactly_one_write() {
        let rec = record(1, &[5u8; 4_096]);
        let bare = block_on({
            let rec = rec.clone();
            async move {
                let p = Platform::default_bf2();
                let fs = ExtentFs::format(BlockDevice::new(p.ssd.clone(), 1 << 20));
                let svc = FileService::new(fs, p.dpu_cpu.clone(), p.dpu_ssd_pcie.clone());
                let file = svc.fs().create("log").unwrap();
                svc.write(file, 0, &rec).await.unwrap();
                now()
            }
        });
        let appended = block_on(async move {
            let log = new_log(&Platform::default_bf2());
            log.append(rec).await.unwrap();
            now()
        });
        assert_eq!(appended, bare);
    }

    /// A batch whose write fails past the file service's retries fails
    /// every append in it and leaves the tail and the file size where they
    /// were, so the next batch lands at the same offset.
    #[test]
    fn a_failed_batch_fails_every_append_in_it_and_moves_nothing() {
        let guard = SessionGuard::new(FaultPlan::new(3));
        let session = guard.session.clone();
        block_on(async move {
            let log = new_log(&Platform::default_bf2());
            log.append(record(0, b"kept")).await.unwrap();
            let tail = log.tail();
            // One more failure than the retries, for each of two batches.
            session.arm_ssd_write_failures(2 * 4);
            let handles: Vec<_> = (1..4u64)
                .map(|tag| {
                    let log = log.clone();
                    spawn(async move { log.append(record(tag, b"lost")).await })
                })
                .collect();
            for (tag, answer) in (1..).zip(join_all(handles).await) {
                assert!(
                    matches!(answer, Err(FsError::Io(_))),
                    "append {tag}: {answer:?}"
                );
            }
            assert_eq!(log.tail(), tail);
            assert_eq!(log.service.fs().size(log.file).unwrap(), tail);
            assert_eq!(log.append(record(4, b"next")).await.unwrap(), tail);
            assert_eq!(walk(&log, 0).await, vec![(0, 4), (4, 4)]);
        });
        drop(guard);
    }

    /// A batch writer cancelled mid-write puts its batch back at the head
    /// of the queue: the follower's turn writes both records, its own at
    /// the offset after the cancelled one's, and both read back whole.
    #[test]
    fn a_batch_writer_dropped_mid_write_loses_no_record() {
        block_on(async {
            let log = new_log(&Platform::default_bf2());
            let (cancelled, follower) = (record(1, &[1u8; 100]), record(2, &[2u8; 50]));
            let follower = spawn({
                let (log, rec) = (log.clone(), follower.clone());
                async move { log.append(rec).await.unwrap() }
            });
            let gave_up = timeout(1_000, log.append(cancelled.clone())).await;
            assert!(gave_up.is_err(), "the write outlasts the timeout");
            assert_eq!(follower.await, cancelled.len() as u64);
            assert_eq!(walk(&log, 0).await, vec![(1, 100), (2, 50)]);
            let both = log.read(0, log.tail()).await.unwrap();
            assert_eq!(both, [cancelled, record(2, &[2u8; 50])].concat());
        });
    }
}
