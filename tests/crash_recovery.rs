//! The crash gate: every user of the record log recovers exactly its
//! acknowledged appends after a power loss at any SSD write of a seeded
//! workload.
//!
//! Each user — `KvStore` (`put` and `put_if_absent`), the page server's
//! WAL (`append_log`) and `FastPersist` under both ack modes — runs a
//! seeded mix of appends from four tasks, so batches form, with one
//! failure burst that outlasts the file service's retries. A clean run
//! counts its SSD writes, `N`. Then, for every `k < N`, and for a torn
//! write that persisted none, one, or all but one of its blocks, the run
//! is repeated with the power lost at the `k`-th write
//! (`FaultSession::arm_power_loss`), and the file system a restart finds
//! (`ExtentFs::restart`) is recovered in a fresh simulation. Recovery must
//! hold:
//!
//! * durability: every acked append is present, with its bytes;
//! * atomicity: an unacked append is whole or absent, a failed one is
//!   absent, and nothing appears that was never issued;
//! * idempotence: recovering twice finds what recovering once found;
//! * a clean tail: an append after recovery survives a second power loss
//!   at the end of its own write.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use dpdpu::dds::kv::KvStore;
use dpdpu::dds::pageserver::PageServer;
use dpdpu::des::{sleep, spawn, Sim};
use dpdpu::faults::{FaultPlan, FaultSite, SessionGuard};
use dpdpu::hw::Platform;
use dpdpu::storage::{AckMode, BlockDevice, ExtentFs, FastPersist, FileService, RecordLog};

/// Appends per run, and the tasks that issue them.
const OPS: u64 = 64;
const TASKS: u64 = 4;
/// Pages the WAL user spreads its records over.
const PAGES: u64 = 8;
/// Write failures in the burst: one more than the file service retries.
const BURST: u64 = 4;
/// Runs of more writes than this are covered with a stride, keeping the
/// first and last 64 whole.
const DENSE: u64 = 256;

/// The users of the record log.
#[derive(Debug, Clone, Copy)]
enum User {
    Kv,
    Wal,
    Persist(AckMode),
}

/// One user, open in one simulation.
enum Handle {
    Kv(Rc<KvStore>),
    Wal(Rc<PageServer>),
    Persist(Rc<FastPersist>),
}

/// What recovery found: each record's tag and bytes.
type State = BTreeMap<u64, Vec<u8>>;

/// One seeded append: which task issues it after what pause, its tag
/// (from 1: a zeroed range parses as tag 0) and its bytes, which begin
/// with the tag.
struct Op {
    task: u64,
    pause_ns: u64,
    tag: u64,
    body: Vec<u8>,
    /// `KvStore::put_if_absent` rather than `put`.
    if_absent: bool,
}

fn workload(seed: u64) -> (Vec<Op>, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ops = (1..=OPS)
        .map(|tag| {
            let len = rng.random_range(0..5_000usize);
            let mut body = tag.to_le_bytes().to_vec();
            body.extend((0..len).map(|i| (tag as usize * 31 + i) as u8));
            Op {
                task: tag % TASKS,
                pause_ns: rng.random_range(0..40_000u64),
                tag,
                body,
                if_absent: rng.random_bool(0.3),
            }
        })
        .collect();
    (ops, rng.random_range(8..OPS - 8))
}

/// Where the WAL user puts a record: its page and offset in the page.
fn wal_slot(tag: u64) -> (u64, u32) {
    (tag % PAGES, (tag % 16) as u32 * 64)
}

/// `[tag u64][len u32][body]`: the shape `FastPersist`'s payloads take,
/// so a walk of its file can find them.
fn framed(tag: u64, body: &[u8]) -> Vec<u8> {
    let mut rec = tag.to_le_bytes().to_vec();
    rec.extend_from_slice(&(body.len() as u32).to_le_bytes());
    rec.extend_from_slice(body);
    rec
}

fn service(p: &Rc<Platform>, fs: Rc<ExtentFs>) -> Rc<FileService> {
    FileService::new(fs, p.dpu_cpu.clone(), p.dpu_ssd_pcie.clone())
}

/// Creates the user's files on a fresh file system.
async fn create(user: User, p: &Rc<Platform>, svc: Rc<FileService>) -> Handle {
    match user {
        User::Kv => Handle::Kv(
            KvStore::create(svc, p.dpu_mem.clone(), 1 << 20, "kv.log")
                .await
                .unwrap(),
        ),
        User::Wal => Handle::Wal(PageServer::with_cache(svc, PAGES, None).await.unwrap()),
        User::Persist(mode) => {
            let file = svc.create("persist.log").await.unwrap();
            let (cpu, pcie) = (p.host_cpu.clone(), p.host_dpu_pcie.clone());
            Handle::Persist(FastPersist::new(svc, cpu, pcie, mode, file))
        }
    }
}

/// Reopens the user's files after a restart (`FastPersist` appends at the
/// end of its file).
async fn reopen(user: User, p: &Rc<Platform>, svc: Rc<FileService>) -> Handle {
    match user {
        User::Kv => Handle::Kv(
            KvStore::recover(svc, p.dpu_mem.clone(), 1 << 20, "kv.log")
                .await
                .unwrap(),
        ),
        User::Wal => Handle::Wal(PageServer::recover(svc, None).await.unwrap()),
        User::Persist(mode) => {
            let file = svc.open("persist.log").await.unwrap();
            let (cpu, pcie) = (p.host_cpu.clone(), p.host_dpu_pcie.clone());
            Handle::Persist(FastPersist::new(svc, cpu, pcie, mode, file))
        }
    }
}

/// Appends one op through the user's own API; true when it was acked.
async fn append(handle: &Handle, op: &Op) -> bool {
    let (tag, body) = (op.tag, op.body.clone());
    match handle {
        Handle::Kv(kv) if op.if_absent => kv.put_if_absent(tag, &body).await.is_ok(),
        Handle::Kv(kv) => kv.put(tag, &body).await.is_ok(),
        Handle::Wal(wal) => {
            let (page, offset) = wal_slot(tag);
            wal.append_log(page, offset, Bytes::from(body))
                .await
                .is_ok()
        }
        Handle::Persist(fast) => fast.append(&framed(tag, &body)).await.is_ok(),
    }
}

/// Recovers the user from `svc` and reads back every record it holds.
/// A record that cannot carry a tag, or sits where its tag would not put
/// it, maps to tag 0, which no op has; a tag found twice is an error.
async fn recover(user: User, p: &Rc<Platform>, svc: Rc<FileService>) -> Result<State, String> {
    let mut state = State::new();
    let mut twice = None;
    let tag_of = |bytes: &[u8]| match bytes.get(..8) {
        Some(tag) => u64::from_le_bytes(tag.try_into().unwrap()),
        None => 0,
    };
    let mut found = |tag: u64, bytes: Vec<u8>| {
        if state.insert(tag, bytes).is_some() {
            twice.get_or_insert(tag);
        }
    };
    match reopen(user, p, svc.clone()).await {
        Handle::Kv(kv) => {
            for key in kv.keys() {
                found(key, kv.get(key).await.unwrap().unwrap().to_vec());
            }
        }
        Handle::Wal(wal) => {
            for page in 0..PAGES {
                for (offset, delta) in wal.pending(page) {
                    let tag = tag_of(&delta);
                    let tag = if wal_slot(tag) == (page, offset) {
                        tag
                    } else {
                        0
                    };
                    found(tag, delta.to_vec());
                }
            }
        }
        Handle::Persist(_) => {
            let file = svc.open("persist.log").await.unwrap();
            let log = RecordLog::open(svc, file).unwrap();
            for (header, body) in log.walk(0, 12).await.unwrap() {
                found(tag_of(&header), body);
            }
        }
    }
    match twice {
        Some(tag) => Err(format!("tag {tag} recovered twice")),
        None => Ok(state),
    }
}

/// What one run left behind: the file system, the acked and the failed
/// tags, the SSD writes its appends issued, and the block count of the
/// write a power loss tore.
struct Run {
    fs: Rc<ExtentFs>,
    acked: BTreeSet<u64>,
    failed: BTreeSet<u64>,
    writes: u64,
    torn_write_blocks: Option<u64>,
}

/// Runs the seeded workload, with the power lost at the `k`-th SSD
/// write, persisting `torn` blocks of it, when `power` says so.
fn run(user: User, seed: u64, power: Option<(u64, u64)>) -> Run {
    let guard = SessionGuard::new(FaultPlan::new(seed));
    let session = guard.session.clone();
    let (ops, burst_at) = workload(seed);
    let p = Platform::default_bf2();
    let fs = ExtentFs::format(BlockDevice::new(p.ssd.clone(), 1 << 16));
    let acked = Rc::new(RefCell::new(BTreeSet::new()));
    let failed = Rc::new(RefCell::new(BTreeSet::new()));
    let setup_writes = Rc::new(Cell::new(0));
    let mut sim = Sim::new();
    sim.spawn({
        let (p, fs, acked, failed) = (p.clone(), fs.clone(), acked.clone(), failed.clone());
        let (session, setup_writes) = (session.clone(), setup_writes.clone());
        async move {
            let handle = Rc::new(create(user, &p, service(&p, fs)).await);
            setup_writes.set(p.ssd.writes.get());
            if let Some((k, torn)) = power {
                session.arm_power_loss(k, torn);
            }
            let ops = Rc::new(ops);
            // The issuers run on after the root returns: under a power
            // loss they never finish.
            for task in 0..TASKS {
                let (handle, ops, session) = (handle.clone(), ops.clone(), session.clone());
                let (acked, failed) = (acked.clone(), failed.clone());
                spawn(async move {
                    for op in ops.iter().filter(|op| op.task == task) {
                        sleep(op.pause_ns).await;
                        if op.tag == burst_at {
                            session.arm(FaultSite::SsdWrite, 0, BURST);
                        }
                        let outcome = if append(&handle, op).await {
                            &acked
                        } else {
                            &failed
                        };
                        outcome.borrow_mut().insert(op.tag);
                    }
                });
            }
        }
    });
    sim.run();
    drop(sim);
    let writes = p.ssd.writes.get() + session.injected(FaultSite::SsdWrite) - setup_writes.get();
    let torn_write_blocks = session.torn_write_blocks();
    drop(guard);
    Run {
        fs,
        acked: acked.take(),
        failed: failed.take(),
        writes,
        torn_write_blocks,
    }
}

/// Recovers `fs` twice in a fresh simulation: the state recovery found,
/// and the file system left after one more append whose own write
/// completed and one that a second power loss tore.
fn recover_and_append(
    user: User,
    fs: &ExtentFs,
    tag: u64,
) -> (Result<State, String>, Rc<ExtentFs>) {
    let guard = SessionGuard::new(FaultPlan::new(tag));
    let session = guard.session.clone();
    let p = Platform::default_bf2();
    let fs = fs.restart(p.ssd.clone());
    let found = Rc::new(RefCell::new(Err(String::from("recovery never finished"))));
    let mut sim = Sim::new();
    sim.spawn({
        let (p, fs, found) = (p.clone(), fs.clone(), found.clone());
        async move {
            let svc = service(&p, fs);
            let first = recover(user, &p, svc.clone()).await;
            let second = recover(user, &p, svc.clone()).await;
            *found.borrow_mut() = match first == second {
                true => first,
                false => Err(String::from("a second recovery differs")),
            };
            let handle = Rc::new(reopen(user, &p, svc).await);
            let op = |tag: u64| Op {
                task: 0,
                pause_ns: 0,
                tag,
                body: [&tag.to_le_bytes()[..], &[7u8; 5_000]].concat(),
                if_absent: false,
            };
            if !append(&handle, &op(tag)).await {
                *found.borrow_mut() = Err(String::from("the append after recovery failed"));
            }
            session.arm_power_loss(0, 1);
            spawn(async move { append(&handle, &op(tag + 1)).await });
        }
    });
    sim.run();
    drop(sim);
    drop(guard);
    (found.replace(Ok(State::new())), fs)
}

/// Every acked op present with its bytes; every record found was issued,
/// whole; no failed op present.
fn check(run: &Run, seed: u64, found: &State) -> Result<(), String> {
    let (ops, _) = workload(seed);
    let issued: BTreeMap<u64, &[u8]> = ops.iter().map(|op| (op.tag, &op.body[..])).collect();
    for &tag in &run.acked {
        if found.get(&tag).map(|b| &b[..]) != Some(issued[&tag]) {
            return Err(format!("acked tag {tag} lost or changed"));
        }
    }
    for (tag, bytes) in found {
        if issued.get(tag) != Some(&&bytes[..]) {
            return Err(format!("tag {tag} was never issued, or is torn"));
        }
        if run.failed.contains(tag) {
            return Err(format!("failed tag {tag} recovered"));
        }
    }
    Ok(())
}

/// The power-loss points of a run of `n` writes: all of them, or past
/// [`DENSE`] the first and last 64 and a stride between.
fn points(n: u64) -> Vec<u64> {
    if n <= DENSE {
        return (0..n).collect();
    }
    let stride = (n - 128).div_ceil(DENSE - 128);
    (0..64)
        .chain((64..n - 64).step_by(stride as usize))
        .chain(n - 64..n)
        .collect()
}

/// One case: power lost at write `k` with `torn` blocks persisted; then
/// recovery, the append after it, and a second recovery.
fn crash_case(user: User, seed: u64, k: u64, torn: u64) -> Result<Run, String> {
    let crashed = run(user, seed, Some((k, torn)));
    let at = format!("{user:?} k={k} torn_blocks={torn}");
    let failed = |e: String| format!("{at}: {e}");
    let (found, fs) = recover_and_append(user, &crashed.fs, 1_000);
    let found = found.map_err(failed)?;
    check(&crashed, seed, &found).map_err(failed)?;
    let (again, _) = recover_and_append(user, &fs, 2_000);
    let mut expect = found;
    let tail = [&1_000u64.to_le_bytes()[..], &[7u8; 5_000]].concat();
    expect.insert(1_000, tail);
    if again.map_err(failed)? != expect {
        return Err(failed(String::from(
            "the append after recovery did not survive a second power loss whole",
        )));
    }
    Ok(crashed)
}

fn gate(user: User, seed: u64) {
    let clean = run(user, seed, None);
    for k in points(clean.writes) {
        let crashed = crash_case(user, seed, k, 0).unwrap_or_else(|e| panic!("{e}"));
        let blocks = crashed
            .torn_write_blocks
            .unwrap_or_else(|| panic!("{user:?} k={k}: the power loss never fired"));
        for torn in [1, blocks - 1].into_iter().filter(|&t| t > 0 && t < blocks) {
            crash_case(user, seed, k, torn).unwrap_or_else(|e| panic!("{e}"));
        }
    }
    // The workload has the shape the gate relies on: every op answered,
    // a failed batch, and batches of more than one record.
    assert_eq!(clean.acked.len() + clean.failed.len(), OPS as usize);
    assert!(
        !clean.failed.is_empty(),
        "{user:?}: the burst failed no batch"
    );
    assert!(
        clean.writes < OPS,
        "{user:?}: no batch formed in {} writes",
        clean.writes
    );
}

#[test]
fn the_kv_log_recovers_exactly_its_acked_puts() {
    gate(User::Kv, 41);
}

#[test]
fn the_wal_recovers_exactly_its_acked_records() {
    gate(User::Wal, 42);
}

#[test]
fn a_dpu_ack_channel_recovers_exactly_its_acked_appends() {
    gate(User::Persist(AckMode::DpuAck), 43);
}

#[test]
fn a_host_ack_channel_recovers_exactly_its_acked_appends() {
    gate(User::Persist(AckMode::HostAck), 44);
}
