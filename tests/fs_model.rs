//! Model-based testing of the extent file system: random operation
//! sequences run against both `ExtentFs` and a trivially-correct
//! in-memory reference model; every observable result must agree.
//!
//! Beside plain creates, deletes, writes and reads, the sequences drive
//! the write path's held last block and its dead-byte rule: runs of
//! appends at the tail, small overwrites inside the held block, aligned
//! whole-block writes over it, delete and re-create (the new file's growth
//! reuses the trimmed blocks), and writes whose first device write fails,
//! injected through a `SessionGuard`.
//! After every op each file is re-read in full and compared with the
//! model. `ExtentFs::read` never consults the held block, so that re-read
//! is what the device alone holds: a held block that drifted from the
//! device, or a dead byte that was not zero, shows up at the op that
//! caused it.
//!
//! Sequences come from a seeded PRNG (no proptest in the offline build);
//! each case is reproducible from its index.

use std::cell::RefCell;
use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use dpdpu::des::block_on;
use dpdpu::faults::{FaultPlan, FaultSite, SessionGuard};
use dpdpu::hw::Ssd;
use dpdpu::storage::{BlockDevice, ExtentFs, FileId, FsError};

/// The device's block size.
const BLOCK: usize = 4_096;

/// Operations the model exercises.
#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    Delete(u8),
    /// Delete then create under the same name.
    Recreate(u8),
    Write {
        name: u8,
        offset: u16,
        len: u16,
        fill: u8,
    },
    /// `count` back-to-back appends of `len` bytes at the file's end.
    Appends {
        name: u8,
        count: u8,
        len: u16,
        fill: u8,
    },
    /// A `len`-byte overwrite starting `back` bytes before EOF.
    TailPatch {
        name: u8,
        back: u16,
        len: u8,
        fill: u8,
    },
    /// `blocks` whole blocks from block `block` on: aligned, so it
    /// replaces any held block it covers without reading it.
    BlockWrite {
        name: u8,
        block: u8,
        blocks: u8,
        fill: u8,
    },
    /// A write whose first device write fails.
    FailingWrite {
        name: u8,
        offset: u16,
        len: u16,
        fill: u8,
    },
    Read {
        name: u8,
        offset: u16,
        len: u16,
    },
    Size(u8),
}

fn random_op(rng: &mut StdRng) -> Op {
    match rng.random_range(0..10u8) {
        0 => Op::Create(rng.random_range(0..6u8)),
        1 => Op::Delete(rng.random_range(0..6u8)),
        2 => Op::Write {
            name: rng.random_range(0..6u8),
            offset: rng.random_range(0..20_000u16),
            len: rng.random_range(0..12_000u16),
            fill: rng.random(),
        },
        3 => Op::Read {
            name: rng.random_range(0..6u8),
            offset: rng.random_range(0..24_000u16),
            len: rng.random_range(0..12_000u16),
        },
        4 => Op::Recreate(rng.random_range(0..6u8)),
        5 => Op::Appends {
            name: rng.random_range(0..6u8),
            count: rng.random_range(1..6u8),
            len: rng.random_range(1..5_000u16),
            fill: rng.random(),
        },
        6 => Op::TailPatch {
            name: rng.random_range(0..6u8),
            back: rng.random_range(1..4_096u16),
            len: rng.random_range(1..64u8),
            fill: rng.random(),
        },
        7 => Op::FailingWrite {
            name: rng.random_range(0..6u8),
            offset: rng.random_range(0..20_000u16),
            len: rng.random_range(1..12_000u16),
            fill: rng.random(),
        },
        8 => Op::BlockWrite {
            name: rng.random_range(0..6u8),
            block: rng.random_range(0..6u8),
            blocks: rng.random_range(1..3u8),
            fill: rng.random(),
        },
        _ => Op::Size(rng.random_range(0..6u8)),
    }
}

/// The reference model: files are plain byte vectors.
#[derive(Default)]
struct Model {
    files: HashMap<u8, Vec<u8>>,
}

impl Model {
    fn write(&mut self, name: u8, offset: usize, len: usize, fill: u8) -> bool {
        match self.files.get_mut(&name) {
            None => false,
            Some(data) => {
                if data.len() < offset + len {
                    data.resize(offset + len, 0);
                }
                data[offset..offset + len].fill(fill);
                true
            }
        }
    }

    fn read(&self, name: u8, offset: usize, len: usize) -> Option<Option<Vec<u8>>> {
        self.files.get(&name).map(|data| {
            if offset + len <= data.len() {
                Some(data[offset..offset + len].to_vec())
            } else {
                None // out of range
            }
        })
    }
}

#[test]
fn extent_fs_agrees_with_reference_model() {
    let mut rng = StdRng::seed_from_u64(0xF5_0001);
    for case in 0..48 {
        let n = rng.random_range(1..60usize);
        let ops: Vec<Op> = (0..n).map(|_| random_op(&mut rng)).collect();
        run_case(case, ops);
    }
}

fn run_case(case: usize, ops: Vec<Op>) {
    let guard = SessionGuard::new(FaultPlan::new(case as u64));
    let faults = guard.session.clone();
    let failure = block_on(async move {
        let failed: RefCell<Option<String>> = RefCell::new(None);
        let fs = ExtentFs::format(BlockDevice::new(Ssd::new("m"), 1 << 16));
        let mut model = Model::default();
        let mut ids: HashMap<u8, FileId> = HashMap::new();
        let check = |cond: bool, msg: String| {
            if !cond && failed.borrow().is_none() {
                *failed.borrow_mut() = Some(msg);
            }
        };
        for (step, op) in ops.into_iter().enumerate() {
            let what = format!("{op:?}");
            match op {
                Op::Create(name) => {
                    let real = fs.create(&format!("f{name}"));
                    let expect_ok = !model.files.contains_key(&name);
                    check(
                        real.is_ok() == expect_ok,
                        format!("create {name}: {real:?}"),
                    );
                    if let Ok(id) = real {
                        ids.insert(name, id);
                        model.files.insert(name, Vec::new());
                    }
                }
                Op::Delete(name) => {
                    let real = fs.delete(&format!("f{name}"));
                    let expect_ok = model.files.remove(&name).is_some();
                    check(
                        real.is_ok() == expect_ok,
                        format!("delete {name}: {real:?}"),
                    );
                    if real.is_ok() {
                        ids.remove(&name);
                    }
                }
                Op::Recreate(name) => {
                    let _ = fs.delete(&format!("f{name}"));
                    let id = fs.create(&format!("f{name}")).expect("name was just freed");
                    ids.insert(name, id);
                    model.files.insert(name, Vec::new());
                }
                Op::Write {
                    name,
                    offset,
                    len,
                    fill,
                } => {
                    let expect_ok = model.write(name, offset as usize, len as usize, fill);
                    if let Some(&id) = ids.get(&name) {
                        let data = vec![fill; len as usize];
                        let real = fs.write(id, offset as u64, &data).await;
                        check(
                            real.is_ok() == expect_ok,
                            format!("write {name}@{offset}+{len}: {real:?}"),
                        );
                    } else {
                        check(!expect_ok, format!("model had file {name} but fs did not"));
                    }
                }
                Op::Appends {
                    name,
                    count,
                    len,
                    fill,
                } => {
                    if let Some(&id) = ids.get(&name) {
                        for i in 0..count {
                            let fill = fill.wrapping_add(i);
                            let at = model.files[&name].len();
                            model.write(name, at, len as usize, fill);
                            let real = fs.write(id, at as u64, &vec![fill; len as usize]).await;
                            check(real.is_ok(), format!("append {name}@{at}+{len}: {real:?}"));
                        }
                    }
                }
                Op::TailPatch {
                    name,
                    back,
                    len,
                    fill,
                } => {
                    if let Some(&id) = ids.get(&name) {
                        let at = model.files[&name].len().saturating_sub(back as usize);
                        model.write(name, at, len as usize, fill);
                        let real = fs.write(id, at as u64, &vec![fill; len as usize]).await;
                        check(real.is_ok(), format!("patch {name}@{at}+{len}: {real:?}"));
                    }
                }
                Op::BlockWrite {
                    name,
                    block,
                    blocks,
                    fill,
                } => {
                    if let Some(&id) = ids.get(&name) {
                        let (at, len) = (block as usize * BLOCK, blocks as usize * BLOCK);
                        model.write(name, at, len, fill);
                        let real = fs.write(id, at as u64, &vec![fill; len]).await;
                        check(
                            real.is_ok(),
                            format!("block write {name}@{at}+{len}: {real:?}"),
                        );
                    }
                }
                Op::FailingWrite {
                    name,
                    offset,
                    len,
                    fill,
                } => {
                    if let Some(&id) = ids.get(&name) {
                        let injected = faults.injected(FaultSite::SsdWrite);
                        faults.arm_ssd_write_failures(1);
                        let real = fs.write(id, offset as u64, &vec![fill; len as usize]).await;
                        check(
                            matches!(real, Err(FsError::Io(_)))
                                && faults.injected(FaultSite::SsdWrite) == injected + 1,
                            format!("failing write {name}@{offset}+{len}: {real:?}"),
                        );
                        // Its first device write failed, so nothing landed
                        // and the file did not grow: the model is unchanged.
                    }
                }
                Op::Read { name, offset, len } => {
                    match (
                        ids.get(&name),
                        model.read(name, offset as usize, len as usize),
                    ) {
                        (Some(&id), Some(expect)) => {
                            let real = fs.read(id, offset as u64, len as u64).await;
                            match (real, expect) {
                                (Ok(bytes), Some(model_bytes)) => check(
                                    bytes == model_bytes,
                                    format!("read {name}@{offset}+{len}: contents differ"),
                                ),
                                (Err(FsError::BadRange { .. }), None) => {}
                                (real, expect) => check(
                                    false,
                                    format!(
                                        "read {name}@{offset}+{len}: fs={real:?} model_in_range={}",
                                        expect.is_some()
                                    ),
                                ),
                            }
                        }
                        (None, None) => {}
                        (a, b) => check(
                            false,
                            format!(
                                "existence mismatch for {name}: fs={} model={}",
                                a.is_some(),
                                b.is_some()
                            ),
                        ),
                    }
                }
                Op::Size(name) => match (ids.get(&name), model.files.get(&name)) {
                    (Some(&id), Some(data)) => {
                        let real = fs.size(id).unwrap();
                        check(
                            real == data.len() as u64,
                            format!("size {name}: fs={real} model={}", data.len()),
                        );
                    }
                    (None, None) => {}
                    (a, b) => check(
                        false,
                        format!(
                            "size existence mismatch {name}: fs={} model={}",
                            a.is_some(),
                            b.is_some()
                        ),
                    ),
                },
            }
            // Every file, whole, from the device alone.
            for (&name, data) in &model.files {
                let back = fs.read(ids[&name], 0, data.len() as u64).await;
                check(
                    back.as_ref() == Ok(data),
                    format!("step {step} ({what}): file {name} differs from the model on re-read"),
                );
            }
        }
        failed.into_inner()
    });
    drop(guard);
    if let Some(msg) = failure {
        panic!("case {case}: model divergence: {msg}");
    }
}
