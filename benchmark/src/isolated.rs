//! Isolated drivers: the host cost of one unit of work in one layer.
//!
//! Each driver times calls into one layer's public functions with no
//! check guard and no telemetry, in batches, until a sample has run for
//! the requested time; the value is the median of three samples. Where
//! a `Sim` does the work the driver also reports polls per unit — the
//! deterministic twin that says whether a wall-time change is "fewer
//! polls" or "cheaper polls".

use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use dpdpu_dds::cluster::HashRing;
use dpdpu_dds::gateway::DrrScheduler;
use dpdpu_dds::server::{Dds, DdsClient, DdsConfig};
use dpdpu_des::{
    channel, join_all, sleep, spawn, yield_now, DomainHooks, DomainSet, Semaphore, Server, Sim,
};
use dpdpu_hw::{CpuPool, DpuSpec, HostSpec, PcieLink, Platform};
use dpdpu_net::fabric::{Endpoint, FabricKind};
use dpdpu_net::NetConfig;
use dpdpu_storage::{BlockDevice, ExtentFs, FileService};

use crate::drive::drive;
use crate::host::{step_ns, REFERENCE_STEP_NS};
use crate::stats::median;

/// Samples per driver.
pub const SAMPLES: usize = 3;

/// What one timed batch did.
struct Batch {
    units: u64,
    polls: u64,
    secs: f64,
}

/// Runs `batch` until `sample_secs` of timed work has accumulated,
/// [`SAMPLES`] times over; returns median (wall ns, polls) per unit.
fn measure(sample_secs: f64, mut batch: impl FnMut() -> Batch) -> (f64, f64) {
    batch(); // warm-up: allocator, caches, lazy statics
    let mut wall = Vec::with_capacity(SAMPLES);
    let mut polls = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let (mut units, mut p, mut secs) = (0u64, 0u64, 0.0);
        let step_ns_before = step_ns();
        while secs < sample_secs {
            let b = batch();
            units += b.units;
            p += b.polls;
            secs += b.secs;
        }
        // Restated on the reference host, like every host time reported.
        secs *= REFERENCE_STEP_NS / ((step_ns_before + step_ns()) / 2.0);
        wall.push(secs * 1e9 / units as f64);
        polls.push(p as f64 / units as f64);
    }
    (median(&wall), median(&polls))
}

/// Times `sim.run()` over tasks already spawned; `units` of work.
fn timed_run(mut sim: Sim, units: u64) -> Batch {
    let t = Instant::now();
    black_box(sim.run());
    Batch {
        units,
        polls: sim.polls(),
        secs: t.elapsed().as_secs_f64(),
    }
}

/// A batch that sets a fixture up untimed, then times `units` of work
/// driven to completion (fabrics with ring pollers never go idle, so
/// these use [`drive`], not `Sim::run`).
fn timed_drive<F, S, W>(units: u64, set_up: S, work: impl FnOnce(F) -> W) -> Batch
where
    F: 'static,
    S: std::future::Future<Output = F> + 'static,
    W: std::future::Future<Output = ()> + 'static,
{
    let mut sim = Sim::new();
    let fixture = drive(&mut sim, set_up);
    let polls = sim.polls();
    let t = Instant::now();
    drive(&mut sim, work(fixture));
    Batch {
        units,
        polls: sim.polls() - polls,
        secs: t.elapsed().as_secs_f64(),
    }
}

fn executor() -> Batch {
    let (tasks, yields) = (256u64, 64u64);
    let sim = Sim::new();
    for _ in 0..tasks {
        sim.spawn(async move {
            for _ in 0..yields {
                yield_now().await;
            }
        });
    }
    timed_run(sim, tasks * yields)
}

fn timer() -> Batch {
    let (tasks, sleeps) = (64u64, 256u64);
    let sim = Sim::new();
    for t in 0..tasks {
        sim.spawn(async move {
            for _ in 0..sleeps {
                sleep(1 + (t % 3)).await;
            }
        });
    }
    timed_run(sim, tasks * sleeps)
}

fn channel_pingpong() -> Batch {
    let trips = 8_192u64;
    let sim = Sim::new();
    sim.spawn(async move {
        let (tx_a, mut rx_a) = channel::<u64>();
        let (tx_b, mut rx_b) = channel::<u64>();
        spawn(async move {
            while let Some(v) = rx_a.recv().await {
                if tx_b.send(v + 1).is_err() {
                    break;
                }
            }
        });
        for i in 0..trips {
            tx_a.send(i).expect("echo task alive");
            black_box(rx_b.recv().await);
        }
    });
    timed_run(sim, 2 * trips)
}

fn semaphore() -> Batch {
    let (tasks, acquires) = (16u64, 512u64);
    let sim = Sim::new();
    sim.spawn(async move {
        let sem = Semaphore::new(4);
        let handles: Vec<_> = (0..tasks)
            .map(|_| {
                let sem = sem.clone();
                spawn(async move {
                    for _ in 0..acquires {
                        let _p = sem.acquire().await;
                        yield_now().await;
                    }
                })
            })
            .collect();
        join_all(handles).await;
    });
    timed_run(sim, tasks * acquires)
}

fn server() -> Batch {
    let (tasks, serves) = (16u64, 512u64);
    let sim = Sim::new();
    sim.spawn(async move {
        let server = Server::new("isolated", 4);
        let handles: Vec<_> = (0..tasks)
            .map(|_| {
                let server = server.clone();
                spawn(async move {
                    for _ in 0..serves {
                        server.process(100).await;
                    }
                })
            })
            .collect();
        join_all(handles).await;
    });
    timed_run(sim, tasks * serves)
}

/// Reports a domain's poll count at teardown.
struct PollHook(Arc<AtomicU64>);

impl DomainHooks for PollHook {
    fn before_teardown(&mut self, sim: &Sim) {
        self.0.fetch_add(sim.polls(), Ordering::Relaxed);
    }
}

/// Two domains bouncing one message straight on `DomainSet`: the
/// conservative synchronizer with nothing else in the way.
fn domain_pingpong(jobs: usize) -> Batch {
    let trips = 2_048u64;
    let polls = Arc::new(AtomicU64::new(0));
    let mut set = DomainSet::new();
    let (a, b) = (set.add_domain("a"), set.add_domain("b"));
    let latency = NetConfig::default().lookahead_ns();
    let (ab_tx, mut ab_rx) = set.link::<u64>(a, b, latency);
    let (ba_tx, mut ba_rx) = set.link::<u64>(b, a, latency);
    let hook = polls.clone();
    set.set_root(a, move || {
        let sim = Sim::new();
        sim.spawn(async move {
            for i in 0..trips {
                ab_tx.send(i);
                black_box(ba_rx.recv().await);
            }
        });
        (sim, Box::new(PollHook(hook)) as Box<dyn DomainHooks>)
    });
    let hook = polls.clone();
    set.set_root(b, move || {
        let sim = Sim::new();
        sim.spawn(async move {
            loop {
                let v = ab_rx.recv().await;
                ba_tx.send(v);
            }
        });
        (sim, Box::new(PollHook(hook)) as Box<dyn DomainHooks>)
    });
    let t = Instant::now();
    black_box(set.run(jobs));
    Batch {
        units: 2 * trips,
        polls: polls.load(Ordering::Relaxed),
        secs: t.elapsed().as_secs_f64(),
    }
}

fn platform() -> Rc<Platform> {
    Platform::new_tagged(HostSpec::epyc(), DpuSpec::bluefield2(), "iso")
}

/// The `(client, server)` endpoints `DdsCluster::connect` would build
/// for `kind`, the server terminated on `p`'s DPU.
fn endpoints(kind: FabricKind, p: &Platform) -> (Endpoint, Endpoint) {
    let server = Endpoint::offloaded(
        p.host_cpu.clone(),
        p.dpu_cpu.clone(),
        p.host_dpu_pcie.clone(),
    );
    let client_cpu = CpuPool::new("iso-client", 64, 3_000_000_000);
    let client = match kind {
        FabricKind::RdmaOffload => {
            let spec = DpuSpec::bluefield2();
            Endpoint::offloaded(
                client_cpu,
                CpuPool::new("iso-client-dpu", spec.cores, spec.clock_hz),
                PcieLink::new("iso-client-pcie", spec.pcie_bytes_per_sec),
            )
        }
        _ => Endpoint::host(client_cpu),
    };
    (client, server)
}

/// Echo round trips of 256 B messages over one fabric connection.
fn fabric_echo(kind: FabricKind) -> Batch {
    let trips = 512u64;
    timed_drive(
        trips,
        async move {
            let (client, server) = endpoints(kind, &platform());
            let transport = NetConfig::default().with_fabric(kind).transport();
            let (c, s) = transport.connect(&client, &server, "iso");
            let (s_tx, mut s_rx) = s.split();
            spawn(async move {
                while let Some(msg) = s_rx.recv().await {
                    s_tx.send(msg);
                }
            });
            c.split()
        },
        move |(tx, mut rx)| async move {
            for i in 0..trips {
                tx.send(Bytes::from(vec![i as u8; 256]));
                black_box(rx.recv().await);
            }
        },
    )
}

const FS_IO_BYTES: u64 = 4096;

async fn file_fixture() -> (Rc<FileService>, dpdpu_storage::FileId) {
    let p = platform();
    let fs = ExtentFs::format(BlockDevice::new(p.ssd.clone(), 1 << 20));
    let service = FileService::new(fs, p.dpu_cpu.clone(), p.dpu_ssd_pcie.clone());
    let id = service.create("iso.dat").await.expect("fresh fs");
    for block in 0..64 {
        service
            .write(
                id,
                block * FS_IO_BYTES,
                &vec![block as u8; FS_IO_BYTES as usize],
            )
            .await
            .expect("fresh fs");
    }
    (service, id)
}

fn file_read() -> Batch {
    let reads = 2_048u64;
    timed_drive(reads, file_fixture(), move |(service, id)| async move {
        for i in 0..reads {
            black_box(
                service
                    .read(id, (i % 64) * FS_IO_BYTES, FS_IO_BYTES)
                    .await
                    .expect("read"),
            );
        }
    })
}

fn file_write() -> Batch {
    let writes = 2_048u64;
    timed_drive(writes, file_fixture(), move |(service, id)| async move {
        let data = vec![7u8; FS_IO_BYTES as usize];
        for i in 0..writes {
            service
                .write(id, (i % 64) * FS_IO_BYTES, &data)
                .await
                .expect("write");
        }
    })
}

const DDS_KEYS: u64 = 64;

/// One `Dds` behind one `DdsClient` over TCP: no ring, no admission.
async fn dds_fixture() -> Rc<DdsClient> {
    let p = platform();
    let (client_ep, server_ep) = endpoints(FabricKind::Tcp, &p);
    let dds = Dds::build(p, DdsConfig::default()).await;
    let (c, s) = NetConfig::default()
        .transport()
        .connect(&client_ep, &server_ep, "iso");
    let (s_tx, s_rx) = s.split();
    dds.serve(s_rx, s_tx);
    let (c_tx, c_rx) = c.split();
    let client = DdsClient::new(c_tx, c_rx);
    for key in 0..DDS_KEYS {
        client
            .kv_put(key, Bytes::from(vec![key as u8; 256]))
            .await
            .expect("preload");
    }
    client
}

fn dds_get() -> Batch {
    let gets = 1_024u64;
    timed_drive(gets, dds_fixture(), move |client| async move {
        for i in 0..gets {
            black_box(client.kv_get(i % DDS_KEYS).await.expect("get"));
        }
    })
}

fn dds_put() -> Batch {
    let puts = 1_024u64;
    timed_drive(puts, dds_fixture(), move |client| async move {
        for i in 0..puts {
            let key = i % DDS_KEYS;
            client
                .kv_put(key, Bytes::from(vec![key as u8; 256]))
                .await
                .expect("put");
        }
    })
}

/// Consistent-hash routing as the cluster client does it per request.
fn route() -> Batch {
    let lookups = 65_536u64;
    let ring = HashRing::new(4, 64);
    let t = Instant::now();
    let mut acc = 0usize;
    for key in 0..lookups {
        acc ^= ring.shard_for(black_box(key));
    }
    black_box(acc);
    Batch {
        units: lookups,
        polls: 0,
        secs: t.elapsed().as_secs_f64(),
    }
}

/// One DRR enqueue plus one pick over the three fig11 tenant weights.
fn gateway_sched() -> Batch {
    let ops = 65_536u64;
    let mut drr = DrrScheduler::new(&[1, 4, 2], 4_096);
    let t = Instant::now();
    let mut acc = 0u64;
    for i in 0..ops {
        drr.enqueue((i % 3) as usize, 64 + (i & 0xFFF), i);
        if let Some((tenant, _, item)) = drr.pick() {
            acc ^= item ^ tenant as u64;
        }
    }
    while let Some((_, _, item)) = drr.pick() {
        acc ^= item;
    }
    black_box(acc);
    Batch {
        units: ops,
        polls: 0,
        secs: t.elapsed().as_secs_f64(),
    }
}

/// Number of drivers [`run_all`] times.
pub const DRIVERS: usize = 16;

/// Runs every isolated driver, `sample_secs` per sample, and returns the
/// metrics by name.
pub fn run_all(sample_secs: f64) -> BTreeMap<String, f64> {
    type Driver = (&'static str, &'static str, Box<dyn FnMut() -> Batch>);
    let drivers: [Driver; DRIVERS] = [
        ("des.executor", "yield", Box::new(executor)),
        ("des.timer", "sleep", Box::new(timer)),
        ("des.channel", "msg", Box::new(channel_pingpong)),
        ("des.semaphore", "acquire", Box::new(semaphore)),
        ("des.server", "serve", Box::new(server)),
        ("des.domain", "xmsg_j1", Box::new(|| domain_pingpong(1))),
        ("des.domain", "xmsg_j2", Box::new(|| domain_pingpong(2))),
        // One message each way per echo.
        (
            "net.tcp",
            "msg",
            Box::new(|| {
                let b = fabric_echo(FabricKind::Tcp);
                Batch {
                    units: 2 * b.units,
                    ..b
                }
            }),
        ),
        (
            "net.fabric_rdma",
            "rtt",
            Box::new(|| fabric_echo(FabricKind::Rdma)),
        ),
        (
            "net.fabric_offload",
            "rtt",
            Box::new(|| fabric_echo(FabricKind::RdmaOffload)),
        ),
        ("storage.file_service", "read", Box::new(file_read)),
        ("storage.file_service", "write", Box::new(file_write)),
        ("dds.server", "get", Box::new(dds_get)),
        ("dds.server", "put", Box::new(dds_put)),
        ("dds.cluster", "route", Box::new(route)),
        ("dds.gateway", "sched", Box::new(gateway_sched)),
    ];
    let mut out = BTreeMap::new();
    for (layer, unit, mut batch) in drivers {
        let (wall_ns, polls) = measure(sample_secs, &mut batch);
        out.insert(format!("{layer}.wall_ns_per_{unit}"), wall_ns);
        // The two domain rows do the same polls at any job count, and
        // the pure-CPU rows do none: one twin, or no twin.
        match unit {
            "xmsg_j1" => {
                out.insert(format!("{layer}.polls_per_xmsg"), polls);
            }
            "xmsg_j2" | "route" | "sched" => {}
            _ => {
                out.insert(format!("{layer}.polls_per_{unit}"), polls);
            }
        }
    }
    out
}
