//! Per-layer metrics of one workload, reduced from a traced repetition.
//!
//! Every source is public and outside the program: the spans the
//! telemetry session collected (`Server` wait/serve intervals through
//! the des probe, and the explicit spans in net, storage and dds), the
//! registry's counters, and the model readings in [`Virtual`]. "Per op"
//! divides by requests issued in the measured phase.

use std::collections::BTreeMap;

use crate::trace::self_times;
use crate::workloads::{Traced, Virtual};

/// A class of modelled hardware resource, told apart by track name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HwClass {
    /// Server host cores (`<tag>.EPYC-cpu`).
    HostCpu,
    /// DPU cores, server side and the offload client's.
    DpuCpu,
    /// The load generators' cores.
    ClientCpu,
    /// Host↔DPU, DPU↔SSD and host↔SSD PCIe links.
    Pcie,
    /// NVMe read and write channels.
    Ssd,
    /// Network links: TCP data/ack directions, RDMA directions.
    Link,
}

impl HwClass {
    /// Every class, in report order.
    pub const ALL: [HwClass; 6] = [
        HwClass::HostCpu,
        HwClass::DpuCpu,
        HwClass::ClientCpu,
        HwClass::Pcie,
        HwClass::Ssd,
        HwClass::Link,
    ];

    /// The class's segment in metric names.
    pub fn key(self) -> &'static str {
        match self {
            HwClass::HostCpu => "host_cpu",
            HwClass::DpuCpu => "dpu_cpu",
            HwClass::ClientCpu => "client_cpu",
            HwClass::Pcie => "pcie",
            HwClass::Ssd => "ssd",
            HwClass::Link => "link",
        }
    }

    /// Classifies a probe track. The names are what `Platform::new_tagged`,
    /// `DdsCluster::connect`, the TCP connector and the RDMA transports
    /// give their `Server`s.
    pub fn of(track: &str) -> Option<Self> {
        let base = track.rsplit('.').next().unwrap_or(track);
        Some(match base {
            "EPYC-cpu" => HwClass::HostCpu,
            "BlueField-2-cpu" | "fleet-dpu" => HwClass::DpuCpu,
            "host-dpu" | "dpu-ssd" | "host-ssd" | "fleet-pcie" => HwClass::Pcie,
            "nvme0-rd" | "nvme0-wr" => HwClass::Ssd,
            "tcp-data" | "tcp-ack" | "rdma-ab" | "rdma-ba" => HwClass::Link,
            _ if base == crate::workloads::CLIENT_POOL || base.starts_with("parfleet") => {
                HwClass::ClientCpu
            }
            _ => return None,
        })
    }
}

#[derive(Default, Clone, Copy)]
struct Tally {
    count: u64,
    ns: u64,
}

impl Tally {
    fn add(&mut self, ns: u64) {
        self.count += 1;
        self.ns += ns;
    }
}

/// Reduces a traced repetition to the per-op layer metrics.
pub fn reduce(virt: &Virtual, traced: &Traced) -> BTreeMap<String, f64> {
    let ops = virt.issued.max(1) as f64;
    let mut out = BTreeMap::new();
    let mut put = |name: String, v: f64| {
        out.insert(name, v);
    };

    // hw: serve/wait intervals per resource class; the busiest track of
    // a class gives its utilisation figure.
    let mut serve: BTreeMap<HwClass, Tally> = BTreeMap::new();
    let mut wait: BTreeMap<HwClass, Tally> = BTreeMap::new();
    let mut busy_by_track: BTreeMap<(HwClass, &str), u64> = BTreeMap::new();
    // Explicit spans, by (track, name prefix).
    let (mut tcp_msgs, mut fs_read, mut fs_write) =
        (Tally::default(), Tally::default(), Tally::default());
    let (mut gets, mut puts, mut scans, mut reqs) = (0u64, 0u64, 0u64, 0u64);
    let selfs = if traced.parents {
        self_times(&traced.spans)
    } else {
        Default::default()
    };
    let (mut server_ns, mut server_self_ns) = (0u64, 0u64);
    let mut tcp_segments = 0u64;
    for s in &traced.spans {
        let ns = s.end - s.start;
        match (s.track.as_str(), s.name.as_str()) {
            (_, "serve") | (_, "wait") => {
                let Some(class) = HwClass::of(&s.track) else {
                    continue;
                };
                if s.name == "serve" {
                    serve.entry(class).or_default().add(ns);
                    *busy_by_track.entry((class, &s.track)).or_default() += ns;
                    if s.track.ends_with("tcp-data") {
                        tcp_segments += 1;
                    }
                } else {
                    wait.entry(class).or_default().add(ns);
                }
            }
            ("tcp-tx", "send_msg") => tcp_msgs.add(ns),
            ("tcp-rx", "deliver_msg") => tcp_msgs.ns += ns,
            ("file-service", "read") => fs_read.add(ns),
            ("file-service", "write") => fs_write.add(ns),
            ("dds-server", name) => {
                reqs += 1;
                match name {
                    "req:KvGet" => gets += 1,
                    "req:KvPut" | "req:ReplPut" | "req:MigratePut" => puts += 1,
                    "req:KvScan" => scans += 1,
                    _ => {}
                }
                server_ns += ns;
                server_self_ns += selfs.get(&s.id).copied().unwrap_or(0);
            }
            _ => {}
        }
    }
    let elapsed = virt.elapsed_ns.max(1) as f64;
    for class in HwClass::ALL {
        let (s, w) = (
            serve.get(&class).copied().unwrap_or_default(),
            wait.get(&class).copied().unwrap_or_default(),
        );
        let busiest = busy_by_track
            .iter()
            .filter(|((c, _), _)| *c == class)
            .map(|(_, ns)| *ns)
            .max()
            .unwrap_or(0);
        let k = class.key();
        put(format!("hw.{k}.serves_per_op"), s.count as f64 / ops);
        put(format!("hw.{k}.busy_ns_per_op"), s.ns as f64 / ops);
        put(format!("hw.{k}.wait_ns_per_op"), w.ns as f64 / ops);
        put(format!("hw.{k}.util"), busiest as f64 / elapsed);
    }

    put("net.tcp.msgs_per_op".into(), tcp_msgs.count as f64 / ops);
    put("net.tcp.msg_ns_per_op".into(), tcp_msgs.ns as f64 / ops);
    put("net.tcp.segments_per_op".into(), tcp_segments as f64 / ops);
    // One request and one response per server-side request, whatever
    // the fabric (client traffic and the replication chain alike).
    put("net.fabric.msgs_per_op".into(), 2.0 * reqs as f64 / ops);

    put(
        "storage.file_service.reads_per_op".into(),
        fs_read.count as f64 / ops,
    );
    put(
        "storage.file_service.writes_per_op".into(),
        fs_write.count as f64 / ops,
    );
    put(
        "storage.file_service.read_ns_per_op".into(),
        fs_read.ns as f64 / ops,
    );
    put(
        "storage.file_service.write_ns_per_op".into(),
        fs_write.ns as f64 / ops,
    );

    put("dds.server.gets_per_op".into(), gets as f64 / ops);
    put("dds.server.puts_per_op".into(), puts as f64 / ops);
    put("dds.server.scans_per_op".into(), scans as f64 / ops);
    put("dds.server.req_ns_per_op".into(), server_ns as f64 / ops);
    if traced.parents {
        put(
            "dds.server.self_ns_per_op".into(),
            server_self_ns as f64 / ops,
        );
    }
    let routed = |route: &str| -> u64 {
        let key = format!("dds_requests{{kind=KvGet,route={route}}}");
        traced
            .counters
            .iter()
            .filter(|(name, _)| *name == key)
            .map(|(_, v)| *v)
            .sum()
    };
    let (dpu, host) = (routed("Dpu"), routed("Host"));
    if dpu + host > 0 {
        put(
            "dds.offload_fraction".into(),
            dpu as f64 / (dpu + host) as f64,
        );
    }
    put(
        "telemetry.spans_per_op".into(),
        traced.spans.len() as f64 / ops,
    );
    out
}

/// The layer metrics that need no trace: model counters every
/// repetition carries.
pub fn from_virtual(virt: &Virtual) -> BTreeMap<String, f64> {
    let ops = virt.issued.max(1) as f64;
    let mut out = BTreeMap::new();
    out.insert("des.polls_per_op".to_string(), virt.polls as f64 / ops);
    out.insert(
        "dds.client.retries_per_op".to_string(),
        virt.client_retries as f64 / ops,
    );
    out.insert(
        "dds.client.timeouts".to_string(),
        virt.client_timeouts as f64,
    );
    out.insert(
        "dds.cluster.shed_per_op".to_string(),
        virt.cluster_shed as f64 / ops,
    );
    out.insert(
        "des.domain.remote_frac".to_string(),
        virt.remote as f64 / ops,
    );
    for (tenant, key) in virt.tenants.iter().zip(["storm", "steady", "scan"]) {
        out.insert(
            format!("dds.gateway.{key}_p99_us"),
            tenant.p99_ns as f64 / 1e3,
        );
        if key == "storm" {
            out.insert(
                "dds.gateway.storm_shed_frac".to_string(),
                tenant.shed as f64 / tenant.issued.max(1) as f64,
            );
        }
    }
    out
}
