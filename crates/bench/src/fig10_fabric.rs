//! **Figure 10 (fabric) — what the shard transport costs the host.**
//!
//! The scale-out sweep (`fig10_cluster_scale`) varies the fleet; this
//! one varies the *fabric* the shards are reached over. The same
//! workload — 4 clients per server, ×4 pipelining, 128 ops each,
//! 95/5 read/update over a uniform key population — runs against
//! 1→8-server clusters three times: offloaded TCP (the seed's
//! hard-coded transport), host-verbs RDMA (the host CPU issues every
//! WQE and polls every CQ), and DPU-issued RDMA (the host enqueues
//! descriptors on NE rings; the DPU posts the verbs and the server
//! side terminates on the DPU, so the server host touches nothing).
//!
//! The reproduction target: aggregate goodput stays equal-or-better
//! as verbs move off the host, while per-request server host cycles
//! drop — TCP pays two ring crossings per request, host-verbs RDMA
//! pays verb-issue plus CQ-poll cycles, rdma-offload pays zero.
//! `saved/server` converts each fabric's per-request host-cycle delta
//! against TCP to cores at a production rate of 5M req/s per server.

use dpdpu_net::fabric::FabricKind;
use dpdpu_net::NetConfig;

use crate::fig10_cluster_scale::{self, Measurement, KEYS, PROD_RATE, SERVERS};
use crate::fleet::KeyDist;
use crate::table::Table;

/// Runs the full sweep and renders the table.
pub(crate) fn run() -> String {
    run_with(None, NetConfig::default())
}

/// Runs the sweep, optionally restricted to one fabric (`--fabric` on
/// the binary; TCP is always measured — it is the savings baseline),
/// over `base` network settings (congestion control, link shaping) with
/// the fabric column overriding `base.fabric`.
pub fn run_with(only: Option<FabricKind>, base: NetConfig) -> String {
    let mut table = Table::new(&[
        "servers",
        "fabric",
        "agg_kops",
        "p50_us",
        "p99_us",
        "host_cyc_per_req",
        "saved_cores_per_server",
    ]);
    for servers in SERVERS {
        let tcp = measure(servers, FabricKind::Tcp, base);
        for fabric in FabricKind::ALL {
            if only.is_some_and(|k| k != fabric) {
                continue;
            }
            let other;
            let m = if fabric == FabricKind::Tcp {
                &tcp
            } else {
                other = measure(servers, fabric, base);
                &other
            };
            let saved = (tcp.host_cyc_per_req - m.host_cyc_per_req) * PROD_RATE / 3.0e9;
            table.row(vec![
                format!("{servers}"),
                format!("{fabric}"),
                format!("{:.0}", m.agg_mops * 1e3),
                format!("{:.1}", m.p50_us),
                format!("{:.1}", m.p99_us),
                format!("{:.0}", m.host_cyc_per_req),
                format!("{:.2}", saved.max(0.0)),
            ]);
        }
    }
    format!(
        "## Figure 10 (fabric): shard-transport host cost across the fleet\n\
         (target shape: aggregate goodput holds equal-or-better as verbs move \
         off the host, while per-request server host cycles fall from TCP's \
         ring crossings through host-verbs RDMA to zero under DPU-issued \
         rdma-offload, so the per-server core saving multiplies with rate)\n\n{}",
        table.render(),
    )
}

fn measure(servers: usize, fabric: FabricKind, base: NetConfig) -> Measurement {
    fig10_cluster_scale::measure(
        servers,
        KeyDist::Uniform {
            keys: KEYS * servers as u64,
        },
        true,
        base.with_fabric(fabric),
        1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig10_cluster_scale::{CLIENTS_PER_SERVER, PIPELINE};
    use crate::fig7_rdma;

    #[test]
    fn offload_fabric_cuts_host_cycles_at_equal_or_better_goodput() {
        let tcp = measure(2, FabricKind::Tcp, NetConfig::default());
        let off = measure(2, FabricKind::RdmaOffload, NetConfig::default());
        assert!(
            off.host_cyc_per_req < tcp.host_cyc_per_req,
            "DPU-issued verbs must cost the server hosts fewer cycles/req \
             than TCP (tcp {:.0}, rdma-offload {:.0})",
            tcp.host_cyc_per_req,
            off.host_cyc_per_req
        );
        // The load is a closed loop, so by Little's law each request
        // holds one of its in-flight slots for `in_flight / goodput`.
        // Moving verbs off the host may lengthen that by the NE ring's
        // latency premium over host-issued verbs, which Fig. 7 measures,
        // and by nothing else.
        let in_flight = (2 * CLIENTS_PER_SERVER * PIPELINE) as f64;
        let premium_us =
            (fig7_rdma::measure_rings(64).1 - fig7_rdma::measure_verbs(64).1) as f64 / 1e3;
        let (tcp_us, off_us) = (in_flight / tcp.agg_mops, in_flight / off.agg_mops);
        assert!(
            off_us <= tcp_us + premium_us,
            "moving verbs off the host must not cost goodput beyond the NE ring's \
             {premium_us:.1} us latency premium (Fig. 7): tcp {:.3} Mops ({tcp_us:.1} us \
             per request), rdma-offload {:.3} Mops ({off_us:.1} us)",
            tcp.agg_mops,
            off.agg_mops
        );
    }

    #[test]
    fn host_verbs_rdma_sits_between_tcp_and_offload() {
        // Host-verbs RDMA removes the kernel/ring path but still burns
        // host cycles on verb issue + CQ polls: cheaper than neither
        // extreme is a modelling bug.
        let tcp = measure(2, FabricKind::Tcp, NetConfig::default());
        let rdma = measure(2, FabricKind::Rdma, NetConfig::default());
        let off = measure(2, FabricKind::RdmaOffload, NetConfig::default());
        assert!(
            off.host_cyc_per_req < rdma.host_cyc_per_req,
            "offload must beat host-verbs on host cycles \
             (rdma {:.0}, rdma-offload {:.0})",
            rdma.host_cyc_per_req,
            off.host_cyc_per_req
        );
        assert!(
            rdma.p50_us <= tcp.p50_us,
            "kernel-bypass RDMA must not add median latency over TCP \
             (tcp {:.1}us, rdma {:.1}us)",
            tcp.p50_us,
            rdma.p50_us
        );
    }
}
