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
//! The reproduction target: moving verbs off the host costs a request
//! no more than the NE rings' latency premium, and the transport costs
//! the server host nothing on both DPU-terminated fabrics — TCP's
//! server half and rdma-offload's server QP end on the DPU, so both
//! read the DDS application's own host cycles, to the bit, while
//! host-verbs RDMA adds verb-issue plus CQ-poll cycles on top.

use dpdpu_net::fabric::FabricKind;
use dpdpu_net::NetConfig;

use crate::fig10_cluster_scale::{self, Measurement, KEYS, SERVERS};
use crate::fleet::KeyDist;
use crate::table::Table;

/// Runs the full sweep and renders the table.
pub(crate) fn run() -> String {
    run_with(None, NetConfig::default())
}

/// Runs the sweep, optionally restricted to one fabric (`--fabric` on
/// the binary), over `base` network settings (congestion control, link
/// shaping) with the fabric column overriding `base.fabric`.
pub fn run_with(only: Option<FabricKind>, base: NetConfig) -> String {
    let mut table = Table::new(&[
        "servers",
        "fabric",
        "agg_kops",
        "p50_us",
        "p99_us",
        "host_cyc_per_req",
    ]);
    for servers in SERVERS {
        for fabric in FabricKind::ALL {
            if only.is_some_and(|k| k != fabric) {
                continue;
            }
            let m = measure(servers, fabric, base);
            table.row(vec![
                format!("{servers}"),
                format!("{fabric}"),
                format!("{:.0}", m.agg_mops * 1e3),
                format!("{:.1}", m.p50_us),
                format!("{:.1}", m.p99_us),
                format!("{:.0}", m.host_cyc_per_req),
            ]);
        }
    }
    format!(
        "## Figure 10 (fabric): shard-transport host cost across the fleet\n\
         (target shape: TCP and DPU-issued rdma-offload both end the server's \
         transport on its DPU, so their server host cycles are the DDS \
         application's alone and equal; host-verbs RDMA adds verb-issue and \
         CQ-poll cycles on top, and moving verbs off the host costs a request \
         no more than the NE ring's latency premium)\n\n{}",
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
    fn offload_fabric_matches_tcp_host_cycles_at_equal_or_better_goodput() {
        let tcp = measure(2, FabricKind::Tcp, NetConfig::default());
        let off = measure(2, FabricKind::RdmaOffload, NetConfig::default());
        // Both fabrics end the server's transport on its DPU, so the
        // server hosts pay only for the requests the director routes to
        // them: the same cycles per request, to the bit.
        assert_eq!(
            off.host_cyc_per_req, tcp.host_cyc_per_req,
            "DPU-terminated fabrics must cost the server hosts the same cycles/req"
        );
        // Moving the client's verbs behind the NE rings may lengthen a
        // request by the rings' latency premium over host-issued verbs,
        // which Fig. 7 measures, and by nothing else. The premium is a
        // difference of medians, so it bounds the medians first.
        let premium_us =
            (fig7_rdma::measure_rings(64).1 - fig7_rdma::measure_verbs(64).1) as f64 / 1e3;
        assert!(
            off.p50_us <= tcp.p50_us + premium_us,
            "moving verbs off the host must not cost a request more than the NE ring's \
             {premium_us:.1} us latency premium (Fig. 7): p50 tcp {:.1} us, rdma-offload \
             {:.1} us",
            tcp.p50_us,
            off.p50_us
        );
        // The load is a closed loop, so by Little's law each request
        // holds one of its in-flight slots for `in_flight / goodput`:
        // the same premium bounds the mean, so queueing behind the
        // rings shows here where the medians hide it.
        let in_flight = (2 * CLIENTS_PER_SERVER * PIPELINE) as f64;
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
    fn host_verbs_rdma_costs_the_host_more_than_either_dpu_fabric() {
        // Host-verbs RDMA removes the kernel path but issues its verbs
        // and polls its CQs on host cores, where both DPU-terminated
        // fabrics charge the server host nothing for transport; it must
        // still be no slower than TCP at the median.
        let tcp = measure(2, FabricKind::Tcp, NetConfig::default());
        let rdma = measure(2, FabricKind::Rdma, NetConfig::default());
        let off = measure(2, FabricKind::RdmaOffload, NetConfig::default());
        for (name, m) in [("tcp", &tcp), ("rdma-offload", &off)] {
            assert!(
                m.host_cyc_per_req < rdma.host_cyc_per_req,
                "host-verbs RDMA must cost the server hosts more than {name} \
                 (rdma {:.0}, {name} {:.0})",
                rdma.host_cyc_per_req,
                m.host_cyc_per_req
            );
        }
        assert!(
            rdma.p50_us <= tcp.p50_us,
            "kernel-bypass RDMA must not add median latency over TCP \
             (tcp {:.1}us, rdma {:.1}us)",
            tcp.p50_us,
            rdma.p50_us
        );
    }
}
