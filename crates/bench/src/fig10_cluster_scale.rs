//! **Figure 10 (extension) — DDS savings scale out with the fleet.**
//!
//! The paper measures one DDS server (Figure 9). This sweep asks the
//! production question: run N of them behind a consistent-hash router
//! with an offered load that grows with the fleet, and check that (a)
//! aggregate goodput scales near-linearly to 8 servers — the shards
//! share nothing, so the router must not introduce a bottleneck — and
//! (b) the *per-server* host-CPU saving from DPU offload holds at
//! every fleet size and skew, so the paper's "10s of cores per server"
//! headline multiplies across a rack instead of eroding.
//!
//! Each configuration is measured twice — offload disabled, then
//! enabled — on identical workloads: 4 clients per server, a ×4
//! sliding in-flight window each, 128 ops per client, 95/5
//! read/update, and a key population that grows with the fleet (128
//! keys per server — constant per-shard working set). The ring runs
//! 512 virtual nodes: at 64 the 2-shard split is 58/42, and under a
//! closed-loop fleet the hot shard's WAL-append convoys soak up every
//! client's window slots, throttling the cold shard too.
//! `saved/server` converts the per-request host-cycle delta to cores
//! at a production rate of 5M req/s per server, matching Figure 9's
//! scaling.

use dpdpu_dds::cluster::ClusterConfig;
use dpdpu_dds::kv::INDEX_ENTRY_BYTES;
use dpdpu_dds::server::DdsConfig;
use dpdpu_net::NetConfig;

use crate::cell::Cell;
use crate::fleet::{FleetConfig, KeyDist, Mix};
use crate::table::Table;

pub(crate) const KEYS: u64 = 128;
const CLIENTS_PER_SERVER: usize = 4;
const OPS_PER_CLIENT: u64 = 128;
/// Production per-server request rate the cycle delta is scaled to.
const PROD_RATE: f64 = 5_000_000.0;

/// Runs the sweep and renders the table.
pub fn run() -> String {
    run_with(NetConfig::default())
}

/// Runs the sweep over `net` (fabric, congestion control, link
/// shaping — the bin's `--fabric`/`--cong` flags land here).
pub fn run_with(net: NetConfig) -> String {
    run_with_replicas(net, 1)
}

/// Runs the sweep with `replicas` copies of every shard (the bin's
/// `--replicas` flag). At 2, every write chains primary→backup before
/// acking, so the table doubles as the replication tax measurement:
/// the host-core saving must survive the extra fabric hop.
pub fn run_with_replicas(net: NetConfig, replicas: usize) -> String {
    let mut table = Table::new(&[
        "servers",
        "clients",
        "dist",
        "agg_kops",
        "p50_us",
        "p99_us",
        "shed",
        "saved_cores_per_server",
    ]);
    for servers in [1usize, 2, 4, 8] {
        let keys = KEYS * servers as u64;
        for dist in [
            KeyDist::Uniform { keys },
            KeyDist::Zipfian { keys, theta: 0.99 },
        ] {
            let base = measure(servers, dist, false, net, replicas);
            let off = measure(servers, dist, true, net, replicas);
            let saved = (base.host_cyc_per_req - off.host_cyc_per_req) * PROD_RATE / 3.0e9;
            table.row(vec![
                format!("{servers}"),
                format!("{}", servers * CLIENTS_PER_SERVER),
                dist.label(),
                format!("{:.0}", off.agg_mops * 1e3),
                format!("{:.1}", off.p50_us),
                format!("{:.1}", off.p99_us),
                format!("{}", off.shed),
                format!("{:.2}", saved.max(0.0)),
            ]);
        }
    }
    format!(
        "## Figure 10 (extension): cluster scale-out of DDS savings{}\n\
         (target shape: aggregate goodput grows near-linearly with servers — \
         shared-nothing shards behind a consistent-hash router — while the \
         per-server host-core saving from DPU offload stays flat, so the \
         Fig. 9 headline multiplies across the fleet)\n\n{}",
        if replicas > 1 {
            format!(" ({replicas} replicas/shard, chained writes)")
        } else {
            String::new()
        },
        table.render(),
    )
}

/// The beyond-the-testbed sweep: the domain-partitioned cluster
/// (`crate::par_cluster`) at fleet sizes the single-threaded sweep
/// above cannot reach in reasonable wall-clock — one time domain per
/// server, driven on `jobs` worker threads under the conservative
/// synchronizer. Wall-clock seconds are real; every other column is
/// virtual and byte-identical at any job count. `agg_kops` here is
/// *virtual* throughput (completed ops over the latest domain clock),
/// `sim_kevents_per_s` the wall-clock event rate the parallel core
/// sustained.
pub fn run_scale(servers: &[usize], jobs: usize) -> String {
    use crate::par_cluster::{run_par, ParClusterConfig};

    let mut table = Table::new(&[
        "servers",
        "clients",
        "ops",
        "remote_pct",
        "agg_kops",
        "p50_us",
        "p99_us",
        "wall_s",
        "sim_kevents_per_s",
    ]);
    for &n in servers {
        let cfg = ParClusterConfig {
            domains: n,
            clients_per_domain: CLIENTS_PER_SERVER,
            ops_per_client: OPS_PER_CLIENT,
            ..ParClusterConfig::default()
        };
        let t0 = std::time::Instant::now();
        let run = run_par(cfg, jobs);
        let wall = t0.elapsed().as_secs_f64();
        table.row(vec![
            format!("{n}"),
            format!("{}", n * CLIENTS_PER_SERVER),
            format!("{}", run.ok),
            format!(
                "{:.1}",
                run.remote as f64 * 100.0 / run.issued.max(1) as f64
            ),
            format!("{:.0}", run.ok as f64 / run.elapsed_ns.max(1) as f64 * 1e6),
            format!("{:.1}", run.mean_p50_ns as f64 / 1e3),
            format!("{:.1}", run.max_p99_ns as f64 / 1e3),
            format!("{wall:.2}"),
            format!("{:.0}", run.polls as f64 / wall / 1e3),
        ]);
    }
    format!(
        "## Figure 10 (extension): beyond the testbed — partitioned cluster, \
         {jobs} worker thread(s)\n\
         (target shape: virtual agg_kops grows near-linearly with servers while \
         p50/p99 hold — shared-nothing shards only meet at the consistent-hash \
         ring — and the run replays byte-identically at any thread count)\n\n{}",
        table.render(),
    )
}

pub(crate) struct Measurement {
    pub(crate) agg_mops: f64,
    pub(crate) p50_us: f64,
    pub(crate) p99_us: f64,
    pub(crate) shed: u64,
    pub(crate) host_cyc_per_req: f64,
}

pub(crate) fn measure(
    servers: usize,
    dist: KeyDist,
    offload: bool,
    net: NetConfig,
    replicas: usize,
) -> Measurement {
    let clients = servers * CLIENTS_PER_SERVER;
    let fleet = FleetConfig {
        clients,
        ops_per_client: OPS_PER_CLIENT,
        pipeline: 4,
        gap_ns: 0,
        dist,
        mix: Mix::read_heavy(),
        value_bytes: 256,
        scan_len: 8,
        ..FleetConfig::default()
    };
    let run = Cell {
        cluster: ClusterConfig {
            shards: servers,
            vnodes: 512,
            net,
            replicas,
            dds: DdsConfig {
                offload_enabled: offload,
                // Room for the whole per-shard key share (~KEYS each
                // under the scaled population) plus imbalance headroom.
                kv_index_budget: 2 * KEYS * INDEX_ENTRY_BYTES,
                ..DdsConfig::default()
            },
            ..ClusterConfig::default()
        },
        // A fleet CPU pool wide enough that the load generators are
        // never the bottleneck being measured.
        pool_cores: (clients * 8).max(16),
        ..Cell::fleet(fleet)
    }
    .run(42);
    let report = run.fleet;
    Measurement {
        agg_mops: report.throughput_mops(),
        p50_us: report.p50_ns as f64 / 1e3,
        p99_us: report.p99_ns as f64 / 1e3,
        shed: report.shed,
        host_cyc_per_req: run.load_host_busy_ns as f64 * 3.0 / report.ok.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_sweep_renders_and_scales() {
        let out = run_scale(&[2, 4], 2);
        assert!(out.contains("beyond the testbed"), "{out}");
        assert!(out.contains("sim_kevents_per_s"), "{out}");
        // One data row per fleet size after the header separator.
        let rows = out
            .lines()
            .skip_while(|l| !l.starts_with('-'))
            .skip(1)
            .filter(|l| !l.is_empty())
            .count();
        assert_eq!(rows, 2, "{out}");
    }

    #[test]
    fn aggregate_goodput_scales_near_linearly() {
        let one = measure(
            1,
            KeyDist::Uniform { keys: KEYS },
            true,
            NetConfig::default(),
            1,
        );
        let four = measure(
            4,
            KeyDist::Uniform { keys: KEYS * 4 },
            true,
            NetConfig::default(),
            1,
        );
        assert!(
            four.agg_mops > 2.5 * one.agg_mops,
            "4 shared-nothing servers should near-quadruple goodput: \
             1 server {:.3} Mops, 4 servers {:.3} Mops",
            one.agg_mops,
            four.agg_mops
        );
    }

    #[test]
    fn per_server_saving_survives_scale_out_and_skew() {
        for dist in [
            KeyDist::Uniform { keys: KEYS * 2 },
            KeyDist::Zipfian {
                keys: KEYS * 2,
                theta: 0.99,
            },
        ] {
            let base = measure(2, dist, false, NetConfig::default(), 1);
            let off = measure(2, dist, true, NetConfig::default(), 1);
            assert!(
                off.host_cyc_per_req * 2.0 < base.host_cyc_per_req,
                "{}: offload should at least halve host cycles/req \
                 (baseline {:.0}, offloaded {:.0})",
                dist.label(),
                base.host_cyc_per_req,
                off.host_cyc_per_req
            );
        }
    }

    #[test]
    fn replication_tax_does_not_erase_the_offload_win() {
        // Chained writes serialize on the primary's chain gate (apply
        // order must match on the backup), so a closed-loop fleet goes
        // write-bound and pays roughly 2× on its update share — the
        // bound here guards against the tax compounding beyond the
        // chain's inherent cost. The host-cycle saving from offload
        // must survive the extra hop outright.
        let dist = KeyDist::Uniform { keys: KEYS * 2 };
        let solo = measure(2, dist, true, NetConfig::default(), 1);
        let repl = measure(2, dist, true, NetConfig::default(), 2);
        assert!(
            repl.agg_mops > 0.33 * solo.agg_mops,
            "replication should cost the chain serialization, not more: \
             1 replica {:.3} Mops, 2 replicas {:.3} Mops",
            solo.agg_mops,
            repl.agg_mops
        );
        let base = measure(2, dist, false, NetConfig::default(), 2);
        assert!(
            repl.host_cyc_per_req * 2.0 < base.host_cyc_per_req,
            "offload must still at least halve host cycles/req under replication \
             (baseline {:.0}, offloaded {:.0})",
            base.host_cyc_per_req,
            repl.host_cyc_per_req
        );
    }
}
