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
//! closed-loop fleet the hot shard's appends, serialised on its log's
//! write lock, soak up client window slots and throttle the cold shard
//! too.
//! `saved/server` converts the per-request host-cycle delta to cores
//! at a production rate of 5M req/s per server, matching Figure 9's
//! scaling.
//!
//! There is one sweep. `--servers N…` on the bin picks other fleet
//! sizes for the same table, through the same `measure` →
//! `Cell::run` path on the same serial `DdsCluster`, so replication,
//! fabric and congestion flags apply at 64 servers as they do at 1, and
//! every column is virtual: two runs print identical bytes. (64 servers
//! × 256 clients × 32 768 ops is about a second per cell in release.)
//! Past 8 servers the uniform claims keep holding — goodput 1.23 M →
//! 6.46 M ops/s at 8 → 64, p50 flat, ~19 cores saved per server — while
//! zipf 0.99 runs into the hot shard's 64-slot admission window and
//! sheds from 32 servers on (EXPERIMENTS.md, "Beyond the testbed").

use dpdpu_dds::cluster::ClusterConfig;
use dpdpu_dds::kv::INDEX_ENTRY_BYTES;
use dpdpu_dds::server::DdsConfig;
use dpdpu_net::NetConfig;

use crate::cell::Cell;
use crate::fleet::{FleetConfig, KeyDist, Mix, MAX_CLIENTS};
use crate::table::Table;

pub(crate) const KEYS: u64 = 128;
pub(crate) const CLIENTS_PER_SERVER: usize = 4;
/// Requests each client keeps in flight: the load is a closed loop.
pub(crate) const PIPELINE: usize = 4;
const OPS_PER_CLIENT: u64 = 128;
/// Production per-server request rate the cycle delta is scaled to.
const PROD_RATE: f64 = 5_000_000.0;

/// The testbed's fleet sizes: what `run` and the figure golden sweep.
pub const SERVERS: [usize; 4] = [1, 2, 4, 8];

/// Runs the default sweep and renders the table.
pub(crate) fn run() -> String {
    run_with(&SERVERS, NetConfig::default(), 1)
}

/// The default sweep with every shard replicated twice: the replication
/// tax, against [`run`]'s table.
pub(crate) fn run_replicated() -> String {
    run_with(&SERVERS, NetConfig::default(), 2)
}

/// The bin's `--servers` list: every token of `args` up to the next
/// `--flag`, each a fleet size whose clients (at most 1 000, the most
/// one run's seeds keep apart) fit one run. `Err` is the usage message.
pub fn parse_servers(
    args: &mut std::iter::Peekable<impl Iterator<Item = String>>,
) -> Result<Vec<usize>, String> {
    let max = MAX_CLIENTS / CLIENTS_PER_SERVER;
    // A non-number reads as 0, which no fleet has.
    let servers: Vec<usize> = std::iter::from_fn(|| args.next_if(|a| !a.starts_with("--")))
        .map(|token| token.parse().unwrap_or(0))
        .collect();
    if servers.is_empty() || servers.iter().any(|n| !(1..=max).contains(n)) {
        return Err(format!(
            "--servers takes fleet sizes in 1..={max} (at most {MAX_CLIENTS} clients)"
        ));
    }
    Ok(servers)
}

/// Runs the sweep at each fleet size of `servers` over `net` (fabric,
/// congestion control, link shaping — the bin's `--fabric`/`--cong`
/// flags land here) with `replicas` copies of every shard (`--replicas`).
/// At 2, every write chains primary→backup before acking, so the table
/// doubles as the replication tax measurement: the host-core saving must
/// survive the extra fabric hop.
pub fn run_with(servers: &[usize], net: NetConfig, replicas: usize) -> String {
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
    for &servers in servers {
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
        pipeline: PIPELINE,
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
    use dpdpu_net::fabric::FabricKind;

    fn uniform(servers: usize, offload: bool) -> Measurement {
        let keys = KEYS * servers as u64;
        let dist = KeyDist::Uniform { keys };
        measure(servers, dist, offload, NetConfig::default(), 1)
    }

    /// The sweep's claims past the testbed's 8 servers, on the one
    /// cluster model: goodput keeps growing, the per-request host-cycle
    /// saving is the 1-server saving, and the median does not move.
    #[test]
    fn the_claims_hold_at_sixteen_servers() {
        let (one, eight, sixteen) = (uniform(1, true), uniform(8, true), uniform(16, true));
        assert!(
            sixteen.agg_mops >= 1.6 * eight.agg_mops,
            "doubling a shared-nothing fleet should near-double goodput: \
             8 servers {:.3} Mops, 16 servers {:.3} Mops",
            eight.agg_mops,
            sixteen.agg_mops
        );
        let saved_at_one = uniform(1, false).host_cyc_per_req - one.host_cyc_per_req;
        let saved_at_sixteen = uniform(16, false).host_cyc_per_req - sixteen.host_cyc_per_req;
        assert!(
            (saved_at_sixteen - saved_at_one).abs() <= 0.02 * saved_at_one,
            "the host cycles/req offload saves must not erode with scale: \
             1 server {saved_at_one:.0}, 16 servers {saved_at_sixteen:.0}"
        );
        assert_eq!(
            one.p50_us, sixteen.p50_us,
            "p50 must not depend on fleet size"
        );
    }

    /// Every flag reaches every fleet size: there is one sweep, so a
    /// `--servers` table is the `--replicas`/`--fabric` table too.
    #[test]
    fn replicas_and_fabric_reach_a_servers_sized_sweep() {
        let tcp = NetConfig::default();
        let solo = run_with(&[3], tcp, 1);
        let repl = run_with(&[3], tcp, 2);
        assert!(!solo.contains("replicas/shard"), "{solo}");
        assert!(
            repl.contains("(2 replicas/shard, chained writes)"),
            "{repl}"
        );
        let table = |out: &str| out[out.find("servers").expect("header row")..].to_string();
        assert_ne!(
            table(&solo),
            table(&repl),
            "replication must move the numbers"
        );
        let rdma = run_with(&[3], tcp.with_fabric(FabricKind::Rdma), 1);
        assert_ne!(solo, rdma, "the fabric must move the numbers");
        let rows = solo
            .lines()
            .filter(|l| l.split_whitespace().next() == Some("3"));
        assert_eq!(rows.count(), 2, "one row per distribution:\n{solo}");
    }

    #[test]
    fn servers_are_validated_at_the_cli_edge() {
        let parse = |line: &str| {
            let mut args = line.split_whitespace().map(String::from).peekable();
            (parse_servers(&mut args), args.next())
        };
        // Consumes up to the next flag and leaves it for the caller.
        let (servers, rest) = parse("16 32 64 --fabric rdma");
        assert_eq!(servers, Ok(vec![16, 32, 64]));
        assert_eq!(rest.as_deref(), Some("--fabric"));
        // The bounds are the fleet sizes `run_clients` can seed.
        assert_eq!(parse("1 250").0, Ok(vec![1, 250]));
        for bad in [
            "",
            "--replicas 2",
            "0",
            "8 0",
            "251",
            "sixteen",
            "16 x",
            "-1",
            "1.5",
        ] {
            let err = parse(bad).0.expect_err(bad);
            assert!(
                err.contains("1..=250") && err.contains("1000 clients"),
                "{bad:?}: {err}"
            );
        }
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
        // Chained writes of one key serialize on the primary's per-key
        // chain order (apply order must match on the backup); writes of
        // other keys chain at once, and each holds its key for the
        // slower of the two applies, which run at once, not their sum:
        // 2 replicas keep 0.99x of the solo goodput (0.97x under one
        // gate per group, 0.49x while the backup's apply waited for the
        // primary's). The bound guards against the tax compounding
        // beyond the chain's inherent cost.
        // The host-cycle saving from offload must survive the extra hop
        // outright, and a backup applies a chain write of a DPU-resident
        // key on its DPU: counting every replica's host, 2 replicas add
        // only the primary's two ring crossings per put (2 x 450 cycles,
        // ~7.5 % here; the backup's end of the chain is DPU-native),
        // where an apply on the backup's host would add 12 000.
        let dist = KeyDist::Uniform { keys: KEYS * 2 };
        let solo = measure(2, dist, true, NetConfig::default(), 1);
        let repl = measure(2, dist, true, NetConfig::default(), 2);
        assert!(
            repl.host_cyc_per_req <= 1.10 * solo.host_cyc_per_req,
            "the backups' hosts must not pay for the chain: host cycles/req \
             {:.0} at 1 replica, {:.0} at 2",
            solo.host_cyc_per_req,
            repl.host_cyc_per_req
        );
        assert!(
            repl.agg_mops >= 0.7 * solo.agg_mops,
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
