//! The experiment cell: one deployment under one load, as a value.
//!
//! A [`Cell`] holds the values a cluster experiment is made of and
//! [`Cell::run`] owns the one sequence they all share, so a scenario, a
//! figure point or a chaos-matrix row is a `Cell` literal plus the
//! caller's own predicates and prints over the returned [`Run`]. The
//! order, and why the script is spawned after preload and before the
//! load, is DESIGN.md section 9, "The experiment cell".

use std::rc::Rc;

use bytes::Bytes;
use dpdpu_check::linearizability::History;
use dpdpu_core::DpdpuError;
use dpdpu_dds::cluster::{ClusterClient, ClusterConfig, DdsCluster};
use dpdpu_dds::gateway::{Gateway, GatewayConfig, TenantSnapshot};
use dpdpu_des::{block_on, now, sleep, sleep_until, spawn, Time};
use dpdpu_faults::{FaultPlan, FaultReport, SessionGuard};
use dpdpu_hw::CpuPool;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::fleet::{
    preload_keys, run_fleet, run_tenant_fleet, FleetConfig, FleetReport, TenantFleetReport,
    TenantWorkload,
};

/// Hot key set of the register workload: small, so clients collide.
pub(crate) const REGISTER_KEYS: u64 = 8;

/// The key population written before the load: keys `0..keys`, each
/// holding `value_bytes` bytes of its own low byte. The default preloads
/// nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Preload {
    /// Population size.
    pub keys: u64,
    /// Value payload size.
    pub value_bytes: usize,
}

/// What drives the cell once it is up.
#[derive(Debug, Clone)]
pub enum Load {
    /// [`run_fleet`] on the cluster client (`Run::fleet`). The seed
    /// given to [`Cell::run`] replaces [`FleetConfig::seed`].
    Fleet(FleetConfig),
    /// [`run_tenant_fleet`] through a gateway fronting the client
    /// (`Run::tenants`, [`Run::snapshots`]).
    Tenants(GatewayConfig, Vec<TenantWorkload>),
    /// History-recording clients over `REGISTER_KEYS` (8) registers: each
    /// issues `ops_per_client` operations one at a time, a coin flip
    /// between a put of a value unique to `(client, seq)` and a get, and
    /// records every observation ([`Run::history`], [`Run::ambiguous`]).
    Registers {
        /// Concurrent clients.
        clients: usize,
        /// Operations each client issues.
        ops_per_client: u64,
        /// After the script returns, wait this long (past every crash
        /// window) and read every register back into the history: an
        /// acked write a crash lost surfaces there as a stale read.
        read_back_after: Option<Time>,
    },
}

/// One deployment under one load. Plain data: every field is a value
/// two shipped harnesses set differently.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Shards, replicas, fabric, per-server DDS configuration.
    pub cluster: ClusterConfig,
    /// Installed for the whole run; the default plan injects nothing.
    pub faults: FaultPlan,
    /// Name of the client CPU pool (a telemetry track, so trace bytes).
    pub pool_label: String,
    /// Cores in the client pool, at 3 GHz.
    pub pool_cores: usize,
    /// Population written through the client before the load.
    pub preload: Preload,
    /// The load.
    pub load: Load,
    /// One [`ClusterClient::add_shard`] per entry, in order on one task,
    /// each no earlier than this many ns after the load starts.
    pub script: Vec<Time>,
}

impl Default for Cell {
    /// The default two-shard TCP cluster under the default fleet: no
    /// faults, no preload, no script.
    fn default() -> Self {
        Cell {
            cluster: ClusterConfig::default(),
            faults: FaultPlan::default(),
            pool_label: "fleet".into(),
            pool_cores: 32,
            preload: Preload::default(),
            load: Load::Fleet(FleetConfig::default()),
            script: Vec::new(),
        }
    }
}

/// Everything a finished cell hands back. The cluster is still alive
/// (servers, chain links, ring pollers); the gateway was dropped inside
/// the simulation when its load returned and the client pool once the
/// script had too, so their connections close before quiescence —
/// `snapshots` and `shed` are what they read at that moment.
pub struct Run {
    /// The cluster.
    pub cluster: Rc<DdsCluster>,
    /// [`Load::Fleet`]'s report (all zero under another load).
    pub(crate) fleet: FleetReport,
    /// [`Load::Tenants`]' reports, in workload order.
    pub(crate) tenants: Vec<TenantFleetReport>,
    /// Gateway snapshots of the active tenants, in workload order.
    pub snapshots: Vec<TenantSnapshot>,
    /// [`Load::Registers`]' merged history, read-back included.
    pub history: History,
    /// Register writes that ended in an error after a possible effect.
    pub ambiguous: u64,
    /// Requests the client's admission windows shed, over all shards.
    pub(crate) shed: u64,
    /// Virtual time at which preload ended and the load started.
    pub load_started_at: Time,
    /// The new shard's id per script entry, in script order.
    pub script: Vec<Result<usize, DpdpuError>>,
    /// Host-CPU busy ns summed over the shards' replicas, boot through
    /// preload.
    pub(crate) preload_host_busy_ns: u64,
    /// Host-CPU busy ns summed over the shards' replicas (a grown
    /// shard's included) from the end of preload until load and script
    /// had both returned.
    pub(crate) load_host_busy_ns: u64,
    /// What the plan injected, taken after quiescence.
    pub faults: FaultReport,
}

impl Cell {
    /// The default cell under `fleet`, the population it draws from
    /// preloaded at its value size.
    pub(crate) fn fleet(fleet: FleetConfig) -> Cell {
        Cell {
            preload: Preload {
                keys: fleet.dist.keys(),
                value_bytes: fleet.value_bytes,
            },
            load: Load::Fleet(fleet),
            ..Cell::default()
        }
    }

    /// Build → connect → preload, inside a running simulation and under
    /// whatever fault session the caller installed: the cluster and the
    /// routed client. For the harness that needs the `Sim` handle itself;
    /// everything else calls [`Cell::run`].
    pub async fn boot(&self) -> (Rc<DdsCluster>, Rc<ClusterClient>) {
        let cluster = DdsCluster::build(self.cluster).await;
        let client = cluster.connect(CpuPool::new(
            self.pool_label.clone(),
            self.pool_cores,
            3_000_000_000,
        ));
        preload_keys(0..self.preload.keys, self.preload.value_bytes, |k, v| {
            client.kv_put(k, v)
        })
        .await;
        (cluster, client)
    }

    /// Runs the cell in a fresh simulation, in the module's fixed order,
    /// to quiescence. `seed` steers the load; the fault plan carries its
    /// own.
    pub fn run(self, seed: u64) -> Run {
        let session = SessionGuard::new(self.faults.clone());
        let mut run = block_on(async move {
            let (cluster, client) = self.boot().await;
            let mut run = Run {
                preload_host_busy_ns: host_busy_ns(&cluster),
                cluster,
                fleet: FleetReport::default(),
                tenants: Vec::new(),
                snapshots: Vec::new(),
                history: History::new(),
                ambiguous: 0,
                shed: 0,
                load_started_at: now(),
                script: Vec::new(),
                load_host_busy_ns: 0,
                faults: FaultReport::default(),
            };
            let script = spawn(run_script(client.clone(), self.script));
            match &self.load {
                Load::Fleet(cfg) => {
                    run.fleet = run_fleet(&client, FleetConfig { seed, ..*cfg }).await
                }
                Load::Tenants(config, workloads) => {
                    let gateway = Gateway::front(client.clone(), config.clone());
                    run.tenants = run_tenant_fleet(&gateway, workloads, seed).await;
                    run.snapshots = run
                        .tenants
                        .iter()
                        .map(|r| gateway.snapshot(r.tenant))
                        .collect();
                }
                Load::Registers {
                    clients,
                    ops_per_client,
                    ..
                } => {
                    (run.history, run.ambiguous) =
                        run_registers(&client, *clients, *ops_per_client, seed).await;
                }
            }
            run.script = script.await;
            run.load_host_busy_ns = host_busy_ns(&run.cluster) - run.preload_host_busy_ns;
            if let Load::Registers {
                clients,
                read_back_after: Some(after),
                ..
            } = self.load
            {
                sleep(after).await;
                for key in 0..REGISTER_KEYS {
                    read_register(&mut run.history, &client, clients, key)
                        .await
                        .unwrap_or_else(|e| {
                            panic!("seed {seed}: read-back of key {key} failed: {e:?}")
                        });
                }
            }
            run.shed = client.total_shed();
            run
        });
        run.faults = session.session.report();
        run
    }
}

/// Host-CPU busy ns summed over every replica of every shard: a
/// backup's host pays for the writes it applies too.
fn host_busy_ns(cluster: &DdsCluster) -> u64 {
    (0..cluster.shards())
        .flat_map(|i| cluster.group(i).members.clone())
        .map(|member| member.platform().host_cpu.busy_ns())
        .sum()
}

async fn run_script(
    client: Rc<ClusterClient>,
    script: Vec<Time>,
) -> Vec<Result<usize, DpdpuError>> {
    let t0 = now();
    let mut grown = Vec::with_capacity(script.len());
    for at in script {
        sleep_until(t0 + at).await;
        grown.push(client.add_shard().await);
    }
    grown
}

/// Reads register `key` as `reader` and records what it saw.
async fn read_register(
    history: &mut History,
    client: &ClusterClient,
    reader: usize,
    key: u64,
) -> Result<(), DpdpuError> {
    let start = now();
    let value = client
        .kv_get(key)
        .await?
        .map(|bytes| u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")));
    history.read(reader, key, value, start, now());
    Ok(())
}

/// The register workload: returns the merged history and how many
/// writes ended ambiguous. Client `c` seeds from `seed * 1000 + c`.
async fn run_registers(
    client: &Rc<ClusterClient>,
    clients: usize,
    ops_per_client: u64,
    seed: u64,
) -> (History, u64) {
    let tasks: Vec<_> = (0..clients)
        .map(|c| {
            let client = client.clone();
            spawn(async move {
                let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1_000) + c as u64);
                let mut h = History::new();
                let mut ambiguous = 0u64;
                for seq in 0..ops_per_client {
                    let key = rng.random_range(0..REGISTER_KEYS);
                    if rng.random_bool(0.5) {
                        // Unique value per (client, seq): the checker
                        // needs to identify a read's source write.
                        let value = ((c as u64) << 32) | seq;
                        let payload = Bytes::from(value.to_le_bytes().to_vec());
                        let start = now();
                        match client.kv_put(key, payload).await {
                            Ok(()) => h.write_ok(c, key, value, start, now()),
                            // Lost ack: the write may still have been
                            // applied by a retried attempt or a deposed
                            // primary.
                            Err(_) => {
                                ambiguous += 1;
                                h.write_ambiguous(c, key, value, start, now());
                            }
                        }
                    } else {
                        // A failed read observed nothing.
                        let _ = read_register(&mut h, &client, c, key).await;
                    }
                }
                (h, ambiguous)
            })
        })
        .collect();
    let mut merged = History::new();
    let mut ambiguous = 0;
    for t in tasks {
        let (h, a) = t.await;
        merged.merge(h);
        ambiguous += a;
    }
    (merged, ambiguous)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_faults::FaultSession;
    use dpdpu_telemetry::Telemetry;

    #[test]
    fn a_panicking_load_leaves_no_session_part_behind() {
        let cell = Cell {
            faults: FaultPlan::new(1).link_drops(0.01),
            load: Load::Fleet(FleetConfig {
                clients: 0,
                ..FleetConfig::default()
            }),
            ..Cell::default()
        };
        // All three parts are installed when the load panics: the tracer
        // and the checker here, the plan by `Cell::run`.
        let unwound = std::panic::catch_unwind(|| {
            let _telemetry = Telemetry::install();
            let _check = dpdpu_check::CheckGuard::new();
            cell.run(1)
        });
        assert!(unwound.is_err(), "a fleet of no clients must panic");
        assert!(
            !Telemetry::is_enabled(),
            "the tracer leaked past its unwind"
        );
        assert!(
            !dpdpu_check::is_active(),
            "the checker leaked past its unwind"
        );
        assert!(
            !FaultSession::is_active(),
            "the cell's plan leaked past its unwind"
        );
    }
}
