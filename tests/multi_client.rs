//! Multi-client DDS: several clients share the storage server's single
//! 100 Gbps port (via the TCP mux) and issue concurrent, interleaved KV
//! and page-server traffic. Verifies correctness under concurrency and
//! that the director's routing counts add up exactly — and, under an
//! aggressive fault plan, that every request still reaches a terminal
//! state within its retry-policy deadline and the director's circuit
//! breaker re-closes once the faults stop.

use bytes::Bytes;
use dpdpu::dds::director::DEGRADE_PENALTY_NS;
use dpdpu::dds::proto::RetryPolicy;
use dpdpu::dds::server::{Dds, DdsClient, DdsConfig};
use dpdpu::des::{block_on, sleep, spawn};
use dpdpu::faults::{FaultPlan, SessionGuard};
use dpdpu::hw::{CpuPool, LinkConfig, Platform};
use dpdpu::net::fabric::Endpoint;
use dpdpu::net::tcp::TcpConnector;

const CLIENTS: usize = 4;
const OPS_PER_CLIENT: u64 = 64;

#[test]
fn four_clients_share_one_server_port() {
    block_on(async move {
        let platform = Platform::default_bf2();
        let dds = Dds::build(platform.clone(), DdsConfig::default()).await;

        let client_cpu = CpuPool::new("clients", 16, 3_000_000_000);
        let server_side = Endpoint::of(&platform);
        let client_side = Endpoint::host(client_cpu);
        // All clients multiplex over ONE duplex port pair.
        let net = TcpConnector::new(LinkConfig::rack_100g());
        let c2s = net.streams(client_side.clone(), server_side.clone(), CLIENTS);
        let s2c = net.streams(server_side, client_side, CLIENTS);

        let mut handles = Vec::new();
        for (cid, ((c_tx, c_rx), (s_tx, s_rx))) in c2s.into_iter().zip(s2c).enumerate() {
            dds.serve(c_rx, s_tx);
            let client = DdsClient::new(c_tx, s_rx);
            let dds = dds.clone();
            handles.push(spawn(async move {
                let base = cid as u64 * 10_000;
                for i in 0..OPS_PER_CLIENT {
                    match i % 4 {
                        0 => {
                            client
                                .kv_put(base + i, Bytes::from(format!("c{cid}-v{i}")))
                                .await
                                .unwrap();
                        }
                        1 => {
                            // Read back our own previous write.
                            let got = client.kv_get(base + i - 1).await.unwrap().unwrap();
                            assert_eq!(got, Bytes::from(format!("c{cid}-v{}", i - 1)));
                        }
                        2 => {
                            client
                                .append_log(
                                    base % 512 + i,
                                    (i * 13 % 8_000) as u32,
                                    Bytes::from(vec![cid as u8; 8]),
                                )
                                .await
                                .unwrap();
                        }
                        _ => {
                            let page = client.get_page(base % 512 + i - 1).await.unwrap();
                            assert_eq!(page.len(), 8_192);
                        }
                    }
                }
                // Cross-client isolation: other clients' keys invisible
                // under our namespace only if never written there.
                assert_eq!(client.kv_get(base + 9_999).await.unwrap(), None);
                let _ = dds;
            }));
        }
        dpdpu::des::join_all(handles).await;

        let total = dds.served_dpu.get() + dds.served_host.get();
        // Every op plus the isolation probe per client.
        assert_eq!(total, CLIENTS as u64 * (OPS_PER_CLIENT + 1));
        // Both paths were exercised.
        assert!(dds.served_dpu.get() > 0, "some requests must offload");
        assert!(dds.served_host.get() > 0, "writes must reach the host");
    });
}

const STRESS_CLIENTS: usize = 8;
const STRESS_OPS: u64 = 48;

/// Eight concurrent clients under an aggressive fault plan (link drops,
/// SSD errors, slow I/O, periodic DPU overload) with tight retry-policy
/// deadlines. Liveness is the claim: every single request reaches a
/// terminal state — a response or a typed error, never a hang — and once
/// the faulty window is behind us the director's breaker re-closes.
#[test]
fn stress_clients_terminate_under_aggressive_faults() {
    let guard = SessionGuard::new(
        FaultPlan::new(97)
            .link_drops(0.05)
            .ssd_read_errors(0.10)
            .ssd_slow_io(0.05, 200_000)
            // DPU reports busy for the first 30% of every 2 ms period.
            .dpu_overload(0, 600_000)
            .dpu_overload(2_000_000, 2_600_000)
            .dpu_overload(4_000_000, 4_600_000),
    );
    block_on(async move {
        let platform = Platform::default_bf2();
        let dds = Dds::build(platform.clone(), DdsConfig::default()).await;

        let client_cpu = CpuPool::new("clients", 16, 3_000_000_000);
        let server_side = Endpoint::of(&platform);
        let client_side = Endpoint::host(client_cpu);
        let net = TcpConnector::new(LinkConfig::rack_100g());
        let c2s = net.streams(client_side.clone(), server_side.clone(), STRESS_CLIENTS);
        let s2c = net.streams(server_side, client_side, STRESS_CLIENTS);

        let policy = RetryPolicy {
            max_attempts: 6,
            request_timeout_ns: 3_000_000,
            base_backoff_ns: 100_000,
            max_backoff_ns: 2_000_000,
            deadline_ns: 40_000_000,
        };
        let mut handles = Vec::new();
        for (cid, ((c_tx, c_rx), (s_tx, s_rx))) in c2s.into_iter().zip(s2c).enumerate() {
            dds.serve(c_rx, s_tx);
            let client = DdsClient::new(c_tx, s_rx);
            client.set_policy(policy);
            handles.push(spawn(async move {
                let base = cid as u64 * 10_000;
                let mut terminal = 0u64;
                let mut errors = 0u64;
                for i in 0..STRESS_OPS {
                    // Interleave puts and gets; every call must RETURN —
                    // Ok or a typed error — within the policy deadline.
                    if i % 2 == 0 {
                        match client
                            .kv_put(base + i, Bytes::from(vec![cid as u8; 64]))
                            .await
                        {
                            Ok(()) => {}
                            Err(_) => errors += 1,
                        }
                    } else {
                        match client.kv_get(base + i - 1).await {
                            // The previous put may itself have failed, so
                            // a missing key is a valid terminal answer.
                            Ok(_) => {}
                            Err(_) => errors += 1,
                        }
                    }
                    terminal += 1;
                }
                (terminal, errors)
            }));
        }
        let mut terminal = 0u64;
        let mut errors = 0u64;
        for h in handles {
            let (t, e) = h.await;
            terminal += t;
            errors += e;
        }
        assert_eq!(
            terminal,
            STRESS_CLIENTS as u64 * STRESS_OPS,
            "every request must reach a terminal state"
        );
        // Typed errors are allowed under this fault rate, hangs are not;
        // and the vast majority of requests must still succeed.
        assert!(
            errors <= terminal / 10,
            "error rate too high: {errors}/{terminal}"
        );

        // The plan's overload windows are long past; wait out the
        // breaker's penalty and the DPU path must be trusted again.
        sleep(DEGRADE_PENALTY_NS + 1).await;
        assert!(
            !dds.director.is_degraded(),
            "breaker must re-close after the penalty window"
        );
    });
    let report = guard.session.report();
    assert!(report.total() > 0, "the aggressive plan must inject faults");
}
