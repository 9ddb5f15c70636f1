//! Property-based tests over the core data structures and kernels.
//!
//! Inputs come from a seeded PRNG (the offline build has no proptest);
//! each case is reproducible from its loop index.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use dpdpu::kernels::aes::ctr_xor;
use dpdpu::kernels::crc32::crc32;
use dpdpu::kernels::dedup::chunk;
use dpdpu::kernels::deflate::{compress, decompress};
use dpdpu::kernels::record::{gen, Batch, Record, Value};
use dpdpu::kernels::sha256::{sha256, Sha256};

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.random()).collect()
}

/// DEFLATE: compress ∘ decompress = identity for arbitrary bytes.
#[test]
fn deflate_round_trips() {
    let mut rng = StdRng::seed_from_u64(0x9B_0001);
    for case in 0..64 {
        let data = {
            let len = rng.random_range(0..30_000usize);
            random_bytes(&mut rng, len)
        };
        let packed = compress(&data);
        assert_eq!(decompress(&packed).unwrap(), data, "case {case}");
    }
}

/// DEFLATE: corrupting the body never panics and never silently
/// returns wrong-length output.
#[test]
fn deflate_corruption_is_detected_or_consistent() {
    let mut rng = StdRng::seed_from_u64(0x9B_0002);
    for case in 0..64 {
        let seed = {
            let len = rng.random_range(100..2_000usize);
            random_bytes(&mut rng, len)
        };
        let flip = rng.random_range(12..60usize);
        let bit = rng.random_range(0..8u8);
        let mut packed = compress(&seed);
        let idx = flip % packed.len();
        if idx >= 12 {
            packed[idx] ^= 1 << bit;
            // Corruption detection (Err) is fine; silent acceptance must
            // at least preserve the length.
            if let Ok(out) = decompress(&packed) {
                assert_eq!(out.len(), seed.len(), "case {case}");
            }
        }
    }
}

/// AES-CTR: encryption is an involution under the same key/nonce and
/// never the identity for non-empty input.
#[test]
fn aes_ctr_involution() {
    let mut rng = StdRng::seed_from_u64(0x9B_0003);
    for case in 0..64 {
        let mut key = [0u8; 16];
        let mut nonce = [0u8; 12];
        key.fill_with(|| rng.random());
        nonce.fill_with(|| rng.random());
        let data = {
            let len = rng.random_range(1..5_000usize);
            random_bytes(&mut rng, len)
        };
        let mut buf = data.clone();
        ctr_xor(&key, &nonce, &mut buf);
        let changed = buf != data;
        ctr_xor(&key, &nonce, &mut buf);
        assert_eq!(buf, data, "case {case}");
        // The keystream is non-trivial for virtually every key; a fixed
        // point of any length >= 16 would indicate a broken cipher.
        if data.len() >= 16 {
            assert!(changed, "case {case}: AES keystream must not be all zeros");
        }
    }
}

/// SHA-256 incremental hashing is chunking-invariant.
#[test]
fn sha256_chunking_invariant() {
    let mut rng = StdRng::seed_from_u64(0x9B_0004);
    for case in 0..64 {
        let data = {
            let len = rng.random_range(0..10_000usize);
            random_bytes(&mut rng, len)
        };
        let split: usize = rng.random();
        let cut = if data.is_empty() {
            0
        } else {
            split % data.len()
        };
        let mut h = Sha256::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        assert_eq!(h.finalize(), sha256(&data), "case {case}");
    }
}

/// CRC-32 differs whenever a single byte differs (for short inputs
/// this is exhaustive error detection, guaranteed by the polynomial).
#[test]
fn crc32_detects_single_byte_change() {
    let mut rng = StdRng::seed_from_u64(0x9B_0005);
    for case in 0..64 {
        let data = {
            let len = rng.random_range(1..512usize);
            random_bytes(&mut rng, len)
        };
        let i = rng.random_range(0..data.len());
        let delta = rng.random_range(1..=255u8);
        let mut other = data.clone();
        other[i] = other[i].wrapping_add(delta);
        assert_ne!(crc32(&data), crc32(&other), "case {case}");
    }
}

/// Content-defined chunks always partition the input exactly.
#[test]
fn dedup_chunks_partition_input() {
    let mut rng = StdRng::seed_from_u64(0x9B_0006);
    for case in 0..32 {
        let data = {
            let len = rng.random_range(0..100_000usize);
            random_bytes(&mut rng, len)
        };
        let chunks = chunk(&data);
        let mut pos = 0usize;
        for c in &chunks {
            assert_eq!(c.offset, pos, "case {case}");
            pos += c.len;
        }
        assert_eq!(pos, data.len(), "case {case}");
    }
}

/// Record pages: encode ∘ decode = identity for arbitrary batches.
#[test]
fn record_page_round_trips() {
    use dpdpu::kernels::record::{ColumnType, Schema};
    let mut rng = StdRng::seed_from_u64(0x9B_0007);
    for case in 0..64 {
        let schema = Schema::new(vec![
            ("a", ColumnType::Int64),
            ("b", ColumnType::Float64),
            ("c", ColumnType::Text),
        ]);
        let n = rng.random_range(0..200usize);
        let batch = Batch {
            schema: schema.clone(),
            rows: (0..n)
                .map(|_| {
                    let a: i64 = rng.random();
                    let b: f64 = f64::from_bits(rng.random());
                    let len = rng.random_range(0..=12usize);
                    let c: String = (0..len)
                        .map(|_| rng.random_range(b'a'..=b'z') as char)
                        .collect();
                    Record::new(vec![Value::Int(a), Value::Float(b), Value::Text(c)])
                })
                .collect(),
        };
        let page = batch.encode_page();
        let back = Batch::decode_page(&schema, &page).unwrap();
        assert_eq!(back.len(), batch.len(), "case {case}");
        for (x, y) in back.rows.iter().zip(batch.rows.iter()) {
            for (vx, vy) in x.values.iter().zip(y.values.iter()) {
                match (vx, vy) {
                    (Value::Float(fx), Value::Float(fy)) => {
                        assert_eq!(fx.to_bits(), fy.to_bits(), "case {case}")
                    }
                    _ => assert_eq!(vx, vy, "case {case}"),
                }
            }
        }
    }
}

/// Regex count_matches agrees with a naive scan for literal patterns.
#[test]
fn regex_literal_matches_naive() {
    let mut rng = StdRng::seed_from_u64(0x9B_0008);
    for case in 0..64 {
        let needle: String = (0..rng.random_range(1..=4usize))
            .map(|_| rng.random_range(b'a'..=b'c') as char)
            .collect();
        let hay: String = (0..rng.random_range(0..200usize))
            .map(|_| rng.random_range(b'a'..=b'd') as char)
            .collect();
        let re = dpdpu::kernels::regex::Regex::new(&needle).unwrap();
        // Naive non-overlapping scan.
        let mut naive = 0usize;
        let mut pos = 0usize;
        while let Some(found) = hay[pos..].find(&needle) {
            naive += 1;
            pos += found + needle.len();
        }
        assert_eq!(
            re.count_matches(&hay),
            naive,
            "case {case}: /{needle}/ in {hay:?}"
        );
    }
}

/// Length-prefixed frames reassemble across arbitrary chunk splits
/// (the DDS transport framing property).
#[test]
fn deframer_reassembles_any_chunking() {
    use dpdpu::dds::proto::{frame, Deframer};
    let mut rng = StdRng::seed_from_u64(0x9B_0009);
    for case in 0..64 {
        let msgs: Vec<Vec<u8>> = (0..rng.random_range(1..12usize))
            .map(|_| {
                let len = rng.random_range(0..300usize);
                random_bytes(&mut rng, len)
            })
            .collect();
        let cuts: Vec<usize> = (0..rng.random_range(0..40usize))
            .map(|_| rng.random_range(1..64usize))
            .collect();
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&frame(&Bytes::from(m.clone())));
        }
        // Split the wire bytes at pseudo-random cut widths.
        let mut deframer = Deframer::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        let mut pos = 0usize;
        let mut ci = 0usize;
        while pos < wire.len() {
            let take = if ci < cuts.len() { cuts[ci] } else { 17 };
            ci += 1;
            let end = (pos + take).min(wire.len());
            for m in deframer.push(&wire[pos..end]) {
                got.push(m.to_vec());
            }
            pos = end;
        }
        assert_eq!(got, msgs, "case {case}");
        assert_eq!(deframer.pending_bytes(), 0, "case {case}");
    }
}

/// Filter then count == selectivity * len (relops consistency).
#[test]
fn filter_count_matches_selectivity() {
    use dpdpu::kernels::relops::{filter, selectivity, CmpOp, Predicate};
    let mut rng = StdRng::seed_from_u64(0x9B_000A);
    for case in 0..64 {
        let n = rng.random_range(1..500usize);
        let seed: u64 = rng.random();
        let threshold = rng.random_range(0.0..10_000.0f64);
        let batch = gen::orders(n, seed);
        let p = Predicate::cmp(2, CmpOp::Le, Value::Float(threshold));
        let kept = filter(&batch, &p).len();
        let s = selectivity(&batch, &p);
        assert!((s * n as f64 - kept as f64).abs() < 1e-6, "case {case}");
    }
}

/// Compression of structured, repetitive data always wins; compression of
/// high-entropy data never explodes (bounded expansion).
#[test]
fn compression_ratio_bounds() {
    let repetitive: Vec<u8> = b"INSERT INTO t VALUES (42, 'abc');".repeat(1_000);
    let packed = compress(&repetitive);
    assert!(packed.len() * 5 < repetitive.len());

    let mut x = 0x243F_6A88u32;
    let random: Vec<u8> = (0..100_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x as u8
        })
        .collect();
    let packed = compress(&random);
    assert!(
        packed.len() < random.len() + random.len() / 8 + 1_024,
        "expansion must be bounded: {} -> {}",
        random.len(),
        packed.len()
    );
}

/// Fabric credit flow control: random request/response interleavings
/// across seeds never deadlock, every echo arrives in order and
/// intact, and every run conserves credits — the strict `CheckGuard`
/// enforces `fabric-conservation` (delivered == sent, returned <=
/// consumed, debt <= window) when each sim finishes.
#[test]
fn fabric_credit_flow_interleavings_never_deadlock() {
    use dpdpu::check::CheckGuard;
    use dpdpu::des::{block_on, sleep, spawn};
    use dpdpu::hw::{CpuPool, PcieLink};
    use dpdpu::net::fabric::{Endpoint, FabricKind, FabricParams};
    use dpdpu::net::NetConfig;
    use std::collections::VecDeque;

    for (case, seed) in [7u64, 42, 1234, 0xFA8].into_iter().enumerate() {
        for kind in [FabricKind::Rdma, FabricKind::RdmaOffload] {
            let mut rng = StdRng::seed_from_u64(seed);
            let params = FabricParams {
                credit_window: rng.random_range(2..=8u32),
            };
            let n = rng.random_range(24..64usize);
            // A quarter of the payloads cross the bulk threshold and
            // ride the one-sided write path.
            let sizes: Vec<usize> = (0..n)
                .map(|_| {
                    if rng.random_range(0..4u8) == 0 {
                        rng.random_range(4_096..16_000usize)
                    } else {
                        rng.random_range(1..512usize)
                    }
                })
                .collect();
            let pauses: Vec<u64> = (0..n).map(|_| rng.random_range(0..5_000u64)).collect();
            let drain_here: Vec<bool> = (0..n).map(|_| rng.random_range(0..3u8) == 0).collect();
            let server_delays: Vec<u64> = (0..n).map(|_| rng.random_range(0..3_000u64)).collect();

            let _check = CheckGuard::new();
            // Completing at all is the liveness claim: a stalled client
            // parks the root and `block_on` panics.
            block_on(async move {
                let tag = format!("prop{case}-{kind}");
                let mk_side = |side: &str| -> Endpoint {
                    let host = CpuPool::new(format!("{tag}-{side}-host"), 8, 3_000_000_000);
                    match kind {
                        FabricKind::RdmaOffload => Endpoint::offloaded(
                            host,
                            CpuPool::new(format!("{tag}-{side}-dpu"), 8, 2_000_000_000),
                            PcieLink::new(format!("{tag}-{side}-pcie"), 16_000_000_000),
                        ),
                        _ => Endpoint::host(host),
                    }
                };
                let (a, b) = (mk_side("a"), mk_side("b"));
                let net = NetConfig {
                    fabric: kind,
                    fabric_params: params,
                    ..NetConfig::default()
                };
                let (ca, cb) = net.connect(&a, &b, &tag);
                let (a_tx, mut a_rx) = ca.split();
                let (b_tx, mut b_rx) = cb.split();

                // Echo server with a seeded per-message think time.
                spawn(async move {
                    let mut i = 0usize;
                    while let Some(req) = b_rx.recv().await {
                        sleep(server_delays[i % server_delays.len()]).await;
                        i += 1;
                        b_tx.send(req);
                    }
                });

                // Client: random mix of bursts (many sends, no drain —
                // flow control must absorb them) and drains.
                let mut expected: VecDeque<Vec<u8>> = VecDeque::new();
                for i in 0..n {
                    let msg = vec![(i % 251) as u8; sizes[i]];
                    a_tx.send(Bytes::from(msg.clone()));
                    expected.push_back(msg);
                    if drain_here[i] {
                        while let Some(want) = expected.pop_front() {
                            let resp = a_rx.recv().await.expect("echo server alive");
                            assert_eq!(resp.as_ref(), &want[..], "case {case} {kind} msg order");
                        }
                    }
                    sleep(pauses[i]).await;
                }
                while let Some(want) = expected.pop_front() {
                    let resp = a_rx.recv().await.expect("echo server alive");
                    assert_eq!(resp.as_ref(), &want[..], "case {case} {kind} tail order");
                }
            });
        }
    }
}

/// Live resharding over the consistent-hash ring: growing an N-shard
/// cluster moves strictly fewer than 2/N of the keys (all of them to
/// the new shard — consistent hashing never shuffles keys between
/// surviving shards), and a reader racing the migration finds every
/// key readable with its exact value at every intermediate step — the
/// dual-read window leaves no gap where a key is on neither owner.
#[test]
fn live_resharding_moves_few_keys_and_keeps_all_readable() {
    use dpdpu::check::CheckGuard;
    use dpdpu::dds::cluster::{ClusterConfig, DdsCluster};
    use dpdpu::des::{block_on, spawn};
    use dpdpu::hw::CpuPool;
    use std::cell::Cell;
    use std::rc::Rc;

    for (case, (seed, shards, replicas)) in [(42u64, 2usize, 1usize), (7, 3, 2), (1234, 4, 2)]
        .into_iter()
        .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = rng.random_range(48..96u64);
        let values: Vec<u64> = (0..keys).map(|_| rng.random()).collect();
        let _check = CheckGuard::new();
        block_on(async move {
            let cluster = DdsCluster::build(ClusterConfig {
                shards,
                replicas,
                ..ClusterConfig::default()
            })
            .await;
            let client = cluster.connect(CpuPool::new("prop", 16, 3_000_000_000));
            for k in 0..keys {
                let payload = Bytes::from(values[k as usize].to_le_bytes().to_vec());
                client.kv_put(k, payload).await.expect("preload");
            }
            let before: Vec<usize> = (0..keys).map(|k| cluster.shard_for(k)).collect();

            // Reader racing the migration: every key must be readable
            // with its exact value at every step, including while its
            // bytes are in flight between owners.
            let live = Rc::new(Cell::new(true));
            let live2 = live.clone();
            let reader_client = client.clone();
            let reader_cluster = cluster.clone();
            let expect = values.clone();
            let reader = spawn(async move {
                let mut mid_migration_reads = 0u64;
                while live2.get() {
                    for k in 0..keys {
                        let got = reader_client
                            .kv_get(k)
                            .await
                            .expect("read must not fail during resharding")
                            .unwrap_or_else(|| {
                                panic!("case {case}: key {k} unreadable mid-migration")
                            });
                        let v = u64::from_le_bytes(got[..8].try_into().expect("8 bytes"));
                        assert_eq!(v, expect[k as usize], "case {case}: key {k} wrong value");
                        if reader_cluster.migrating() {
                            mid_migration_reads += 1;
                        }
                    }
                }
                mid_migration_reads
            });

            let new = client.add_shard().await.expect("resharding");
            live.set(false);
            let mid_reads = reader.await;
            assert!(
                mid_reads > 0,
                "case {case}: no read overlapped the migration — the race never happened"
            );

            let moved: Vec<u64> = (0..keys)
                .filter(|&k| cluster.shard_for(k) != before[k as usize])
                .collect();
            assert!(!moved.is_empty(), "case {case}: the new shard took nothing");
            for &k in &moved {
                assert_eq!(
                    cluster.shard_for(k),
                    new,
                    "case {case}: key {k} shuffled between surviving shards"
                );
            }
            let bound = 2.0 * keys as f64 / (shards + 1) as f64;
            assert!(
                (moved.len() as f64) < bound,
                "case {case}: {} of {keys} keys moved, bound is {bound:.1} (2/N)",
                moved.len()
            );

            // Steady state after the ring settles: everything readable,
            // nothing duplicated in a scan.
            for k in 0..keys {
                let got = client
                    .kv_get(k)
                    .await
                    .expect("post-reshard read")
                    .expect("present");
                let v = u64::from_le_bytes(got[..8].try_into().expect("8 bytes"));
                assert_eq!(v, values[k as usize], "case {case}: key {k} after reshard");
            }
            let scanned = client.kv_scan(0, keys as u32).await.expect("scan");
            assert_eq!(scanned.len(), keys as usize, "case {case}: scan dup or gap");
        });
    }
}

/// The whole compress path through the Compute Engine preserves bytes for
/// adversarial page contents (all zeros, all ones, sawtooth).
#[test]
fn engine_compress_adversarial_pages() {
    use dpdpu::compute::{KernelInput, KernelOp, Placement};
    use dpdpu::core::Dpdpu;
    use dpdpu::des::block_on;

    let _check = dpdpu::check::CheckGuard::new();
    block_on(async {
        let rt = Dpdpu::start_default();
        let cases: Vec<Vec<u8>> = vec![
            vec![0u8; 8_192],
            vec![0xFF; 8_192],
            (0..8_192).map(|i| (i % 256) as u8).collect(),
            (0..8_192).map(|i| ((i * 37) % 251) as u8).collect(),
        ];
        for page in cases {
            let out = rt
                .compute
                .run(
                    &KernelOp::Compress,
                    &KernelInput::Bytes(Bytes::from(page.clone())),
                    Placement::Scheduled,
                )
                .await
                .unwrap()
                .into_bytes();
            assert_eq!(decompress(&out).unwrap(), page);
        }
    });
}

/// DRR (`des::Drr`, shared by the sproc scheduler, accelerator shares
/// and the gateway): work conservation — the scheduler never
/// refuses to serve while any queue holds an item, and never serves
/// from an empty backlog, across random enqueue/pick interleavings.
#[test]
fn drr_is_work_conserving() {
    use dpdpu::des::Drr;

    let mut rng = StdRng::seed_from_u64(0x9B_0010);
    for case in 0..32 {
        let n = rng.random_range(2..8usize);
        let weights: Vec<u64> = (0..n).map(|_| rng.random_range(1..9u64)).collect();
        let quantum = rng.random_range(64..4_096u64);
        let mut s: Drr<u64> = Drr::new(&weights, quantum);
        let mut queued = 0usize;
        for step in 0..2_000u64 {
            if rng.random_range(0..100u32) < 55 {
                let t = rng.random_range(0..n);
                s.enqueue(t, rng.random_range(1..8_192u64), step);
                queued += 1;
            } else if queued > 0 {
                assert!(
                    s.pick().is_some(),
                    "case {case}: refused to serve with {queued} items queued"
                );
                queued -= 1;
            } else {
                assert!(s.pick().is_none(), "case {case}: served from empty queues");
            }
        }
        assert_eq!(s.len(), queued, "case {case}");
    }
}

/// DRR: a one-class scheduler is a FIFO — items come back in exact
/// arrival order whatever their costs and the quantum. The FCFS sproc
/// policies and the gateway's `unfair` mode are this instantiation.
#[test]
fn drr_with_one_class_is_arrival_order() {
    use dpdpu::des::Drr;

    let mut rng = StdRng::seed_from_u64(0x9B_0013);
    for case in 0..32 {
        let quantum = rng.random_range(1..8_192u64);
        let mut s: Drr<u64> = Drr::new(&[1], quantum);
        let (mut next_in, mut next_out) = (0u64, 0u64);
        for _ in 0..1_000 {
            if rng.random_range(0..100u32) < 55 {
                s.enqueue(0, rng.random_range(0..16_384u64), next_in);
                next_in += 1;
            } else if let Some((_, _, item)) = s.pick() {
                assert_eq!(item, next_out, "case {case} (quantum {quantum})");
                next_out += 1;
            }
        }
        while let Some((_, _, item)) = s.pick() {
            assert_eq!(item, next_out, "case {case} (quantum {quantum})");
            next_out += 1;
        }
        assert_eq!(next_out, next_in, "case {case}: items lost");
    }
}

/// DRR: under sustained all-tenant backlog, served cost converges to
/// the weight ratio within tolerance, for random weights and costs.
#[test]
fn drr_converges_to_weighted_shares() {
    use dpdpu::des::Drr;

    let mut rng = StdRng::seed_from_u64(0x9B_0011);
    for case in 0..16 {
        let n = rng.random_range(2..6usize);
        let weights: Vec<u64> = (0..n).map(|_| rng.random_range(1..8u64)).collect();
        let mut s: Drr<usize> = Drr::new(&weights, 1_024);
        for t in 0..n {
            for _ in 0..8 {
                s.enqueue(t, rng.random_range(1..2_048u64), t);
            }
        }
        // Keep every queue backlogged: replace each served item.
        for _ in 0..4_000 {
            let (t, _, _) = s.pick().expect("backlogged scheduler must serve");
            s.enqueue(t, rng.random_range(1..2_048u64), t);
        }
        let total_w: u64 = weights.iter().sum();
        let total_served: u64 = (0..n).map(|t| s.served(t)).sum();
        for t in 0..n {
            let expect = total_served as f64 * weights[t] as f64 / total_w as f64;
            let got = s.served(t) as f64;
            assert!(
                (got - expect).abs() / expect < 0.15,
                "case {case} tenant {t}: served {got}, expected ~{expect} \
                 (weights {weights:?})"
            );
        }
    }
}

/// DRR: starvation-freedom — a weight-1 tenant holding one max-cost
/// item is served within an analytically bounded number of picks, no
/// matter how heavily-weighted adversaries flood the other queues.
#[test]
fn drr_never_starves_weight_one_tenants() {
    use dpdpu::des::Drr;

    let mut rng = StdRng::seed_from_u64(0x9B_0012);
    for case in 0..16 {
        let n = rng.random_range(2..6usize);
        let mut weights: Vec<u64> = (0..n).map(|_| rng.random_range(1..9u64)).collect();
        weights[0] = 1;
        let quantum = 256u64;
        let max_cost = 4_096u64;
        let mut s: Drr<&str> = Drr::new(&weights, quantum);
        // Worst case for the victim: its head item costs many quanta.
        s.enqueue(0, max_cost, "victim");
        for t in 1..n {
            for _ in 0..512 {
                s.enqueue(t, max_cost, "noise");
            }
        }
        // The victim's deficit grows by `quantum` per full rotation, so
        // it is served within ceil(max_cost/quantum) rotations. Per
        // rotation, tenant j's deficit grows by w_j*quantum, so it
        // serves at most ceil(w_j*quantum / max_cost) + 1 items (the +1
        // absorbs carried deficit). Total picks before the victim is
        // served is bounded by the product.
        let rotations = max_cost.div_ceil(quantum) + 1;
        let per_rotation: u64 = weights[1..]
            .iter()
            .map(|w| (w * quantum).div_ceil(max_cost) + 1)
            .sum();
        let bound = rotations * per_rotation + 1;
        let mut picks = 0u64;
        loop {
            let (_, _, item) = s.pick().expect("backlogged scheduler must serve");
            picks += 1;
            if item == "victim" {
                break;
            }
            assert!(
                picks <= bound,
                "case {case}: weight-1 tenant starved for {picks} picks \
                 (bound {bound}, weights {weights:?})"
            );
        }
    }
}
