//! Cross-crate integration tests: the assembled runtime exercised end to
//! end — storage → compute → network pipelines, DPU heterogeneity, and
//! determinism of the whole simulation.

use std::rc::Rc;

use bytes::Bytes;
use dpdpu::check::CheckGuard;
use dpdpu::compute::{ExecTarget, KernelError, KernelInput, KernelOp, Placement};
use dpdpu::core::Dpdpu;
use dpdpu::des::{block_on, now};
use dpdpu::hw::{CpuPool, DpuSpec, HostSpec, LinkConfig, Platform};
use dpdpu::net::fabric::Endpoint;
use dpdpu::net::tcp::TcpConnector;

/// The same "scan, compress, ship" sproc runs unchanged on three
/// different DPUs — the portability DPDPU promises (challenge #3). Only
/// performance may differ; results must be identical.
#[test]
fn same_sproc_portable_across_dpus() {
    let run = |dpu: DpuSpec| -> (Vec<u8>, u64) {
        let _check = CheckGuard::new();
        block_on(async move {
            let rt = Dpdpu::start(Platform::new(HostSpec::epyc(), dpu));
            let file = rt.storage.create("data").await.unwrap();
            let corpus = dpdpu::kernels::text::natural_text(128 * 1024, 5);
            rt.storage.write(file, 0, &corpus).await.unwrap();
            let data = rt.storage.read(file, 0, corpus.len() as u64).await.unwrap();
            let compressed = rt
                .compute
                .run(
                    &KernelOp::Compress,
                    &KernelInput::Bytes(Bytes::from(data)),
                    Placement::Scheduled,
                )
                .await
                .unwrap()
                .into_bytes();
            (compressed.to_vec(), now())
        })
    };

    let (bf2, t_bf2) = run(DpuSpec::bluefield2());
    let (bf3, t_bf3) = run(DpuSpec::bluefield3());
    let (ipu, t_ipu) = run(DpuSpec::intel_ipu());
    // Identical functional results everywhere.
    assert_eq!(bf2, bf3);
    assert_eq!(bf2, ipu);
    // BF-3's compression engine is 2x BF-2's: it must not be slower.
    assert!(t_bf3 <= t_bf2, "bf3={t_bf3} bf2={t_bf2}");
    let _ = t_ipu;
    // And the output must decompress to the corpus.
    let back = dpdpu::kernels::deflate::decompress(&bf2).unwrap();
    assert_eq!(back, dpdpu::kernels::text::natural_text(128 * 1024, 5));
}

/// Figure 6's fallback on a DPU with no RegEx engine: specified ASIC
/// execution fails cleanly, the CPU fallback returns the same answer the
/// ASIC would.
#[test]
fn regex_fallback_matches_asic_result() {
    let scan = |dpu: DpuSpec| -> u64 {
        let _check = CheckGuard::new();
        block_on(async move {
            let rt = Dpdpu::start(Platform::new(HostSpec::epyc(), dpu));
            let regex = Rc::new(dpdpu::kernels::regex::Regex::new(r"ERROR \w+").unwrap());
            let op = KernelOp::RegexScan { regex };
            let mut log = String::new();
            for i in 0..200 {
                if i % 7 == 0 {
                    log.push_str(&format!("ERROR e{i}\n"));
                } else {
                    log.push_str(&format!("INFO ok{i}\n"));
                }
            }
            let input = KernelInput::Bytes(Bytes::from(log));
            let result = match rt
                .compute
                .run(&op, &input, Placement::Specified(ExecTarget::DpuAsic))
                .await
            {
                Ok(out) => out,
                Err(KernelError::TargetUnavailable(_)) => rt
                    .compute
                    .run(&op, &input, Placement::Specified(ExecTarget::DpuCpu))
                    .await
                    .unwrap(),
                Err(e) => panic!("{e}"),
            };
            match result {
                dpdpu::compute::KernelOutput::Count(n) => n,
                other => panic!("unexpected {other:?}"),
            }
        })
    };
    let on_bf2 = scan(DpuSpec::bluefield2()); // has RXP
    let on_bf3 = scan(DpuSpec::bluefield3()); // falls back to CPU
    assert_eq!(on_bf2, on_bf3);
    assert_eq!(on_bf2, 200_u64.div_ceil(7));
}

/// Whole-stack determinism: two runs of an involved multi-engine scenario
/// finish at the identical virtual time with identical outputs.
#[test]
fn whole_stack_determinism() {
    let run = || -> (u64, u64, u64) {
        let _check = CheckGuard::new();
        block_on(async move {
            let rt = Dpdpu::start_default();
            let file = rt.storage.create("pages").await.unwrap();
            let corpus = dpdpu::kernels::text::natural_text(32 * 8_192, 17);
            rt.storage.write(file, 0, &corpus).await.unwrap();

            let client = Endpoint::host(CpuPool::new("client", 8, 3_000_000_000));
            let (tx, mut rx) = TcpConnector::new(LinkConfig::rack_100g().with_loss(0.01, 23))
                .stream(Endpoint::dpu_native(&rt.platform), client);
            let pages: Vec<(u64, u64)> = (0..32).map(|i| (i * 8_192, 8_192)).collect();
            let (_, compressed) = rt.read_compress_send(file, &pages, &tx).await.unwrap();
            drop(tx);
            let mut received = 0u64;
            while let Some(m) = rx.recv().await {
                received += m.len() as u64;
            }
            (now(), compressed, received)
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "simulation must be bit-deterministic");
    assert_eq!(a.1, a.2, "client must receive every compressed byte");
}

/// Crypto + storage: pages encrypted on the DPU crypto engine round-trip
/// through the file system and decrypt back to plaintext.
#[test]
fn encrypt_store_decrypt_pipeline() {
    let _check = CheckGuard::new();
    block_on(async {
        let rt = Dpdpu::start_default();
        let key = [9u8; 16];
        let nonce = [4u8; 12];
        let plain = Bytes::from(dpdpu::kernels::text::natural_text(16 * 1024, 31));
        let op = KernelOp::Crypt { key, nonce };
        let encrypted = rt
            .compute
            .run(
                &op,
                &KernelInput::Bytes(plain.clone()),
                Placement::Scheduled,
            )
            .await
            .unwrap()
            .into_bytes();
        assert_ne!(encrypted, plain);
        let file = rt.storage.create("enc.db").await.unwrap();
        rt.storage.write(file, 0, &encrypted).await.unwrap();
        let loaded = rt
            .storage
            .read(file, 0, encrypted.len() as u64)
            .await
            .unwrap();
        let decrypted = rt
            .compute
            .run(
                &op,
                &KernelInput::Bytes(Bytes::from(loaded)),
                Placement::Scheduled,
            )
            .await
            .unwrap()
            .into_bytes();
        assert_eq!(decrypted, plain);
        // The crypto ASIC did the heavy lifting.
        assert!(rt.compute.asic_jobs.get() >= 2);
    });
}

/// The compute engine under concurrent mixed load keeps every device
/// busy and produces correct results for each kernel.
#[test]
fn mixed_kernel_storm() {
    let _check = CheckGuard::new();
    block_on(async {
        let rt = Dpdpu::start_default();
        let corpus = dpdpu::kernels::text::natural_text(8 * 1024, 3);
        let mut handles = Vec::new();
        for i in 0..64u32 {
            let rt = rt.clone();
            let data = Bytes::from(corpus.clone());
            handles.push(dpdpu::des::spawn(async move {
                match i % 4 {
                    0 => {
                        let out = rt
                            .compute
                            .run(
                                &KernelOp::Compress,
                                &KernelInput::Bytes(data.clone()),
                                Placement::Scheduled,
                            )
                            .await
                            .unwrap()
                            .into_bytes();
                        assert_eq!(dpdpu::kernels::deflate::decompress(&out).unwrap(), data);
                    }
                    1 => {
                        let out = rt
                            .compute
                            .run(
                                &KernelOp::Sha256,
                                &KernelInput::Bytes(data.clone()),
                                Placement::Scheduled,
                            )
                            .await
                            .unwrap();
                        match out {
                            dpdpu::compute::KernelOutput::Hash(h) => {
                                assert_eq!(h, dpdpu::kernels::sha256::sha256(&data))
                            }
                            other => panic!("{other:?}"),
                        }
                    }
                    2 => {
                        let out = rt
                            .compute
                            .run(
                                &KernelOp::Crc32,
                                &KernelInput::Bytes(data.clone()),
                                Placement::Scheduled,
                            )
                            .await
                            .unwrap();
                        match out {
                            dpdpu::compute::KernelOutput::Checksum(c) => {
                                assert_eq!(c, dpdpu::kernels::crc32::crc32(&data))
                            }
                            other => panic!("{other:?}"),
                        }
                    }
                    _ => {
                        let op = KernelOp::Crypt {
                            key: [1; 16],
                            nonce: [2; 12],
                        };
                        let enc = rt
                            .compute
                            .run(&op, &KernelInput::Bytes(data.clone()), Placement::Scheduled)
                            .await
                            .unwrap()
                            .into_bytes();
                        let dec = rt
                            .compute
                            .run(&op, &KernelInput::Bytes(enc), Placement::Scheduled)
                            .await
                            .unwrap()
                            .into_bytes();
                        assert_eq!(dec, data);
                    }
                }
            }));
        }
        dpdpu::des::join_all(handles).await;
        assert!(now() > 0);
        // 64 tasks; the 16 crypt tasks invoke two kernels each.
        let total =
            rt.compute.asic_jobs.get() + rt.compute.dpu_jobs.get() + rt.compute.host_jobs.get();
        assert_eq!(total, 80);
    });
}

/// Aggregation pushdown computes the same answer the host would.
#[test]
fn aggregate_pushdown_equals_local() {
    use dpdpu::kernels::record::gen;
    use dpdpu::kernels::relops::{aggregate, AggFunc, AggSpec};
    let _check = CheckGuard::new();
    block_on(async {
        let rt = Dpdpu::start_default();
        let batch = gen::orders(5_000, 77);
        let specs = vec![
            AggSpec {
                func: AggFunc::Count,
                col: 0,
            },
            AggSpec {
                func: AggFunc::Sum,
                col: 2,
            },
            AggSpec {
                func: AggFunc::Max,
                col: 2,
            },
        ];
        let local = aggregate(&batch, &specs);
        let pushed = rt
            .compute
            .run(
                &KernelOp::Aggregate {
                    specs: specs.clone(),
                },
                &KernelInput::Batch(batch),
                Placement::Scheduled,
            )
            .await
            .unwrap();
        match pushed {
            dpdpu::compute::KernelOutput::Values(v) => assert_eq!(v, local),
            other => panic!("{other:?}"),
        }
    });
}
