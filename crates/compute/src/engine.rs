//! The Compute Engine: placement and execution of DP kernels.

use std::rc::Rc;

use bytes::Bytes;
use dpdpu_des::{Counter, Time};
use dpdpu_faults::FaultSite;
use dpdpu_hw::Platform;

use crate::kernel::{ExecTarget, KernelError, KernelInput, KernelKind, KernelOp, KernelOutput};

/// How a kernel invocation chooses its device (paper §5):
/// *specified execution* gives predictable behaviour but puts the
/// fallback burden on the user; *scheduled execution* always returns a
/// valid placement chosen from capability and instantaneous load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Run exactly here or fail with [`KernelError::TargetUnavailable`].
    Specified(ExecTarget),
    /// Let the CE pick the fastest available device.
    Scheduled,
}

/// The Compute Engine.
pub struct ComputeEngine {
    platform: Rc<Platform>,
    /// Kernels completed on an ASIC.
    pub asic_jobs: Counter,
    /// Kernels completed on DPU cores.
    pub dpu_jobs: Counter,
    /// Kernels completed on host cores.
    pub host_jobs: Counter,
}

impl ComputeEngine {
    /// Creates a CE over a platform.
    pub fn new(platform: Rc<Platform>) -> Rc<Self> {
        Rc::new(ComputeEngine {
            platform,
            asic_jobs: Counter::new(),
            dpu_jobs: Counter::new(),
            host_jobs: Counter::new(),
        })
    }

    /// Looks up a DP kernel handle — the `ce.get_dpk("compress")` call of
    /// Figure 6. The handle exists regardless of hardware support; use
    /// specified execution to probe.
    pub fn get_dpk(self: &Rc<Self>, kind: KernelKind) -> DpKernel {
        DpKernel {
            engine: self.clone(),
            kind,
        }
    }

    /// Estimated completion time (service + queueing) for `bytes` of this
    /// kernel on `target`; `None` when the target does not exist.
    pub(crate) fn estimate_ns(
        &self,
        kind: KernelKind,
        bytes: u64,
        target: ExecTarget,
    ) -> Option<Time> {
        match target {
            ExecTarget::DpuAsic => {
                let accel = kind.accel_kind().and_then(|a| self.platform.accel(a))?;
                if !accel.online() {
                    return None; // injected outage: scheduled placement skips it
                }
                let service = accel.service_ns(bytes);
                let backlog = accel.queue_len() as u64 / accel.free_contexts().max(1) as u64;
                Some(service * (backlog + 1))
            }
            ExecTarget::DpuCpu => {
                let cpu = &self.platform.dpu_cpu;
                let service =
                    cpu.cycles_ns(kind.fixed_cycles() + bytes * kind.cycles_per_byte_dpu());
                let backlog = cpu.queue_len() as u64 / cpu.cores() as u64;
                Some(service * (backlog + 1))
            }
            ExecTarget::HostCpu => {
                let cpu = &self.platform.host_cpu;
                let service =
                    cpu.cycles_ns(kind.fixed_cycles() + bytes * kind.cycles_per_byte_host());
                // Crossing PCIe both ways when data lives on the DPU.
                let pcie = 2 * dpdpu_des::transmit_ns(
                    bytes,
                    self.platform.host_dpu_pcie.bytes_per_sec() * 8,
                ) + 2 * self.platform.host_dpu_pcie.rtt_ns();
                let backlog = cpu.queue_len() as u64 / cpu.cores() as u64;
                Some(service * (backlog + 1) + pcie)
            }
        }
    }

    /// Scheduled-execution device choice: cheapest estimated completion,
    /// ASIC first on ties.
    pub(crate) fn choose_target(&self, kind: KernelKind, bytes: u64) -> ExecTarget {
        let mut best = ExecTarget::DpuCpu;
        let mut best_ns = self
            .estimate_ns(kind, bytes, ExecTarget::DpuCpu)
            .expect("DPU CPU always exists");
        if let Some(ns) = self.estimate_ns(kind, bytes, ExecTarget::DpuAsic) {
            if ns <= best_ns {
                best = ExecTarget::DpuAsic;
                best_ns = ns;
            }
        }
        if let Some(ns) = self.estimate_ns(kind, bytes, ExecTarget::HostCpu) {
            if ns < best_ns {
                best = ExecTarget::HostCpu;
            }
        }
        best
    }

    /// Runs a kernel: charges virtual time on the placed device, then
    /// produces the functional result. Input data is assumed resident in
    /// DPU memory (the CE runs on the DPU); host placement therefore pays
    /// PCIe both ways.
    pub async fn run(
        &self,
        op: &KernelOp,
        input: &KernelInput,
        placement: Placement,
    ) -> Result<KernelOutput, KernelError> {
        let kind = op.kind();
        let bytes = input.size_bytes();
        let target = match placement {
            Placement::Specified(t) => t,
            Placement::Scheduled => self.choose_target(kind, bytes),
        };
        let _span = dpdpu_telemetry::span("dpu", "compute-engine", kind.span_name())
            .with("target", format_args!("{target:?}"))
            .with("bytes", bytes)
            .with(
                "placement",
                match placement {
                    Placement::Specified(_) => "specified",
                    Placement::Scheduled => "scheduled",
                },
            );
        let mut target = target;
        match target {
            ExecTarget::DpuAsic => {
                let accel = kind
                    .accel_kind()
                    .and_then(|a| self.platform.accel(a))
                    .ok_or(KernelError::TargetUnavailable(ExecTarget::DpuAsic))?;
                match accel.process(bytes).await {
                    Ok(()) => self.asic_jobs.inc(),
                    Err(dpdpu_hw::AccelError::Offline) => {
                        // Figure 6's fallback, executed *by* the engine:
                        // scheduled placement degrades to DPU cores;
                        // specified placement surfaces the outage to the
                        // caller, who asked for exactly this device.
                        if placement == Placement::Scheduled {
                            dpdpu_telemetry::count("ce_fallbacks", &[("from", "DpuAsic")]);
                            dpdpu_check::fault_handled(FaultSite::AccelOffline.label(), "degraded");
                            self.platform
                                .dpu_cpu
                                .exec(kind.fixed_cycles() + bytes * kind.cycles_per_byte_dpu())
                                .await;
                            self.dpu_jobs.inc();
                            target = ExecTarget::DpuCpu;
                        } else {
                            dpdpu_check::fault_handled(FaultSite::AccelOffline.label(), "surfaced");
                            return Err(KernelError::TargetUnavailable(ExecTarget::DpuAsic));
                        }
                    }
                }
            }
            ExecTarget::DpuCpu => {
                self.platform
                    .dpu_cpu
                    .exec(kind.fixed_cycles() + bytes * kind.cycles_per_byte_dpu())
                    .await;
                self.dpu_jobs.inc();
            }
            ExecTarget::HostCpu => {
                self.platform.host_dpu_pcie.dma(bytes).await;
                self.platform
                    .host_cpu
                    .exec(kind.fixed_cycles() + bytes * kind.cycles_per_byte_host())
                    .await;
                let out_estimate = bytes; // return payload upper bound
                self.platform.host_dpu_pcie.dma(out_estimate).await;
                self.host_jobs.inc();
            }
        }
        if dpdpu_telemetry::Telemetry::is_enabled() {
            dpdpu_telemetry::count("ce_jobs", &[("target", &format!("{target:?}"))]);
        }
        let result = op.execute(input);
        if dpdpu_check::is_active() {
            if let Ok(out) = &result {
                let err = crate::ground_truth::validate(op, input, out);
                dpdpu_check::kernel_result(
                    kind.label(),
                    bytes as usize,
                    out.size_bytes() as usize,
                    err,
                );
            }
        }
        result
    }

    /// Runs a chain of byte→byte DP kernels on the PCIe peer accelerator
    /// (GPU/FPGA), the §5 extension. `fused = true` executes the whole
    /// chain as one launch with intermediates resident in device memory;
    /// `fused = false` round-trips every intermediate over PCIe with its
    /// own launch — the baseline fusion beats.
    ///
    /// Functional results are identical to running the chain on any CPU.
    pub async fn run_chain_on_peer(
        &self,
        ops: &[KernelOp],
        input: Bytes,
        fused: bool,
    ) -> Result<Bytes, KernelError> {
        assert!(!ops.is_empty(), "empty kernel chain");
        let peer = self
            .platform
            .peer_device()
            .ok_or(KernelError::TargetUnavailable(ExecTarget::DpuAsic))?;
        // Functional pass first (pure; establishes intermediate sizes).
        let mut stages: Vec<u64> = Vec::with_capacity(ops.len());
        let mut data = input;
        for op in ops {
            stages.push(data.len() as u64);
            let out = op.execute(&KernelInput::Bytes(data))?;
            data = match out {
                KernelOutput::Bytes(b) => b,
                _ => return Err(KernelError::InputMismatch),
            };
        }
        // Timing pass.
        if fused {
            peer.pcie.dma(stages[0]).await;
            peer.run_fused_sizes(&stages).await;
            peer.pcie.dma(data.len() as u64).await;
        } else {
            let mut out_sizes: Vec<u64> = stages[1..].to_vec();
            out_sizes.push(data.len() as u64);
            for (in_b, out_b) in stages.iter().zip(out_sizes.iter()) {
                peer.pcie.dma(*in_b).await;
                peer.run_pass(*in_b).await;
                peer.pcie.dma(*out_b).await;
            }
        }
        self.asic_jobs.add(ops.len() as u64);
        Ok(data)
    }
}

/// A handle to one DP kernel kind on one engine — the object Figure 6's
/// sproc obtains via `ce.get_dpk(...)` and then calls with a device
/// argument.
#[derive(Clone)]
pub struct DpKernel {
    engine: Rc<ComputeEngine>,
    kind: KernelKind,
}

impl DpKernel {
    /// Invokes the kernel. `op.kind()` must match the handle.
    pub async fn call(
        &self,
        op: &KernelOp,
        input: &KernelInput,
        placement: Placement,
    ) -> Result<KernelOutput, KernelError> {
        assert_eq!(op.kind(), self.kind, "op does not match DP kernel handle");
        self.engine.run(op, input, placement).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_des::{now, Sim};
    use dpdpu_hw::{DpuSpec, HostSpec};

    fn bf2_engine() -> Rc<ComputeEngine> {
        ComputeEngine::new(Platform::default_bf2())
    }

    #[test]
    fn specified_asic_runs_on_accelerator() {
        let mut sim = Sim::new();
        let ce = bf2_engine();
        let ce2 = ce.clone();
        sim.spawn(async move {
            let data = Bytes::from(dpdpu_kernels::text::natural_text(100_000, 1));
            let out = ce2
                .run(
                    &KernelOp::Compress,
                    &KernelInput::Bytes(data),
                    Placement::Specified(ExecTarget::DpuAsic),
                )
                .await
                .unwrap();
            assert!(matches!(out, KernelOutput::Bytes(_)));
        });
        sim.run();
        assert_eq!(ce.asic_jobs.get(), 1);
        assert_eq!(ce.dpu_jobs.get(), 0);
    }

    #[test]
    fn missing_asic_reports_unavailable_fig6_fallback() {
        // BlueField-3 has no RegEx engine: specified execution fails,
        // the caller falls back to DPU CPU — exactly Figure 6's pattern.
        let mut sim = Sim::new();
        let ce = ComputeEngine::new(Platform::new(HostSpec::epyc(), DpuSpec::bluefield3()));
        let ce2 = ce.clone();
        sim.spawn(async move {
            let regex = Rc::new(dpdpu_kernels::regex::Regex::new("err..").unwrap());
            let op = KernelOp::RegexScan { regex };
            let input = KernelInput::Bytes(Bytes::from_static(b"an err42 and err43"));
            let res = ce2
                .run(&op, &input, Placement::Specified(ExecTarget::DpuAsic))
                .await;
            assert_eq!(
                res.unwrap_err(),
                KernelError::TargetUnavailable(ExecTarget::DpuAsic)
            );
            // Fallback, as in Figure 6 lines 22-25.
            let out = ce2
                .run(&op, &input, Placement::Specified(ExecTarget::DpuCpu))
                .await
                .unwrap();
            assert!(matches!(out, KernelOutput::Count(2)));
        });
        sim.run();
        assert_eq!(ce.dpu_jobs.get(), 1);
    }

    #[test]
    fn scheduled_prefers_asic_for_big_compression() {
        let mut sim = Sim::new();
        let ce = bf2_engine();
        let ce2 = ce.clone();
        sim.spawn(async move {
            let target = ce2.choose_target(KernelKind::Compress, 10_000_000);
            assert_eq!(target, ExecTarget::DpuAsic);
        });
        sim.run();
    }

    #[test]
    fn scheduled_runs_cpu_only_kernels_on_cpu() {
        let mut sim = Sim::new();
        let ce = bf2_engine();
        let ce2 = ce.clone();
        sim.spawn(async move {
            let target = ce2.choose_target(KernelKind::Filter, 8_192);
            assert_ne!(target, ExecTarget::DpuAsic);
        });
        sim.run();
    }

    #[test]
    fn host_placement_pays_pcie() {
        let mut sim = Sim::new();
        let ce = bf2_engine();
        let ce2 = ce.clone();
        sim.spawn(async move {
            // Small payload: the two PCIe round trips dominate any CPU
            // speed advantage the host has.
            let data = Bytes::from(vec![0u8; 512]);
            let t0 = now();
            ce2.run(
                &KernelOp::Crc32,
                &KernelInput::Bytes(data.clone()),
                Placement::Specified(ExecTarget::HostCpu),
            )
            .await
            .unwrap();
            let host_elapsed = now() - t0;
            let t1 = now();
            ce2.run(
                &KernelOp::Crc32,
                &KernelInput::Bytes(data),
                Placement::Specified(ExecTarget::DpuCpu),
            )
            .await
            .unwrap();
            let dpu_elapsed = now() - t1;
            // Host cores are faster, but at this size the two PCIe round
            // trips dominate: the DPU-local run must win.
            assert!(
                dpu_elapsed < host_elapsed,
                "dpu={dpu_elapsed} host={host_elapsed}"
            );
        });
        sim.run();
        assert_eq!(ce.host_jobs.get(), 1);
        assert_eq!(ce.dpu_jobs.get(), 1);
    }

    #[test]
    fn estimates_track_reality_for_an_uncontended_device() {
        let mut sim = Sim::new();
        let ce = bf2_engine();
        sim.spawn(async move {
            let bytes = 64 * 1024u64;
            let est = ce
                .estimate_ns(KernelKind::Sha256, bytes, ExecTarget::DpuCpu)
                .expect("DPU CPU exists");
            let t0 = now();
            ce.run(
                &KernelOp::Sha256,
                &KernelInput::Bytes(Bytes::from(vec![0u8; bytes as usize])),
                Placement::Specified(ExecTarget::DpuCpu),
            )
            .await
            .unwrap();
            let actual = now() - t0;
            let ratio = est as f64 / actual as f64;
            assert!(
                (0.9..1.1).contains(&ratio),
                "estimate {est} vs actual {actual}"
            );
        });
        sim.run();
    }

    #[test]
    fn dp_kernel_handle_checks_kind() {
        let mut sim = Sim::new();
        let ce = bf2_engine();
        sim.spawn(async move {
            let dpk = ce.get_dpk(KernelKind::Sha256);
            let out = dpk
                .call(
                    &KernelOp::Sha256,
                    &KernelInput::Bytes(Bytes::from_static(b"abc")),
                    Placement::Scheduled,
                )
                .await
                .unwrap();
            match out {
                KernelOutput::Hash(h) => {
                    assert_eq!(h, dpdpu_kernels::sha256::sha256(b"abc"))
                }
                other => panic!("unexpected {other:?}"),
            }
        });
        sim.run();
    }

    #[test]
    fn peer_fusion_matches_cpu_results_and_beats_unfused() {
        let mut sim = Sim::new();
        let ce = bf2_engine();
        let done = Rc::new(std::cell::Cell::new(false));
        let d2 = done.clone();
        sim.spawn(async move {
            ce.platform.install_peer(dpdpu_hw::PeerSpec::gpu());
            let data = Bytes::from(dpdpu_kernels::text::natural_text(256 * 1024, 9));
            // decompress(compress(x)) chained with encryption both ways.
            let chain = vec![
                KernelOp::Compress,
                KernelOp::Crypt {
                    key: [3; 16],
                    nonce: [4; 12],
                },
            ];
            let t0 = now();
            let fused = ce
                .run_chain_on_peer(&chain, data.clone(), true)
                .await
                .unwrap();
            let fused_ns = now() - t0;
            let t1 = now();
            let unfused = ce
                .run_chain_on_peer(&chain, data.clone(), false)
                .await
                .unwrap();
            let unfused_ns = now() - t1;
            assert_eq!(fused, unfused, "fusion must not change results");
            assert!(
                fused_ns < unfused_ns,
                "fusion saves launches + PCIe: fused={fused_ns} unfused={unfused_ns}"
            );
            // CPU reference: same functional output.
            let mut reference = dpdpu_kernels::deflate::compress(&data);
            dpdpu_kernels::aes::ctr_xor(&[3; 16], &[4; 12], &mut reference);
            assert_eq!(&fused[..], &reference[..]);
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn chain_without_peer_reports_unavailable() {
        let mut sim = Sim::new();
        let ce = bf2_engine();
        sim.spawn(async move {
            let err = ce
                .run_chain_on_peer(&[KernelOp::Compress], Bytes::from_static(b"x"), true)
                .await
                .unwrap_err();
            assert!(matches!(err, KernelError::TargetUnavailable(_)));
        });
        sim.run();
    }

    #[test]
    fn telemetry_spans_each_kernel_invocation() {
        use dpdpu_telemetry::Telemetry;
        let t = Telemetry::install();
        let mut sim = Sim::new();
        let ce = bf2_engine();
        let ce2 = ce.clone();
        sim.spawn(async move {
            let data = Bytes::from(vec![7u8; 4_096]);
            ce2.run(
                &KernelOp::Crc32,
                &KernelInput::Bytes(data),
                Placement::Scheduled,
            )
            .await
            .unwrap();
        });
        sim.run();
        Telemetry::uninstall();

        let spans = t.tracer().spans();
        let kernel = spans
            .iter()
            .find(|s| s.name.starts_with("kernel:"))
            .expect("engine must span each kernel");
        assert_eq!(kernel.process, "dpu");
        assert_eq!(kernel.track, "compute-engine");
        assert!(kernel.attrs.iter().any(|(k, _)| k == "target"));
        assert!(kernel
            .attrs
            .iter()
            .any(|(k, v)| k == "bytes" && v == "4096"));
        assert!(kernel.end > kernel.start, "kernels take virtual time");
        let counters = t.registry().counter_values();
        assert!(
            counters
                .iter()
                .any(|(k, v)| k.starts_with("ce_jobs{") && *v == 1),
            "ce_jobs counter missing: {counters:?}"
        );
    }

    #[test]
    fn accel_offline_falls_back_to_dpu_cpu_when_scheduled() {
        let guard = dpdpu_faults::SessionGuard::new(
            dpdpu_faults::FaultPlan::new(21).accel_offline(0, u64::MAX),
        );
        let mut sim = Sim::new();
        let ce = bf2_engine();
        let ce2 = ce.clone();
        sim.spawn(async move {
            let data = Bytes::from(dpdpu_kernels::text::natural_text(100_000, 1));
            // Scheduled placement never even considers the dead ASIC...
            let out = ce2
                .run(
                    &KernelOp::Compress,
                    &KernelInput::Bytes(data.clone()),
                    Placement::Scheduled,
                )
                .await
                .unwrap();
            assert!(matches!(out, KernelOutput::Bytes(_)));
            // ...and specified execution surfaces the outage.
            let err = ce2
                .run(
                    &KernelOp::Compress,
                    &KernelInput::Bytes(data),
                    Placement::Specified(ExecTarget::DpuAsic),
                )
                .await
                .unwrap_err();
            assert_eq!(err, KernelError::TargetUnavailable(ExecTarget::DpuAsic));
        });
        sim.run();
        drop(guard);
        assert_eq!(ce.asic_jobs.get(), 0, "offline ASIC must run nothing");
        assert_eq!(
            ce.dpu_jobs.get() + ce.host_jobs.get(),
            1,
            "the scheduled job must complete on a CPU"
        );
    }

    #[test]
    fn asic_order_of_magnitude_end_to_end() {
        // Figure 1's headline, measured through the engine.
        let mut sim = Sim::new();
        let ce = bf2_engine();
        sim.spawn(async move {
            let data = Bytes::from(dpdpu_kernels::text::natural_text(1_000_000, 2));
            let t0 = now();
            ce.run(
                &KernelOp::Compress,
                &KernelInput::Bytes(data.clone()),
                Placement::Specified(ExecTarget::DpuAsic),
            )
            .await
            .unwrap();
            let asic_ns = now() - t0;
            let t1 = now();
            ce.run(
                &KernelOp::Compress,
                &KernelInput::Bytes(data),
                Placement::Specified(ExecTarget::HostCpu),
            )
            .await
            .unwrap();
            let host_ns = now() - t1;
            let speedup = host_ns as f64 / asic_ns as f64;
            assert!(speedup > 8.0, "speedup={speedup:.1}");
        });
        sim.run();
    }
}
