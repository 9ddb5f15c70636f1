//! DP kernel operations: what they compute and what running them costs on
//! each device class.

use bytes::Bytes;

use dpdpu_hw::{costs, AccelKind};
use dpdpu_kernels::dedup::{ChunkerConfig, DedupStats};
use dpdpu_kernels::record::{Batch, Value};
use dpdpu_kernels::regex::Regex;
use dpdpu_kernels::relops::{AggSpec, Predicate};

/// The kind of a DP kernel (its function, independent of parameters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// DEFLATE-class compression.
    Compress,
    /// DEFLATE-class decompression.
    Decompress,
    /// AES-128-CTR encryption/decryption.
    Crypt,
    /// Regex scan (count matches).
    RegexScan,
    /// Content-defined-chunking dedup analysis.
    Dedup,
    /// SHA-256 digest.
    Sha256,
    /// CRC-32 checksum.
    Crc32,
    /// Predicate filter over a record batch.
    Filter,
    /// Column projection over a record batch.
    Project,
    /// Aggregation over a record batch.
    Aggregate,
}

impl KernelKind {
    /// Stable lowercase label (telemetry tags, conformance reports).
    pub(crate) fn label(self) -> &'static str {
        match self {
            KernelKind::Compress => "compress",
            KernelKind::Decompress => "decompress",
            KernelKind::Crypt => "crypt",
            KernelKind::RegexScan => "regex_scan",
            KernelKind::Dedup => "dedup",
            KernelKind::Sha256 => "sha256",
            KernelKind::Crc32 => "crc32",
            KernelKind::Filter => "filter",
            KernelKind::Project => "project",
            KernelKind::Aggregate => "aggregate",
        }
    }

    /// The compute engine's span name for a run of this kernel.
    pub(crate) fn span_name(self) -> &'static str {
        match self {
            KernelKind::Compress => "kernel:Compress",
            KernelKind::Decompress => "kernel:Decompress",
            KernelKind::Crypt => "kernel:Crypt",
            KernelKind::RegexScan => "kernel:RegexScan",
            KernelKind::Dedup => "kernel:Dedup",
            KernelKind::Sha256 => "kernel:Sha256",
            KernelKind::Crc32 => "kernel:Crc32",
            KernelKind::Filter => "kernel:Filter",
            KernelKind::Project => "kernel:Project",
            KernelKind::Aggregate => "kernel:Aggregate",
        }
    }

    /// Which ASIC class (if any) accelerates this kernel. Relational
    /// operators are CPU-only on every DPU we model — exactly why DP
    /// kernels must run anywhere (paper §5).
    pub(crate) fn accel_kind(self) -> Option<AccelKind> {
        match self {
            KernelKind::Compress | KernelKind::Decompress => Some(AccelKind::Compression),
            KernelKind::Crypt => Some(AccelKind::Encryption),
            KernelKind::RegexScan => Some(AccelKind::RegEx),
            KernelKind::Dedup | KernelKind::Sha256 => Some(AccelKind::Dedup),
            KernelKind::Crc32
            | KernelKind::Filter
            | KernelKind::Project
            | KernelKind::Aggregate => None,
        }
    }

    /// CPU cycles per input byte on an x86 host core.
    pub(crate) fn cycles_per_byte_host(self) -> u64 {
        match self {
            KernelKind::Compress => costs::DEFLATE_CYCLES_PER_BYTE_X86,
            // Decompression is ~4x cheaper than compression.
            KernelKind::Decompress => costs::DEFLATE_CYCLES_PER_BYTE_X86 / 4,
            KernelKind::Crypt => costs::AES_CYCLES_PER_BYTE_X86,
            KernelKind::RegexScan => costs::REGEX_CYCLES_PER_BYTE_CPU,
            KernelKind::Dedup => costs::SHA_CYCLES_PER_BYTE_CPU + 3, // chunking + hash
            KernelKind::Sha256 => costs::SHA_CYCLES_PER_BYTE_CPU,
            KernelKind::Crc32 => 3,
            // Relational ops touch every byte once with light branching.
            KernelKind::Filter | KernelKind::Project => 8,
            KernelKind::Aggregate => 6,
        }
    }

    /// CPU cycles per input byte on a DPU (Arm) core. Arm cores lack the
    /// wide SIMD paths of server x86; the paper's Figure 1 shows the gap.
    pub(crate) fn cycles_per_byte_dpu(self) -> u64 {
        match self {
            KernelKind::Compress => costs::DEFLATE_CYCLES_PER_BYTE_ARM,
            KernelKind::Decompress => costs::DEFLATE_CYCLES_PER_BYTE_ARM / 4,
            KernelKind::Crypt => costs::AES_CYCLES_PER_BYTE_ARM,
            other => other.cycles_per_byte_host() * 2,
        }
    }

    /// Fixed per-invocation CPU cycles (dispatch, setup).
    pub(crate) fn fixed_cycles(self) -> u64 {
        1_000
    }
}

/// A fully parameterised kernel invocation.
#[derive(Clone)]
pub enum KernelOp {
    /// Compress bytes (DPLZ container out).
    Compress,
    /// Decompress a DPLZ container.
    Decompress,
    /// XOR with the AES-128-CTR keystream (encrypt = decrypt).
    Crypt {
        /// 128-bit key.
        key: [u8; 16],
        /// 96-bit nonce.
        nonce: [u8; 12],
    },
    /// Count non-overlapping matches of a compiled pattern.
    RegexScan {
        /// Compiled pattern (compile once, scan many).
        regex: std::rc::Rc<Regex>,
    },
    /// Analyze dedup potential.
    Dedup {
        /// Chunking parameters.
        config: ChunkerConfig,
    },
    /// SHA-256 digest of the input.
    Sha256,
    /// CRC-32 of the input.
    Crc32,
    /// Filter a record batch.
    Filter {
        /// Row predicate.
        predicate: std::rc::Rc<Predicate>,
    },
    /// Project a record batch.
    Project {
        /// Columns to keep (in output order).
        columns: Vec<usize>,
    },
    /// Aggregate a record batch (ungrouped).
    Aggregate {
        /// Aggregates to compute.
        specs: Vec<AggSpec>,
    },
}

impl KernelOp {
    /// This op's kernel kind.
    pub(crate) fn kind(&self) -> KernelKind {
        match self {
            KernelOp::Compress => KernelKind::Compress,
            KernelOp::Decompress => KernelKind::Decompress,
            KernelOp::Crypt { .. } => KernelKind::Crypt,
            KernelOp::RegexScan { .. } => KernelKind::RegexScan,
            KernelOp::Dedup { .. } => KernelKind::Dedup,
            KernelOp::Sha256 => KernelKind::Sha256,
            KernelOp::Crc32 => KernelKind::Crc32,
            KernelOp::Filter { .. } => KernelKind::Filter,
            KernelOp::Project { .. } => KernelKind::Project,
            KernelOp::Aggregate { .. } => KernelKind::Aggregate,
        }
    }

    /// Runs the kernel functionally (no timing — the engine charges time
    /// separately on whichever device it placed the kernel).
    pub(crate) fn execute(&self, input: &KernelInput) -> Result<KernelOutput, KernelError> {
        match (self, input) {
            (KernelOp::Compress, KernelInput::Bytes(data)) => Ok(KernelOutput::Bytes(Bytes::from(
                dpdpu_kernels::deflate::compress(data),
            ))),
            (KernelOp::Decompress, KernelInput::Bytes(data)) => {
                let out = dpdpu_kernels::deflate::decompress(data)
                    .map_err(|e| KernelError::Execution(e.to_string()))?;
                Ok(KernelOutput::Bytes(Bytes::from(out)))
            }
            (KernelOp::Crypt { key, nonce }, KernelInput::Bytes(data)) => {
                let mut buf = data.to_vec();
                dpdpu_kernels::aes::ctr_xor(key, nonce, &mut buf);
                Ok(KernelOutput::Bytes(Bytes::from(buf)))
            }
            (KernelOp::RegexScan { regex }, KernelInput::Bytes(data)) => {
                let text = std::str::from_utf8(data)
                    .map_err(|_| KernelError::Execution("regex input not utf-8".into()))?;
                Ok(KernelOutput::Count(regex.count_matches(text) as u64))
            }
            (KernelOp::Dedup { config }, KernelInput::Bytes(data)) => Ok(KernelOutput::Dedup(
                dpdpu_kernels::dedup::dedup_stats(data, *config),
            )),
            (KernelOp::Sha256, KernelInput::Bytes(data)) => {
                Ok(KernelOutput::Hash(dpdpu_kernels::sha256::sha256(data)))
            }
            (KernelOp::Crc32, KernelInput::Bytes(data)) => {
                Ok(KernelOutput::Checksum(dpdpu_kernels::crc32::crc32(data)))
            }
            (KernelOp::Filter { predicate }, KernelInput::Batch(batch)) => Ok(KernelOutput::Batch(
                dpdpu_kernels::relops::filter(batch, predicate),
            )),
            (KernelOp::Project { columns }, KernelInput::Batch(batch)) => Ok(KernelOutput::Batch(
                dpdpu_kernels::relops::project(batch, columns),
            )),
            (KernelOp::Aggregate { specs }, KernelInput::Batch(batch)) => Ok(KernelOutput::Values(
                dpdpu_kernels::relops::aggregate(batch, specs),
            )),
            _ => Err(KernelError::InputMismatch),
        }
    }
}

/// Kernel input payload.
#[derive(Clone)]
pub enum KernelInput {
    /// Raw bytes (pages, frames).
    Bytes(Bytes),
    /// A decoded record batch.
    Batch(Batch),
}

impl KernelInput {
    /// Input size in bytes (drives device time).
    pub(crate) fn size_bytes(&self) -> u64 {
        match self {
            KernelInput::Bytes(b) => b.len() as u64,
            // Batches are charged at their page-encoded size.
            KernelInput::Batch(b) => b.encode_page().len() as u64,
        }
    }
}

/// Kernel output payload.
#[derive(Clone, Debug)]
pub enum KernelOutput {
    /// Raw bytes.
    Bytes(Bytes),
    /// A record batch.
    Batch(Batch),
    /// A match/row count.
    Count(u64),
    /// A SHA-256 digest.
    Hash([u8; 32]),
    /// A CRC-32 value.
    Checksum(u32),
    /// Dedup statistics.
    Dedup(DedupStats),
    /// Aggregate values.
    Values(Vec<Value>),
}

impl KernelOutput {
    /// Output size in bytes (drives transfer costs downstream).
    pub(crate) fn size_bytes(&self) -> u64 {
        match self {
            KernelOutput::Bytes(b) => b.len() as u64,
            KernelOutput::Batch(b) => b.encode_page().len() as u64,
            KernelOutput::Count(_) | KernelOutput::Checksum(_) => 8,
            KernelOutput::Hash(_) => 32,
            KernelOutput::Dedup(_) => 32,
            KernelOutput::Values(v) => 16 * v.len() as u64,
        }
    }

    /// Unwraps bytes output.
    pub fn into_bytes(self) -> Bytes {
        match self {
            KernelOutput::Bytes(b) => b,
            other => panic!("expected bytes output, got {other:?}"),
        }
    }

    /// Unwraps batch output.
    pub fn into_batch(self) -> Batch {
        match self {
            KernelOutput::Batch(b) => b,
            other => panic!("expected batch output, got {other:?}"),
        }
    }
}

/// Where a kernel executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecTarget {
    /// The matching hardware accelerator on the DPU.
    DpuAsic,
    /// A DPU general-purpose core.
    DpuCpu,
    /// A host core (input/output cross PCIe when data lives on the DPU).
    HostCpu,
}

/// Compute Engine errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// Specified target does not exist on this DPU (Figure 6's `None`
    /// return — callers fall back to another target).
    TargetUnavailable(ExecTarget),
    /// Input variant does not match the operation.
    InputMismatch,
    /// The kernel itself failed (corrupt input etc.).
    Execution(String),
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::TargetUnavailable(t) => write!(f, "target {t:?} unavailable"),
            KernelError::InputMismatch => f.write_str("kernel input type mismatch"),
            KernelError::Execution(e) => write!(f, "kernel failed: {e}"),
        }
    }
}

impl std::error::Error for KernelError {}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_kernels::record::gen;
    use dpdpu_kernels::relops::CmpOp;

    #[test]
    fn compress_decompress_functional() {
        let data = Bytes::from(dpdpu_kernels::text::natural_text(50_000, 3));
        let packed = KernelOp::Compress
            .execute(&KernelInput::Bytes(data.clone()))
            .unwrap()
            .into_bytes();
        assert!(packed.len() < data.len());
        let back = KernelOp::Decompress
            .execute(&KernelInput::Bytes(packed))
            .unwrap()
            .into_bytes();
        assert_eq!(back, data);
    }

    /// Trace bytes carry these names: each is the kind's `Debug` form.
    #[test]
    fn span_names_spell_the_kind() {
        use KernelKind::*;
        for kind in [
            Compress, Decompress, Crypt, RegexScan, Dedup, Sha256, Crc32, Filter, Project,
            Aggregate,
        ] {
            assert_eq!(kind.span_name(), format!("kernel:{kind:?}"));
        }
    }

    #[test]
    fn crypt_round_trips() {
        let op = KernelOp::Crypt {
            key: [1; 16],
            nonce: [2; 12],
        };
        let data = Bytes::from_static(b"page contents here");
        let enc = op
            .execute(&KernelInput::Bytes(data.clone()))
            .unwrap()
            .into_bytes();
        assert_ne!(enc, data);
        let dec = op.execute(&KernelInput::Bytes(enc)).unwrap().into_bytes();
        assert_eq!(dec, data);
    }

    #[test]
    fn filter_matches_relops() {
        let batch = gen::orders(200, 1);
        let pred = std::rc::Rc::new(Predicate::cmp(3, CmpOp::Eq, Value::Text("paid".into())));
        let out = KernelOp::Filter {
            predicate: pred.clone(),
        }
        .execute(&KernelInput::Batch(batch.clone()))
        .unwrap()
        .into_batch();
        assert_eq!(out, dpdpu_kernels::relops::filter(&batch, &pred));
    }

    #[test]
    fn input_mismatch_detected() {
        let batch = gen::orders(5, 1);
        assert_eq!(
            KernelOp::Compress
                .execute(&KernelInput::Batch(batch))
                .unwrap_err(),
            KernelError::InputMismatch
        );
    }

    #[test]
    fn accel_mapping_follows_capabilities() {
        assert_eq!(
            KernelKind::Compress.accel_kind(),
            Some(AccelKind::Compression)
        );
        assert_eq!(KernelKind::RegexScan.accel_kind(), Some(AccelKind::RegEx));
        assert_eq!(KernelKind::Filter.accel_kind(), None);
    }

    #[test]
    fn corrupt_decompress_is_execution_error() {
        let out = KernelOp::Decompress.execute(&KernelInput::Bytes(Bytes::from_static(b"junk")));
        assert!(matches!(out, Err(KernelError::Execution(_))));
    }
}
