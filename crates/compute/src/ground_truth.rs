//! Kernel ground-truth validation for the conformance layer.
//!
//! When a `dpdpu-check` session is active, every kernel the engine runs
//! has its output validated against the kernels-crate ground truth —
//! structural identities strong enough to catch a broken kernel, a
//! mis-routed output, or an input/output size mismatch, while staying
//! cheap enough to run on every invocation:
//!
//! * `Compress` — decompressing the output must reproduce the input;
//! * `Crypt` — length-preserving, and applying the keystream again must
//!   invert it (CTR is an involution);
//! * `Sha256`/`Crc32` — recomputing over the input must match;
//! * `RegexScan` — the match count cannot exceed the input length;
//! * `Filter` — output rows ⊆ input rows, schema unchanged;
//! * `Project` — row count preserved, arity equals the column list;
//! * `Aggregate` — one value per aggregate spec.

use crate::kernel::{KernelInput, KernelOp, KernelOutput};

/// Returns a mismatch description, or `None` when `out` is consistent
/// with `op(input)` ground truth.
pub(crate) fn validate(op: &KernelOp, input: &KernelInput, out: &KernelOutput) -> Option<String> {
    match (op, input, out) {
        (KernelOp::Compress, KernelInput::Bytes(data), KernelOutput::Bytes(comp)) => {
            match dpdpu_kernels::deflate::decompress(comp) {
                Ok(back) if back == data.as_ref() => None,
                Ok(back) => Some(format!(
                    "compress roundtrip mismatch: {} B in, {} B back",
                    data.len(),
                    back.len()
                )),
                Err(e) => Some(format!("compressed output does not decompress: {e}")),
            }
        }
        (KernelOp::Decompress, KernelInput::Bytes(_), KernelOutput::Bytes(_)) => None,
        (KernelOp::Crypt { key, nonce }, KernelInput::Bytes(data), KernelOutput::Bytes(enc)) => {
            if enc.len() != data.len() {
                return Some(format!(
                    "crypt must preserve length: {} B in, {} B out",
                    data.len(),
                    enc.len()
                ));
            }
            let mut back = enc.to_vec();
            dpdpu_kernels::aes::ctr_xor(key, nonce, &mut back);
            (back != data.as_ref()).then(|| "ctr keystream is not an involution".to_string())
        }
        (KernelOp::RegexScan { .. }, KernelInput::Bytes(data), KernelOutput::Count(n)) => {
            (*n > data.len() as u64).then(|| format!("{n} matches in {} bytes", data.len()))
        }
        (KernelOp::Dedup, KernelInput::Bytes(_), KernelOutput::Dedup(_)) => None,
        (KernelOp::Sha256, KernelInput::Bytes(data), KernelOutput::Hash(h)) => {
            (dpdpu_kernels::sha256::sha256(data) != *h)
                .then(|| "sha-256 digest does not match input".to_string())
        }
        (KernelOp::Crc32, KernelInput::Bytes(data), KernelOutput::Checksum(c)) => {
            (dpdpu_kernels::crc32::crc32(data) != *c)
                .then(|| "crc-32 does not match input".to_string())
        }
        (KernelOp::Filter { .. }, KernelInput::Batch(b), KernelOutput::Batch(out)) => {
            if out.len() > b.len() {
                Some(format!(
                    "filter grew the batch: {} -> {} rows",
                    b.len(),
                    out.len()
                ))
            } else if out.schema.arity() != b.schema.arity() {
                Some("filter changed the schema arity".to_string())
            } else {
                None
            }
        }
        (KernelOp::Project { columns }, KernelInput::Batch(b), KernelOutput::Batch(out)) => {
            if out.len() != b.len() {
                Some(format!(
                    "project changed the row count: {} -> {}",
                    b.len(),
                    out.len()
                ))
            } else if out.schema.arity() != columns.len() {
                Some(format!(
                    "project arity {} != {} requested columns",
                    out.schema.arity(),
                    columns.len()
                ))
            } else {
                None
            }
        }
        (KernelOp::Aggregate { specs }, KernelInput::Batch(_), KernelOutput::Values(vals)) => {
            (vals.len() != specs.len())
                .then(|| format!("{} aggregate values for {} specs", vals.len(), specs.len()))
        }
        _ => Some("output variant does not match the kernel kind".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn accepts_true_kernel_outputs() {
        let data = Bytes::from(dpdpu_kernels::text::natural_text(10_000, 3));
        for op in [
            KernelOp::Compress,
            KernelOp::Crypt {
                key: [1; 16],
                nonce: [2; 12],
            },
            KernelOp::Sha256,
            KernelOp::Crc32,
        ] {
            let input = KernelInput::Bytes(data.clone());
            let out = op.execute(&input).unwrap();
            assert_eq!(validate(&op, &input, &out), None, "{:?}", op.kind());
        }
    }

    #[test]
    fn rejects_forged_outputs() {
        let data = Bytes::from_static(b"the quick brown fox");
        let input = KernelInput::Bytes(data.clone());
        // A hash that belongs to different input.
        let wrong = KernelOutput::Hash(dpdpu_kernels::sha256::sha256(b"other"));
        assert!(validate(&KernelOp::Sha256, &input, &wrong).is_some());
        // A "compressed" blob that is not a DPLZ container.
        let junk = KernelOutput::Bytes(Bytes::from_static(b"not compressed"));
        assert!(validate(&KernelOp::Compress, &input, &junk).is_some());
        // Wrong variant entirely.
        assert!(validate(&KernelOp::Crc32, &input, &KernelOutput::Count(0)).is_some());
    }
}
