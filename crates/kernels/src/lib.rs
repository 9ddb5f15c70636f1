//! # dpdpu-kernels — the data-path algorithms behind DP kernels
//!
//! DPDPU's Compute Engine exposes *DP kernels* — compute-heavy functions
//! (compression, encryption, pattern matching, deduplication, relational
//! operators) that can run on any device (paper §5). This crate contains
//! the **functional** implementations, written from scratch:
//!
//! * [`deflate`] — a DEFLATE-class LZ77 + canonical-Huffman codec
//!   (Figure 1's workload);
//! * [`aes`] — AES-128 in CTR mode (the on-path encryption task of §1/§5);
//! * [`sha256`] / [`crc32`] — hashing and checksums;
//! * [`regex`] — a Thompson-NFA regular-expression engine (the BlueField-2
//!   RXP's function);
//! * [`dedup`] — content-defined chunking deduplication;
//! * [`relops`] — predicate/projection/aggregation over [`record`]
//!   batches (the pushdown operators of §4);
//! * [`text`] — seeded generators for compressible, natural-language-like
//!   corpora (Figure 1's dataset stand-in).
//!
//! Kernels here are deterministic pure functions over bytes. *Where* a
//! kernel runs and how long that takes is decided by `dpdpu-compute`
//! against `dpdpu-hw` device models; keeping function and timing separate
//! is what lets one implementation serve ASIC, DPU-CPU, and host-CPU
//! placements — the portability requirement of paper §5.

pub mod aes;
pub mod crc32;
pub mod dedup;
pub mod deflate;
pub mod record;
pub mod regex;
pub mod relops;
pub mod sha256;
pub mod text;
