//! The §4 predicate-pushdown walk-through, executable.
//!
//! "The storage server first reads the database records from SSDs through
//! the Storage Engine. It then directly applies predicates on these
//! tuples using the Compute Engine, and only sends the qualified tuples
//! back to the remote database server via the Network Engine."
//!
//! Compares shipping raw pages vs shipping filtered tuples: bytes on the
//! wire and end-to-end time.
//!
//! ```sh
//! cargo run --example predicate_pushdown
//! ```

use std::rc::Rc;

use bytes::Bytes;
use dpdpu::compute::{KernelInput, KernelOp, Placement};
use dpdpu::des::{block_on, now};
use dpdpu::hw::{CpuPool, LinkConfig};
use dpdpu::kernels::record::{gen, Batch, Value};
use dpdpu::kernels::relops::{CmpOp, Predicate};
use dpdpu::net::fabric::Endpoint;
use dpdpu::net::tcp::TcpConnector;

const ROWS_PER_PAGE: usize = 64;
const NUM_PAGES: usize = 64;

fn main() {
    let _check = dpdpu::check::CheckGuard::new();
    let wire_full = run(false);
    let wire_pushed = run(true);
    println!(
        "\npushdown sent {:.1}x fewer bytes over the network",
        wire_full as f64 / wire_pushed as f64
    );
}

fn run(pushdown: bool) -> u64 {
    block_on(async move {
        let rt = dpdpu::core::Dpdpu::start_default();

        // Load an orders table onto the storage server, one batch per page.
        let table = gen::orders(ROWS_PER_PAGE * NUM_PAGES, 99);
        let file = rt.storage.create("orders.tbl").await.unwrap();
        let mut offsets = Vec::new();
        let mut cursor = 0u64;
        for chunk in table.rows.chunks(ROWS_PER_PAGE) {
            let page = Batch {
                schema: table.schema.clone(),
                rows: chunk.to_vec(),
            }
            .encode_page();
            rt.storage.write(file, cursor, &page).await.unwrap();
            offsets.push((cursor, page.len() as u64));
            cursor += page.len() as u64;
        }

        // Remote database server connection.
        let db_cpu = CpuPool::new("dbms", 16, 3_000_000_000);
        let (tx, mut rx) = TcpConnector::new(LinkConfig::rack_100g())
            .stream(Endpoint::of(&rt.platform), Endpoint::host(db_cpu));

        // WHERE status = 'paid' AND amount > 5000.
        let predicate = Rc::new(
            Predicate::cmp(3, CmpOp::Eq, Value::Text("paid".into())).and(Predicate::cmp(
                2,
                CmpOp::Gt,
                Value::Float(5_000.0),
            )),
        );

        let t0 = now();
        let schema = table.schema.clone();
        for &(offset, len) in &offsets {
            // Storage Engine: read the page.
            let page = rt.storage.read(file, offset, len).await.unwrap();
            if pushdown {
                // Compute Engine: filter on the DPU.
                let batch = Batch::decode_page(&schema, &page).unwrap();
                let out = rt
                    .compute
                    .run(
                        &KernelOp::Filter {
                            predicate: predicate.clone(),
                        },
                        &KernelInput::Batch(batch),
                        Placement::Scheduled,
                    )
                    .await
                    .unwrap()
                    .into_batch();
                // Network Engine: ship only qualifying tuples.
                tx.send(Bytes::from(out.encode_page()));
            } else {
                // Baseline: ship the whole page; the DBMS filters.
                tx.send(Bytes::from(page));
            }
        }
        drop(tx);

        let mut wire_bytes = 0u64;
        let mut qualifying = 0usize;
        let mut buffer: Vec<u8> = Vec::new();
        while let Some(msg) = rx.recv().await {
            wire_bytes += msg.len() as u64;
            buffer.extend_from_slice(&msg);
        }
        // The DBMS side decodes what it received (chunked arbitrarily by
        // the transport, so re-split on page boundaries is implicit here:
        // we simply count qualifying rows end to end).
        let mut pos = 0usize;
        while pos < buffer.len() {
            let n = u32::from_le_bytes(buffer[pos..pos + 4].try_into().unwrap()) as usize;
            // Decode this page to find its byte length.
            let page = Batch::decode_page(&schema, &buffer[pos..]).unwrap();
            let mut probe = Batch {
                schema: schema.clone(),
                rows: page.rows.clone(),
            };
            probe.rows.truncate(n);
            let page_len = probe.encode_page().len();
            qualifying += if pushdown {
                page.rows.len()
            } else {
                page.rows.iter().filter(|r| predicate.eval(r)).count()
            };
            pos += page_len;
        }
        let elapsed = now() - t0;
        println!(
            "{}: {} qualifying rows, {} wire bytes, {:.2} ms",
            if pushdown {
                "pushdown (filter on DPU)"
            } else {
                "baseline (ship all pages)"
            },
            qualifying,
            wire_bytes,
            elapsed as f64 / 1e6,
        );
        wire_bytes
    })
}
