//! **Ablation A6 — multi-tenant accelerator isolation (§5).**
//!
//! Hardware accelerators have no virtualization support; DPDPU arbitrates
//! them in software. A background tenant floods the compression engine
//! while a foreground tenant issues small jobs; with FIFO admission the
//! small jobs wait behind the flood, with DRR shares they do not.

use std::rc::Rc;

use dpdpu_compute::AccelShares;
use dpdpu_des::{block_on, now, sleep, Histogram};
use dpdpu_hw::{AccelKind, DpuSpec, HostSpec, Platform};

use crate::table::Table;

const FLOOD_JOBS: usize = 48;
const FLOOD_BYTES: u64 = 1 << 20; // 1 MB each
const SMALL_JOBS: usize = 32;
const SMALL_BYTES: u64 = 16 * 1024;

/// Runs FIFO vs DRR shares and renders the table.
pub(crate) fn run() -> String {
    let mut table = Table::new(&["admission", "small_p50_us", "small_p99_us"]);
    let fifo = measure(false);
    let drr = measure(true);
    table.row(vec![
        "FIFO (no isolation)".into(),
        format!("{:.0}", fifo.0 as f64 / 1e3),
        format!("{:.0}", fifo.1 as f64 / 1e3),
    ]);
    table.row(vec![
        "DRR shares (1:1)".into(),
        format!("{:.0}", drr.0 as f64 / 1e3),
        format!("{:.0}", drr.1 as f64 / 1e3),
    ]);
    format!(
        "## Ablation A6: accelerator admission under a flooding tenant\n\
         ({FLOOD_JOBS}x{}MB flood vs {SMALL_JOBS}x{}KB foreground jobs on the \
         BF-2 compression engine; expected: DRR shares bound foreground \
         latency, FIFO does not)\n\n{}",
        FLOOD_BYTES >> 20,
        SMALL_BYTES >> 10,
        table.render()
    )
}

/// Returns (p50, p99) latency of the small tenant's jobs in ns.
fn measure(isolated: bool) -> (u64, u64) {
    block_on(async move {
        let p = Platform::new(HostSpec::epyc(), DpuSpec::bluefield2());
        let accel = p.accel(AccelKind::Compression).expect("BF-2 engine");
        let lat = Rc::new(Histogram::new());

        if isolated {
            let shares = AccelShares::new(accel, vec![1, 1], 64 * 1024);
            let mut handles = Vec::new();
            for _ in 0..FLOOD_JOBS {
                let rx = shares.submit(0, FLOOD_BYTES);
                handles.push(dpdpu_des::spawn(async move {
                    let _ = rx.await;
                }));
            }
            for _ in 0..SMALL_JOBS {
                sleep(50_000).await; // steady foreground arrivals
                let t0 = now();
                let rx = shares.submit(1, SMALL_BYTES);
                let lat = lat.clone();
                handles.push(dpdpu_des::spawn(async move {
                    rx.await.unwrap();
                    lat.record(now() - t0);
                }));
            }
            dpdpu_des::join_all(handles).await;
        } else {
            // FIFO: everyone calls the engine directly.
            let mut handles = Vec::new();
            for _ in 0..FLOOD_JOBS {
                let accel = accel.clone();
                handles.push(dpdpu_des::spawn(async move {
                    let _ = accel.process(FLOOD_BYTES).await;
                }));
            }
            for _ in 0..SMALL_JOBS {
                sleep(50_000).await;
                let t0 = now();
                let accel = accel.clone();
                let lat = lat.clone();
                handles.push(dpdpu_des::spawn(async move {
                    let _ = accel.process(SMALL_BYTES).await;
                    lat.record(now() - t0);
                }));
            }
            dpdpu_des::join_all(handles).await;
        }
        (lat.p50().unwrap(), lat.p99().unwrap())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_bound_foreground_latency() {
        let (fifo_p50, _) = measure(false);
        let (drr_p50, _) = measure(true);
        assert!(
            drr_p50 * 3 < fifo_p50,
            "DRR must protect the small tenant: fifo={fifo_p50} drr={drr_p50}"
        );
    }
}
