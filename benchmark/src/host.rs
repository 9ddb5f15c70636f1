//! Host-side readings: wall clock, process CPU time, resident-set peak.
//!
//! CPU time comes from `/proc/self/stat` (user + system, every thread,
//! including threads that have already been joined), so a parallel run
//! that burns two cores to go no faster shows up here and not in the
//! wall clock.

use std::time::Instant;

/// Kernel clock ticks per second for the `utime`/`stime` fields.
/// `run.sh` exports the host's `getconf CLK_TCK`; 100 is Linux's value
/// on every mainstream architecture.
fn clk_tck() -> f64 {
    std::env::var("CLK_TCK")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v: &f64| v > 0.0)
        .unwrap_or(100.0)
}

/// Process CPU seconds (user + system) consumed so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14, 15.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("stat carries utime and stime")
    };
    (ticks() + ticks()) / clk_tck()
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status carries VmHWM");
    kib / 1024.0
}

/// A timed region: both host clocks, and the probe factor that restates
/// them on the reference host (see [`step_ns`]).
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall seconds, as measured.
    pub wall_s: f64,
    /// Process CPU seconds (user + system, all threads), as measured.
    pub cpu_s: f64,
    /// Multiply either by this for seconds of the reference host.
    pub to_reference: f64,
}

/// A running [`Timed`] region, bracketed by two probe readings.
pub struct Stopwatch {
    step_ns_before: f64,
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    /// Reads the probe, then starts both clocks.
    pub fn start() -> Self {
        let step_ns_before = step_ns();
        Stopwatch {
            step_ns_before,
            wall: Instant::now(),
            cpu_s: cpu_seconds(),
        }
    }

    /// Stops both clocks, then reads the probe again.
    pub fn stop(self) -> Timed {
        let (wall_s, cpu_s) = (
            self.wall.elapsed().as_secs_f64(),
            cpu_seconds() - self.cpu_s,
        );
        Timed {
            wall_s,
            cpu_s,
            to_reference: REFERENCE_STEP_NS / ((self.step_ns_before + step_ns()) / 2.0),
        }
    }
}

/// The fixed loop behind [`step_ns`].
struct SpeedProbe {
    table: Vec<u32>,
    at: u32,
}

/// Cost of one probe step on the reference host, ns. Every host time
/// the benchmark reports is scaled by `REFERENCE_STEP_NS ÷ measured step`.
pub const REFERENCE_STEP_NS: f64 = 200.0;

/// Steps per reading (≈25 ms).
const PROBE_STEPS: u32 = 1 << 17;
/// Xorshift-multiplies after each load: ≈100 ns of dependent arithmetic,
/// about the cost of the load itself.
const PROBE_CHAIN: u32 = 64;
const PROBE_ENTRIES: usize = 1 << 20;

impl SpeedProbe {
    /// Fills the table with pseudo-random indices into itself.
    fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let table = (0..PROBE_ENTRIES)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % PROBE_ENTRIES as u64) as u32
            })
            .collect();
        SpeedProbe { table, at: 0 }
    }

    /// Times [`PROBE_STEPS`] steps; returns ns per step.
    fn step_ns(&mut self) -> f64 {
        let started = Instant::now();
        let (mut at, mut acc) = (self.at, 0x2545_F491_4F6C_DD1Du64);
        for _ in 0..PROBE_STEPS {
            let loaded = self.table[at as usize];
            acc ^= u64::from(loaded);
            for _ in 0..PROBE_CHAIN {
                // Not affine, so the compiler cannot fold the chain.
                acc = (acc ^ (acc >> 29)).wrapping_mul(6_364_136_223_846_793_005);
            }
            // The next address waits for the chain, the chain for the
            // load: nothing overlaps. The top bits also keep the walk
            // from settling into a short cycle of the table.
            at = (loaded ^ (acc >> 44) as u32) % PROBE_ENTRIES as u32;
        }
        self.at = at;
        started.elapsed().as_secs_f64() * 1e9 / f64::from(PROBE_STEPS)
    }
}

thread_local! {
    static PROBE: std::cell::RefCell<SpeedProbe> = std::cell::RefCell::new(SpeedProbe::new());
}

/// Speed of this host right now, as the cost of one step of a fixed loop.
///
/// The machines this runs on drift: the same binary has measured 2×
/// apart five minutes later, CPU time and wall time alike (the
/// slow-downs are on-CPU — shared cache and memory — not steal). A
/// reading taken just before and just after a timed region lets the
/// region be restated in seconds of a reference host, on which a step
/// takes [`REFERENCE_STEP_NS`]; the drift then cancels between a parent
/// and a change measured minutes apart. The loop is the benchmark's own
/// code, so no change to the simulator can move it.
///
/// A step is one dependent load that misses the private caches (a
/// pseudo-random walk over 4 MiB) followed by a dependent
/// xorshift-multiply chain of about the same length, because an event simulator is
/// neither: when only memory latency moves, a pure pointer chase moves
/// about twice as far as the simulator does, and a pure arithmetic loop
/// does not move at all.
pub fn step_ns() -> f64 {
    PROBE.with(|p| p.borrow_mut().step_ns())
}
