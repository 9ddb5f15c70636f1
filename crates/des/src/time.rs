//! Virtual time. All simulation timestamps and durations are nanoseconds
//! held in a `u64`, which covers ~584 years of simulated time.

/// A virtual-time instant or duration, in nanoseconds.
pub type Time = u64;

/// Nanoseconds per second.
pub const SECONDS: Time = 1_000_000_000;

/// Converts a cycle count on a core of `clock_hz` into nanoseconds,
/// rounding up so that non-zero work always consumes non-zero time.
pub fn cycles_to_ns(cycles: u64, clock_hz: u64) -> Time {
    debug_assert!(clock_hz > 0, "clock rate must be non-zero");
    // ns = cycles * 1e9 / hz, computed in u128 to avoid overflow.
    let ns = (cycles as u128 * SECONDS as u128).div_ceil(clock_hz as u128);
    ns as Time
}

/// Converts a byte count over a bandwidth in bits/sec into nanoseconds of
/// serialization delay, rounding up.
pub fn transmit_ns(bytes: u64, bits_per_sec: u64) -> Time {
    debug_assert!(bits_per_sec > 0, "bandwidth must be non-zero");
    let ns = (bytes as u128 * 8 * SECONDS as u128).div_ceil(bits_per_sec as u128);
    ns as Time
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_round_up() {
        // 1 cycle at 3 GHz is a third of a nanosecond -> rounds to 1 ns.
        assert_eq!(cycles_to_ns(1, 3_000_000_000), 1);
        assert_eq!(cycles_to_ns(3, 3_000_000_000), 1);
        assert_eq!(cycles_to_ns(0, 3_000_000_000), 0);
        // 2.5 GHz core: 2500 cycles = 1 µs.
        assert_eq!(cycles_to_ns(2_500, 2_500_000_000), 1_000);
    }

    #[test]
    fn transmit_matches_line_rate() {
        // 8 KB at 100 Gbps = 65536 bits / 100e9 = 655.36 ns -> 656.
        assert_eq!(transmit_ns(8192, 100_000_000_000), 656);
        // 1 GB at 1 Gbps = 8 seconds.
        assert_eq!(transmit_ns(1_000_000_000, 1_000_000_000), 8 * SECONDS);
    }
}
