//! Point-to-point link model.

use des::SimDuration;

/// A full-duplex link with fixed bandwidth and propagation latency.
///
/// Bandwidth is expressed in bytes/second of goodput. The paper's Gigabit
/// LAN is [`Link::gigabit`]; its effective goodput (~119 MB/s) already
/// accounts for Ethernet/IP/TCP framing so message-level accounting can
/// stay simple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    bandwidth: f64,
    latency: SimDuration,
}

impl Link {
    /// Create a link with `bandwidth` bytes/second and one-way `latency`.
    ///
    /// # Panics
    /// Panics when `bandwidth` is not strictly positive.
    pub const fn new(bandwidth: f64, latency: SimDuration) -> Self {
        assert!(
            bandwidth > 0.0 && bandwidth.is_finite(),
            "bandwidth must be positive and finite"
        );
        Self { bandwidth, latency }
    }

    /// The paper's Gigabit LAN: ~119 MiB/s goodput, 100 µs one-way latency.
    pub const fn gigabit() -> Self {
        Self::new(119.0 * 1024.0 * 1024.0, SimDuration::from_micros(100))
    }

    /// A 100 Mbit link (for WAN-ish ablations): ~11.9 MiB/s, 2 ms latency.
    pub fn fast_ethernet() -> Self {
        Self::new(11.9 * 1024.0 * 1024.0, SimDuration::from_millis(2))
    }

    /// Goodput in bytes/second.
    pub const fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// One-way propagation latency.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// A copy of this link with bandwidth capped at `limit` bytes/second
    /// (the §VI-C-3 migration rate limit). A limit at or above the link
    /// rate returns the link unchanged.
    pub fn limited(&self, limit: f64) -> Link {
        assert!(limit > 0.0, "rate limit must be positive");
        Link {
            bandwidth: self.bandwidth.min(limit),
            latency: self.latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gigabit_moves_a_gigabyte_in_about_nine_seconds() {
        let l = Link::gigabit();
        let secs = (1024.0 * 1024.0 * 1024.0) / l.bandwidth() + l.latency().as_secs_f64();
        assert!((8.0..9.0).contains(&secs), "{secs}");
    }

    #[test]
    fn limited_caps_bandwidth() {
        let l = Link::gigabit();
        let capped = l.limited(10.0 * 1024.0 * 1024.0);
        assert_eq!(capped.bandwidth(), 10.0 * 1024.0 * 1024.0);
        assert_eq!(capped.latency(), l.latency());
        // Limit above link rate: unchanged.
        let uncapped = l.limited(f64::MAX);
        assert_eq!(uncapped.bandwidth(), l.bandwidth());
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        Link::new(0.0, SimDuration::ZERO);
    }
}
