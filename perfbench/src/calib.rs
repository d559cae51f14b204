//! Host-speed calibration. The shared 2-core host this benchmark was built
//! on runs the same code up to 1.7 times slower for minutes at a time, when
//! other tenants load it. A run therefore times a fixed kernel that does
//! not depend on the program under test, between its units of work, and
//! scales its CPU-bound end-to-end figures to the speed at which the kernel
//! takes `REFERENCE_MS`. A change to the program moves the figures in full;
//! a change in host speed moves the kernel with them and cancels out.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use islaris_testkit::Rng;

use crate::stats::median;

/// The kernel's time, in ms, at the reference host speed.
pub const REFERENCE_MS: f64 = 5.0;

/// Times the calibration kernel once: ordered-map inserts and lookups over
/// seeded keys and a sort, the allocation- and pointer-heavy mix the
/// verifier's own data structures make.
#[must_use]
pub fn kernel_ms() -> f64 {
    let t = Instant::now();
    let mut rng = Rng::new(42);
    let mut map = BTreeMap::new();
    for _ in 0..20_000 {
        map.insert(rng.next_u64() % 50_000, rng.next_u64());
    }
    let mut acc = 0u64;
    for _ in 0..20_000 {
        if let Some(v) = map.get(&(rng.next_u64() % 50_000)) {
            acc = acc.wrapping_add(*v);
        }
    }
    let mut values: Vec<u64> = map.into_values().collect();
    values.sort_unstable();
    black_box((acc, values));
    crate::ms(t.elapsed())
}

/// The kernel times one run took, before each set-up and between its units
/// of measured work.
#[derive(Default)]
pub struct Calibration {
    /// Per set-up: the kernel time just before it (ms) and its own time (s).
    setups: Vec<(f64, f64)>,
    measure: Vec<f64>,
}

impl Calibration {
    /// Times one set-up, after timing the kernel just before it.
    pub fn time_setup<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let kernel = kernel_ms();
        let t = Instant::now();
        let out = f();
        self.setups.push((kernel, t.elapsed().as_secs_f64()));
        out
    }

    /// Median set-up time, in s.
    #[must_use]
    pub fn setup_s(&self) -> f64 {
        median(&self.setups.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// Median set-up time at the reference speed, in s: each set-up is
    /// scaled by the kernel time just before it, so that a change in host
    /// speed between set-ups cancels out too.
    #[must_use]
    pub fn setup_s_scaled(&self) -> f64 {
        let scaled: Vec<f64> = self
            .setups
            .iter()
            .map(|&(kernel, s)| s * REFERENCE_MS / kernel)
            .collect();
        median(&scaled)
    }

    /// Times the kernel between units of measured work, and returns its
    /// time in ms.
    pub fn sample(&mut self) -> f64 {
        let kernel = kernel_ms();
        self.measure.push(kernel);
        kernel
    }

    /// Records a kernel time taken elsewhere during the measurement.
    pub fn record(&mut self, kernel_ms: f64) {
        self.measure.push(kernel_ms);
    }

    /// Median kernel time of the measurement, in ms (the reference when
    /// unsampled).
    #[must_use]
    pub fn kernel_median_ms(&self) -> f64 {
        if self.measure.is_empty() {
            REFERENCE_MS
        } else {
            median(&self.measure)
        }
    }

    /// How much slower than the reference the host ran while measuring:
    /// above 1 when slower.
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        self.kernel_median_ms() / REFERENCE_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_setup_is_scaled_by_the_kernel_time_just_before_it() {
        let c = Calibration {
            setups: vec![(5.0, 0.1), (10.0, 0.3), (2.5, 0.2)],
            measure: Vec::new(),
        };
        assert!((c.setup_s() - 0.2).abs() < 1e-12);
        // Scaled: 0.1, 0.15 and 0.4.
        assert!((c.setup_s_scaled() - 0.15).abs() < 1e-12);
        assert!((c.slowdown() - 1.0).abs() < 1e-12);
    }
}
