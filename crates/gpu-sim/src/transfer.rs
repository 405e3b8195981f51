//! Host↔device transfer pricing — the PCIe analogue of the kernel cost
//! model.
//!
//! The kernel model ([`crate::CostModel`]) prices what happens *after*
//! weights are resident in VRAM.  A memory manager paging weight tiles in
//! and out needs the other half: what moving N bytes over the host link
//! costs.  [`TransferCost`] prices a copy the same way the cost model
//! prices kernels — a fixed per-launch latency plus bytes over effective
//! bandwidth:
//!
//! ```text
//! time = pcie_latency + bytes / pcie_bandwidth
//! ```
//!
//! Zero-byte transfers are free (no copy is issued).  The returned seconds
//! are *simulated device-side* time, on the same clock as
//! [`crate::KernelProfile::time_s`], so a serving worker can add a batch's
//! cold-miss transfer time to its kernel dwell and scale both with one
//! knob.

use crate::device::GpuDevice;

/// Prices host↔device copies for one device's PCIe profile.
#[derive(Clone, Debug, PartialEq)]
pub struct TransferCost {
    bandwidth: f64,
    latency: f64,
}

impl TransferCost {
    /// A transfer model with explicit effective bandwidth (bytes/s) and
    /// per-copy latency (seconds).
    ///
    /// # Panics
    /// Panics if `bandwidth` is not positive and finite, or `latency` is
    /// negative or non-finite.
    pub fn new(bandwidth: f64, latency: f64) -> Self {
        assert!(
            bandwidth.is_finite() && bandwidth > 0.0,
            "transfer bandwidth must be positive and finite"
        );
        assert!(
            latency.is_finite() && latency >= 0.0,
            "transfer latency must be finite and non-negative"
        );
        Self { bandwidth, latency }
    }

    /// The transfer model of `device`'s PCIe profile.
    pub fn of(device: &GpuDevice) -> Self {
        Self::new(device.pcie_bandwidth, device.pcie_latency)
    }

    /// Simulated seconds to move `bytes` bytes host→device (or back — the
    /// link is modelled symmetric).  Zero bytes cost nothing.
    pub fn seconds(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.latency + bytes as f64 / self.bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_are_free_and_size_monotone() {
        let t = TransferCost::of(&GpuDevice::v100());
        assert_eq!(t.seconds(0), 0.0);
        let one_kb = t.seconds(1024);
        let one_mb = t.seconds(1 << 20);
        let one_gb = t.seconds(1 << 30);
        assert!(one_kb > 0.0);
        assert!(one_mb > one_kb);
        assert!(one_gb > one_mb);
        // Large copies are bandwidth-bound: a GiB at ~12 GB/s is ~90ms.
        assert!((0.05..0.2).contains(&one_gb), "1 GiB over PCIe 3.0 took {one_gb}s");
    }

    #[test]
    fn small_copies_are_latency_bound() {
        let t = TransferCost::new(12.0e9, 10.0e-6);
        // 1 KiB moves in ~85ns of bandwidth time; the 10µs latency dominates.
        let s = t.seconds(1024);
        assert!(s > 10.0e-6 && s < 11.0e-6, "{s}");
    }

    #[test]
    fn faster_link_prices_the_same_copy_cheaper() {
        let v100 = TransferCost::of(&GpuDevice::v100());
        let a100 = TransferCost::of(&GpuDevice::a100_like());
        let midrange = TransferCost::of(&GpuDevice::cuda_only_midrange());
        let bytes = 64 << 20;
        assert!(a100.seconds(bytes) < v100.seconds(bytes));
        assert!(midrange.seconds(bytes) > v100.seconds(bytes));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = TransferCost::new(0.0, 1e-6);
    }

    #[test]
    #[should_panic(expected = "latency must be finite")]
    fn negative_latency_rejected() {
        let _ = TransferCost::new(1e9, -1.0);
    }
}
