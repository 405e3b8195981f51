//! Performance counters.
//!
//! Fig. 11 of the paper reports global memory load/store transactions and
//! FLOPS efficiency alongside the latency speedup.  Every kernel the cost
//! model prices returns a [`KernelProfile`] carrying the same counters, and
//! [`RunCounters`] aggregates them over a whole model execution.

use crate::device::{CoreKind, GpuDevice};

/// Raw activity counters of one kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelCounters {
    /// Floating point operations executed.
    pub flops: u64,
    /// Bytes loaded from global memory.
    pub load_bytes: u64,
    /// Bytes stored to global memory.
    pub store_bytes: u64,
    /// Global memory load transactions (including uncoalescing waste).
    pub load_transactions: u64,
    /// Global memory store transactions.
    pub store_transactions: u64,
}

impl KernelCounters {
    /// Sums two counter sets.
    pub fn add(&self, other: &KernelCounters) -> KernelCounters {
        KernelCounters {
            flops: self.flops + other.flops,
            load_bytes: self.load_bytes + other.load_bytes,
            store_bytes: self.store_bytes + other.store_bytes,
            load_transactions: self.load_transactions + other.load_transactions,
            store_transactions: self.store_transactions + other.store_transactions,
        }
    }
}

/// A priced kernel: its counters, the unit it ran on and the estimated time.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelProfile {
    /// Human-readable kernel name (e.g. `dense_gemm`, `tw_batched_gemm`).
    pub name: String,
    /// Which execution unit the kernel used.
    pub core: CoreKind,
    /// Activity counters.
    pub counters: KernelCounters,
    /// Estimated execution time in seconds (excluding other kernels).
    pub time_s: f64,
}

/// Aggregated counters over a sequence of kernels (one model forward pass).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunCounters {
    kernels: Vec<KernelProfile>,
}

impl RunCounters {
    /// An empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a kernel profile.
    pub fn push(&mut self, profile: KernelProfile) {
        self.kernels.push(profile);
    }

    /// All recorded kernels in execution order.
    pub fn kernels(&self) -> &[KernelProfile] {
        &self.kernels
    }

    /// Number of kernel launches.
    pub fn kernel_count(&self) -> usize {
        self.kernels.len()
    }

    /// Total serialized execution time (the end-to-end latency when kernels
    /// run back-to-back on one stream).
    pub fn total_time(&self) -> f64 {
        self.kernels.iter().map(|k| k.time_s).sum()
    }

    /// Sum of all counters.
    pub fn totals(&self) -> KernelCounters {
        self.kernels.iter().fold(KernelCounters::default(), |acc, k| acc.add(&k.counters))
    }

    /// Total time spent in kernels whose name contains `substr` — used for
    /// the Fig. 15 GEMM / transpose / others breakdown.
    pub fn time_matching(&self, substr: &str) -> f64 {
        self.kernels.iter().filter(|k| k.name.contains(substr)).map(|k| k.time_s).sum()
    }

    /// Overall FLOPS efficiency: all FLOPs divided by total time and by the
    /// peak of the *tensor* cores (the paper normalises to "all tensors'
    /// peak FLOPS").
    pub fn flops_efficiency(&self, device: &GpuDevice) -> f64 {
        let t = self.total_time();
        if t <= 0.0 {
            return 0.0;
        }
        let flops: u64 = self.kernels.iter().map(|k| k.counters.flops).sum();
        (flops as f64 / t / device.peak_flops(CoreKind::TensorCore)).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile(name: &str, flops: u64, time: f64) -> KernelProfile {
        KernelProfile {
            name: name.to_string(),
            core: CoreKind::TensorCore,
            counters: KernelCounters {
                flops,
                load_bytes: 1000,
                store_bytes: 500,
                load_transactions: 32,
                store_transactions: 16,
            },
            time_s: time,
        }
    }

    #[test]
    fn counters_add() {
        let a = KernelCounters {
            flops: 1,
            load_bytes: 2,
            store_bytes: 3,
            load_transactions: 4,
            store_transactions: 5,
        };
        let b = KernelCounters {
            flops: 10,
            load_bytes: 20,
            store_bytes: 30,
            load_transactions: 40,
            store_transactions: 50,
        };
        let c = a.add(&b);
        assert_eq!(c.flops, 11);
        assert_eq!(c.store_transactions, 55);
    }

    #[test]
    fn run_counters_aggregate() {
        let mut run = RunCounters::new();
        run.push(sample_profile("dense_gemm", 100, 1e-6));
        run.push(sample_profile("transpose", 0, 2e-6));
        run.push(sample_profile("layernorm_fused", 50, 3e-6));
        assert_eq!(run.kernel_count(), 3);
        assert!((run.total_time() - 6e-6).abs() < 1e-12);
        assert_eq!(run.totals().flops, 150);
        assert_eq!(run.totals().load_transactions, 96);
        assert!((run.time_matching("gemm") - 1e-6).abs() < 1e-12);
        assert!((run.time_matching("transpose") - 2e-6).abs() < 1e-12);
    }

    #[test]
    fn run_efficiency_uses_tensor_peak() {
        let device = GpuDevice::v100();
        let mut run = RunCounters::new();
        run.push(sample_profile("gemm", 125_000_000, 2e-6));
        // 125 GFLOP over 2us = 62.5 TFLOP/s = 50% of tensor peak.
        assert!((run.flops_efficiency(&device) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_run() {
        let run = RunCounters::new();
        assert_eq!(run.total_time(), 0.0);
        assert_eq!(run.flops_efficiency(&GpuDevice::v100()), 0.0);
        assert_eq!(run.totals(), KernelCounters::default());
    }
}
