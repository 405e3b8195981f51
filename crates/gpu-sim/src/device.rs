//! GPU device descriptions.

/// Which execution unit a kernel runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CoreKind {
    /// The general-purpose CUDA cores (FP32, 15.7 TFLOPS on V100).
    CudaCore,
    /// The tensor cores (FP16 matrix units, 125 TFLOPS on V100).
    TensorCore,
}

/// Arithmetic precision of a kernel's operands.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 16-bit floating point (tensor-core inference in the paper).
    Fp16,
    /// 32-bit floating point (CUDA-core inference and all training).
    Fp32,
}

impl Precision {
    /// Size of one element in bytes.
    pub const fn bytes(&self) -> usize {
        match self {
            Precision::Fp16 => 2,
            Precision::Fp32 => 4,
        }
    }
}

/// Static description of a GPU.
#[derive(Clone, Debug, PartialEq)]
pub struct GpuDevice {
    /// Marketing name, e.g. "Tesla V100".
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Peak FP32 throughput of the CUDA cores, in FLOP/s.
    pub cuda_core_flops: f64,
    /// Peak FP16 throughput of the tensor cores, in FLOP/s.
    pub tensor_core_flops: f64,
    /// DRAM bandwidth in bytes/s.
    pub memory_bandwidth: f64,
    /// Size of one DRAM transaction in bytes (a coalesced 32-byte sector).
    pub memory_transaction_bytes: usize,
    /// Kernel launch overhead in seconds.
    pub kernel_launch_overhead: f64,
    /// Maximum number of concurrently executing streams the scheduler can
    /// overlap usefully.
    pub max_concurrent_streams: usize,
    /// On-device memory (VRAM) capacity in bytes.  This is the budget a
    /// memory manager allocates weight tiles against: bytes beyond it must
    /// live host-side and be paged in over PCIe before a kernel can run.
    pub vram_bytes: u64,
    /// Effective host↔device (PCIe) bandwidth in bytes/s — the *achieved*
    /// copy rate, not the link's datasheet peak.
    pub pcie_bandwidth: f64,
    /// Fixed per-transfer host↔device latency in seconds (driver + DMA
    /// setup), charged once per copy regardless of size.
    pub pcie_latency: f64,
}

impl GpuDevice {
    /// The Tesla V100 used throughout the paper's evaluation (Sec. VII-A):
    /// 15.7 TFLOPS CUDA cores, 125 TFLOPS tensor cores, 80 SMs, ~900 GB/s
    /// HBM2.
    pub fn v100() -> Self {
        Self {
            name: "Tesla V100".to_string(),
            num_sms: 80,
            cuda_core_flops: 15.7e12,
            tensor_core_flops: 125.0e12,
            memory_bandwidth: 900.0e9,
            memory_transaction_bytes: 32,
            kernel_launch_overhead: 3.0e-6,
            max_concurrent_streams: 8,
            vram_bytes: 16 * (1 << 30),
            pcie_bandwidth: 12.0e9,
            pcie_latency: 10.0e-6,
        }
    }

    /// A smaller, tensor-core-less GPU (the "low-end GPUs with less or even
    /// no tensor cores" scenario the paper mentions for TEW): modelled on a
    /// GTX-1080-class part.
    pub fn cuda_only_midrange() -> Self {
        Self {
            name: "CUDA-only midrange".to_string(),
            num_sms: 20,
            cuda_core_flops: 8.9e12,
            tensor_core_flops: 0.0,
            memory_bandwidth: 320.0e9,
            memory_transaction_bytes: 32,
            kernel_launch_overhead: 5.0e-6,
            max_concurrent_streams: 4,
            vram_bytes: 8 * (1 << 30),
            // A consumer board on a PCIe 3.0 x8 link.
            pcie_bandwidth: 6.0e9,
            pcie_latency: 15.0e-6,
        }
    }

    /// An A100-class accelerator (next generation up from the paper's
    /// V100): 108 SMs, 19.5 TFLOPS FP32 CUDA cores, 312 TFLOPS FP16 tensor
    /// cores, ~1.56 TB/s HBM2e.  "Like" because the numbers are the public
    /// datasheet peaks, not a calibrated fit — the profile exists so
    /// heterogeneous serving replicas can mix device generations.
    pub fn a100_like() -> Self {
        Self {
            name: "A100-like".to_string(),
            num_sms: 108,
            cuda_core_flops: 19.5e12,
            tensor_core_flops: 312.0e12,
            memory_bandwidth: 1555.0e9,
            memory_transaction_bytes: 32,
            kernel_launch_overhead: 2.5e-6,
            max_concurrent_streams: 12,
            vram_bytes: 40 * (1 << 30),
            // PCIe 4.0 x16.
            pcie_bandwidth: 24.0e9,
            pcie_latency: 8.0e-6,
        }
    }

    /// The canonical CLI slug of this device (`v100`, `a100`, `midrange`),
    /// or the lowercased name for custom profiles.  Round-trips through
    /// `"v100".parse::<GpuDevice>()` for the built-in profiles.
    pub fn slug(&self) -> String {
        match self.name.as_str() {
            "Tesla V100" => "v100".to_string(),
            "A100-like" => "a100".to_string(),
            "CUDA-only midrange" => "midrange".to_string(),
            other => other.to_lowercase().replace(' ', "-"),
        }
    }

    /// Peak throughput (FLOP/s) of the chosen execution unit.
    pub fn peak_flops(&self, core: CoreKind) -> f64 {
        match core {
            CoreKind::CudaCore => self.cuda_core_flops,
            CoreKind::TensorCore => self.tensor_core_flops,
        }
    }

    /// True when the device has usable tensor cores.
    pub fn has_tensor_cores(&self) -> bool {
        self.tensor_core_flops > 0.0
    }

    /// Number of DRAM transactions needed to move `bytes` bytes with fully
    /// coalesced accesses.
    pub fn coalesced_transactions(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.memory_transaction_bytes as u64)
    }
}

impl std::fmt::Display for GpuDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.slug())
    }
}

/// Error for parsing a [`GpuDevice`] from an unknown device name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceParseError(String);

impl std::fmt::Display for DeviceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown device {:?} (expected v100|a100|midrange)", self.0)
    }
}

impl std::error::Error for DeviceParseError {}

impl std::str::FromStr for GpuDevice {
    type Err = DeviceParseError;

    /// Parses the CLI device vocabulary: `v100`, `a100` (the
    /// [`GpuDevice::a100_like`] profile) and `midrange` (the
    /// tensor-core-less [`GpuDevice::cuda_only_midrange`] part).
    /// Surrounding whitespace and letter case are ignored (`" A100 "`
    /// parses); the error echoes the input as given (minus the
    /// whitespace), not the normalized form.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.trim();
        match trimmed.to_lowercase().as_str() {
            "v100" => Ok(Self::v100()),
            "a100" | "a100-like" => Ok(Self::a100_like()),
            "midrange" | "cuda-only-midrange" => Ok(Self::cuda_only_midrange()),
            _ => Err(DeviceParseError(trimmed.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_matches_paper_figures() {
        let d = GpuDevice::v100();
        assert_eq!(d.num_sms, 80);
        assert!((d.cuda_core_flops - 15.7e12).abs() < 1e9);
        assert!((d.tensor_core_flops - 125.0e12).abs() < 1e9);
        assert!(d.has_tensor_cores());
        // The paper quotes the tensor cores as ~8x faster than CUDA cores.
        let ratio = d.peak_flops(CoreKind::TensorCore) / d.peak_flops(CoreKind::CudaCore);
        assert!(ratio > 7.5 && ratio < 8.5, "ratio {ratio}");
    }

    #[test]
    fn cuda_only_device_has_no_tensor_cores() {
        let d = GpuDevice::cuda_only_midrange();
        assert!(!d.has_tensor_cores());
        assert_eq!(d.peak_flops(CoreKind::TensorCore), 0.0);
    }

    #[test]
    fn a100_outclasses_v100_everywhere() {
        let a100 = GpuDevice::a100_like();
        let v100 = GpuDevice::v100();
        assert!(a100.has_tensor_cores());
        assert!(a100.num_sms > v100.num_sms);
        assert!(a100.cuda_core_flops > v100.cuda_core_flops);
        assert!(a100.tensor_core_flops > v100.tensor_core_flops);
        assert!(a100.memory_bandwidth > v100.memory_bandwidth);
    }

    #[test]
    fn device_names_round_trip_through_display_and_from_str() {
        for device in [GpuDevice::v100(), GpuDevice::a100_like(), GpuDevice::cuda_only_midrange()] {
            let slug = device.to_string();
            let parsed: GpuDevice = slug.parse().expect("built-in slugs parse");
            assert_eq!(parsed, device, "{slug} must round-trip");
        }
        assert_eq!("v100".parse::<GpuDevice>().unwrap().to_string(), "v100");
        assert_eq!("A100".parse::<GpuDevice>().unwrap().to_string(), "a100");
        assert!("h100".parse::<GpuDevice>().is_err());
    }

    #[test]
    fn from_str_ignores_surrounding_whitespace_and_case() {
        assert_eq!(" A100 ".parse::<GpuDevice>().unwrap(), GpuDevice::a100_like());
        assert_eq!("\tV100\n".parse::<GpuDevice>().unwrap(), GpuDevice::v100());
        assert_eq!("  MidRange".parse::<GpuDevice>().unwrap(), GpuDevice::cuda_only_midrange());
        assert_eq!("Cuda-Only-Midrange".parse::<GpuDevice>().unwrap().slug(), "midrange");
    }

    #[test]
    fn unknown_device_error_message_is_pinned() {
        // The message must name both the rejected input (as the user typed
        // it, minus surrounding whitespace) and the accepted vocabulary, so
        // a CLI can print it verbatim.
        let err = "tpu".parse::<GpuDevice>().unwrap_err();
        assert_eq!(err.to_string(), "unknown device \"tpu\" (expected v100|a100|midrange)");
        let err = " H100 ".parse::<GpuDevice>().unwrap_err();
        assert_eq!(err.to_string(), "unknown device \"H100\" (expected v100|a100|midrange)");
        assert_eq!(
            "".parse::<GpuDevice>().unwrap_err().to_string(),
            "unknown device \"\" (expected v100|a100|midrange)"
        );
    }

    #[test]
    fn memory_system_profile_is_sane() {
        for d in [GpuDevice::v100(), GpuDevice::a100_like(), GpuDevice::cuda_only_midrange()] {
            assert!(d.vram_bytes > 0, "{}: VRAM capacity must be positive", d.name);
            assert!(d.pcie_bandwidth > 0.0 && d.pcie_bandwidth.is_finite(), "{}", d.name);
            assert!(d.pcie_latency >= 0.0 && d.pcie_latency.is_finite(), "{}", d.name);
            // PCIe is the slow path: well under DRAM bandwidth on every
            // profile, or paging would be free and the cache pointless.
            assert!(d.pcie_bandwidth < d.memory_bandwidth / 10.0, "{}", d.name);
        }
        let (v100, a100) = (GpuDevice::v100(), GpuDevice::a100_like());
        assert!(a100.vram_bytes > v100.vram_bytes);
        assert!(a100.pcie_bandwidth > v100.pcie_bandwidth);
    }

    #[test]
    fn precision_sizes() {
        assert_eq!(Precision::Fp16.bytes(), 2);
        assert_eq!(Precision::Fp32.bytes(), 4);
    }

    #[test]
    fn coalesced_transaction_count_rounds_up() {
        let d = GpuDevice::v100();
        assert_eq!(d.coalesced_transactions(0), 0);
        assert_eq!(d.coalesced_transactions(1), 1);
        assert_eq!(d.coalesced_transactions(32), 1);
        assert_eq!(d.coalesced_transactions(33), 2);
        assert_eq!(d.coalesced_transactions(6400), 200);
    }
}
