//! Calibrated model constants.
//!
//! Every constant documents the paper measurement that anchors it. Absolute
//! values are *model parameters*, not claims about silicon: they are chosen
//! so the simulated system reproduces the paper's reported shapes (who wins,
//! by what factor, where the crossovers fall). `tests/paper_shape.rs` at the
//! workspace root pins the resulting bands.

/// CPU preprocessing worker constants (one TorchArrow worker on one Xeon
/// Gold 6242 core, Section V-B).
///
/// Anchors: transform ops ≈ 79% of single-worker preprocessing time
/// (Sec. III-B); RM5 preprocessing ≈ 14× RM1 (Fig. 5); per-core RM5
/// throughput such that 8×A100 needs ≈ 367 cores (Fig. 4).
pub mod cpu {
    /// Log normalization cost per dense element, nanoseconds. TorchArrow
    /// executes per-element over Velox vectors without SIMD — the paper's
    /// "fails to reap intra-feature parallelism".
    pub const LOG_NS_PER_ELEM: f64 = 125.0;

    /// SigridHash cost per sparse element, nanoseconds (hash + modulo +
    /// dispatch overhead).
    pub const HASH_NS_PER_ELEM: f64 = 140.0;

    /// One binary-search step of Bucketize, nanoseconds (dependent load +
    /// compare + branch); total per element = `BUCKET_NS_PER_CMP × ⌈log₂ m⌉`.
    pub const BUCKET_NS_PER_CMP: f64 = 65.0;

    /// Columnar (Parquet-class) decode bandwidth per core, bytes/second.
    pub const DECODE_BYTES_PER_SEC: f64 = 200.0e6;

    /// Format conversion cost per transformed element, nanoseconds
    /// (jagged-tensor assembly, row-major interleave).
    pub const FORMAT_NS_PER_ELEM: f64 = 10.0;

    /// Memory-copy bandwidth for staging tensors into the output queue.
    pub const COPY_BYTES_PER_SEC: f64 = 4.0e9;

    /// Fixed per-batch bookkeeping ("Else" in Fig. 5): scheduling, Python
    /// driver, allocator churn. Seconds.
    pub const ELSE_FIXED_SECS: f64 = 3.0e-3;

    /// Variable part of "Else", nanoseconds per transformed element.
    pub const ELSE_NS_PER_ELEM: f64 = 2.0;

    /// Effective throughput retained by a preprocessing worker co-located
    /// with GPU training processes on the same host (cache/membw/SMT
    /// interference). Anchor: Fig. 3 shows < 20% GPU utilization at 16
    /// co-located workers, while Fig. 4's disaggregated core counts imply a
    /// higher per-core throughput.
    pub const COLOCATION_EFFICIENCY: f64 = 0.5;
}

/// Datacenter network constants (Section V-B: 10 Gbps Ethernet, PyTorch RPC).
pub mod net {
    /// Link bandwidth, bits/second.
    pub const LINK_GBPS: f64 = 10.0;

    /// Per-RPC software overhead, seconds. Anchor: RPC time ≈ 9.1% of RM2
    /// Disagg preprocessing (Sec. VI-A) with one ranged read per projected
    /// column chunk.
    pub const RPC_OVERHEAD_SECS: f64 = 150.0e-6;
}

/// Storage-device constants.
pub mod ssd {
    /// Plain NVMe SSD sequential read bandwidth, bytes/second.
    pub const READ_BYTES_PER_SEC: f64 = 3.2e9;

    /// SmartSSD SSD→FPGA peer-to-peer read bandwidth, bytes/second
    /// (measured SmartSSD P2P is 1–3 GB/s; Sec. IV-B).
    pub const P2P_BYTES_PER_SEC: f64 = 1.2e9;
}

/// SmartSSD ISP accelerator constants (Xilinx KU15P-class fabric, Table II).
///
/// Anchors: 223 MHz synthesis clock (Table II); Extract ≈ 40.8% of PreSto
/// time (Sec. VI-A); end-to-end speedup ≈ 9.6× avg / 11.6× max (Fig. 12);
/// Disagg(64) ≈ 1.27× one SmartSSD's throughput (Fig. 11).
pub mod smartssd {
    /// Unit clock, hertz.
    pub const CLOCK_HZ: f64 = 223.0e6;

    /// Hardwired Parquet-class decoder throughput, bytes per cycle. Decoding
    /// is "less parallelizable" (Sec. VI-A), so only a few bytes per cycle.
    pub const DECODE_BYTES_PER_CYCLE: f64 = 4.0;

    /// Bucketize unit: elements per cycle (pipelined URAM tree search, II=1).
    pub const BUCKETIZE_ELEMS_PER_CYCLE: f64 = 0.75;

    /// SigridHash unit: elements per cycle (DSP hash pipeline, II=1).
    pub const SIGRIDHASH_ELEMS_PER_CYCLE: f64 = 0.75;

    /// Log unit: elements per cycle (DSP log pipeline, II=1).
    pub const LOG_ELEMS_PER_CYCLE: f64 = 0.75;

    /// Effective on-card DRAM bandwidth available to format conversion,
    /// bytes/second (single DDR4 channel, HLS-attainable fraction).
    pub const DRAM_BYTES_PER_SEC: f64 = 1.6e9;

    /// Fixed per-stage invocation overhead (XRT kernel dispatch), seconds.
    pub const STAGE_OVERHEAD_SECS: f64 = 1.5e-3;

    /// Card TDP, watts (NVMe U.2 power envelope, Sec. IV-B).
    pub const POWER_W: f64 = 25.0;
}

/// Alveo U280 accelerator constants (Sec. VI-C).
///
/// Anchors: synthesized with 2× the Decoder/generation/normalization units
/// of the SmartSSD build; TDP 225 W; PreSto(U280) slightly faster than
/// PreSto(SmartSSD); disaggregated U280 spends ≈ 47.6% of its time copying
/// data in/out over the network.
pub mod u280 {
    /// Unit count multiplier relative to the SmartSSD build.
    pub const UNIT_SCALE: f64 = 2.0;

    /// Card TDP, watts.
    pub const POWER_W: f64 = 225.0;

    /// Host-staged SSD read bandwidth feeding a PreSto(U280) card over PCIe
    /// inside the storage node, bytes/second.
    pub const HOST_READ_BYTES_PER_SEC: f64 = 3.2e9;
}

/// NVIDIA A100 constants (training demand and NVTabular preprocessing,
/// Sec. VI-C).
pub mod a100 {
    /// Sustained tensor-core throughput for MLP GEMMs, flops/second
    /// (mixed precision, ~15% of peak for small-batch DLRM layers).
    pub const EFFECTIVE_FLOPS: f64 = 45.0e12;

    /// Sustained HBM bandwidth for embedding gather/scatter, bytes/second.
    pub const EFFECTIVE_HBM_BYTES_PER_SEC: f64 = 0.30e12;

    /// Fixed per-training-step overhead (kernel launches, optimizer,
    /// host sync), seconds.
    pub const STEP_OVERHEAD_SECS: f64 = 25.0e-3;

    /// NVTabular preprocessing: per-column-per-op kernel overhead, seconds.
    /// Anchor: "challenging for the GPU to amortize the cost of CUDA kernel
    /// launches, each of which has a small working set" (Sec. VI-C);
    /// PreSto(SmartSSD) ≈ 2.5× faster on average.
    pub const KERNEL_OVERHEAD_SECS: f64 = 60.0e-6;

    /// Average CUDA kernels launched per feature column per batch.
    pub const KERNELS_PER_COLUMN: f64 = 4.0;

    /// PCIe bandwidth for staging raw/preprocessed data, bytes/second.
    pub const PCIE_BYTES_PER_SEC: f64 = 16.0e9;

    /// GPU compute throughput for the preprocessing kernels themselves,
    /// elements/second (they are trivially parallel once launched).
    pub const PREPROC_ELEMS_PER_SEC: f64 = 20.0e9;

    /// Card TDP, watts.
    pub const POWER_W: f64 = 250.0;
}

/// Node-level power constants (Intel PCM measurements in the paper,
/// Sec. V-C).
pub mod node_power {
    /// Two-socket Xeon Gold 6242 node at preprocessing load, watts.
    pub const CPU_NODE_ACTIVE_W: f64 = 420.0;

    /// Same node idle, watts.
    pub const CPU_NODE_IDLE_W: f64 = 150.0;

    /// Cores per CPU node (Sec. V-B: 32 cores per two-socket node).
    pub const CORES_PER_NODE: usize = 32;

    /// Storage-node baseline power (host + NIC + SSD shelf), watts.
    pub const STORAGE_NODE_W: f64 = 250.0;
}

/// Capital expenditure constants, US dollars (Sec. V-C cites vendor list
/// prices: Dell R640-class CPU servers, Samsung SmartSSD, Alveo U280,
/// A100).
pub mod capex {
    /// One two-socket CPU server node.
    pub const CPU_NODE_USD: f64 = 9_000.0;

    /// One SmartSSD card (4 TB computational storage).
    pub const SMARTSSD_USD: f64 = 1_500.0;

    /// One plain NVMe SSD of matching capacity.
    pub const PLAIN_SSD_USD: f64 = 600.0;

    /// Electricity price, USD per kWh (Sec. V-C, from the paper's refs 42/43).
    pub const ELECTRICITY_USD_PER_KWH: f64 = 0.0733;

    /// Depreciation horizon, years (Sec. V-C, from the paper's refs 7/43).
    pub const DURATION_YEARS: f64 = 3.0;
}

#[cfg(test)]
mod tests {
    // These checks are deliberately over constants: they pin the calibration
    // invariants so a constant tweak cannot silently break physics.
    #[allow(clippy::assertions_on_constants)]
    #[test]
    fn constants_are_physically_sane() {
        assert!(
            super::cpu::COLOCATION_EFFICIENCY > 0.0 && super::cpu::COLOCATION_EFFICIENCY <= 1.0
        );
        assert!(super::smartssd::POWER_W <= 25.0, "must stay in the U.2 envelope");
        assert!(super::u280::POWER_W > super::smartssd::POWER_W);
        assert!(super::a100::POWER_W >= super::u280::POWER_W);
        assert!(super::ssd::P2P_BYTES_PER_SEC <= super::ssd::READ_BYTES_PER_SEC);
        assert!(super::node_power::CPU_NODE_IDLE_W < super::node_power::CPU_NODE_ACTIVE_W);
    }

    #[test]
    fn cpu_transform_dominates_io_for_rm5_scale() {
        // 31 MB of encoded data vs ~11M transformed elements: transform time
        // must exceed decode+read time by at least 2x, the paper's central
        // characterization claim.
        let decode = 31.0e6 / super::cpu::DECODE_BYTES_PER_SEC;
        let transform = 11.0e6 * super::cpu::HASH_NS_PER_ELEM * 1e-9;
        assert!(transform > 2.0 * decode);
    }
}
