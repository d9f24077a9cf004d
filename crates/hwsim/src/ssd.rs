//! Storage-device read model: bandwidth only, on the host path
//! ([`SsdModel::read_time`]) and the SSD→FPGA P2P path
//! ([`SsdModel::p2p_time`]).
//!
//! The device *queue* — at most `depth` positioned reads in service at
//! once, so a backlogged device completes `N` reads in `ceil(N / depth)`
//! latencies — is modeled once, by the executable emulation's
//! `presto_columnar::DeviceModel` (`serialized_time`).

use crate::calib;
use crate::units::{BytesPerSec, Secs};

/// An NVMe storage device (plain SSD or the SSD half of a SmartSSD).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsdModel {
    read_bw: BytesPerSec,
    p2p_bw: BytesPerSec,
}

impl SsdModel {
    /// The PoC's NVMe device.
    #[must_use]
    pub fn nvme() -> Self {
        SsdModel {
            read_bw: BytesPerSec::new(calib::ssd::READ_BYTES_PER_SEC),
            p2p_bw: BytesPerSec::new(calib::ssd::P2P_BYTES_PER_SEC),
        }
    }

    /// A custom device.
    #[must_use]
    pub fn new(read_bw: BytesPerSec, p2p_bw: BytesPerSec) -> Self {
        SsdModel { read_bw, p2p_bw }
    }

    /// Host-path sequential read time for `bytes`.
    #[must_use]
    pub fn read_time(&self, bytes: u64) -> Secs {
        self.read_bw.time_for(bytes)
    }

    /// SSD→FPGA peer-to-peer read time for `bytes` (SmartSSD only).
    #[must_use]
    pub fn p2p_time(&self, bytes: u64) -> Secs {
        self.p2p_bw.time_for(bytes)
    }

    /// P2P bandwidth.
    #[must_use]
    pub fn p2p_bandwidth(&self) -> BytesPerSec {
        self.p2p_bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_is_slower_than_host_path() {
        let ssd = SsdModel::nvme();
        assert!(ssd.p2p_time(1 << 20) > ssd.read_time(1 << 20));
    }

    #[test]
    fn times_scale_linearly() {
        let ssd = SsdModel::new(BytesPerSec::gb(2.0), BytesPerSec::gb(1.0));
        assert!((ssd.read_time(2_000_000_000).seconds() - 1.0).abs() < 1e-9);
        assert!((ssd.p2p_time(2_000_000_000).seconds() - 2.0).abs() < 1e-9);
    }
}
