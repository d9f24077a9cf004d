//! The fleet spec: one enum, one config, any streaming executor.
//!
//! ```
//! use presto_core::fleet::Fleet;
//! use presto_datagen::{Dataset, RmConfig};
//! use presto_ops::{FleetConfig, PreprocessPlan};
//!
//! let mut c = RmConfig::rm1();
//! c.batch_size = 32;
//! let plan = PreprocessPlan::from_config(&c, 7)?;
//! let ds = Dataset::generate(&c, 2, 32, 1, 7)?;
//! let config = FleetConfig::new(2, 4);
//! for fleet in [Fleet::Host, Fleet::Isp] {
//!     let mut source = fleet.spawn(&plan, ds.partitions(), &config);
//!     while let Some(item) = source.next_batch() {
//!         item?;
//!     }
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Each [`Fleet`] is a small configuration of the one engine in
//! [`presto_ops::stream`] (unit source, [`Pipeline`], ordering), which
//! documents what they share: the [`FleetConfig`] knobs, the phases and
//! the failure semantics. [`Fleet::spawn`] erases the handle behind
//! [`BatchSource`] for callers — like the multi-tenant
//! [`service`](crate::service) — that treat fleets interchangeably; the
//! constructors on [`BatchStream`] return the concrete handle when its
//! accessors (`cursor`, `device_report`, `run_report`, …) are needed.

use presto_datagen::Partition;
use presto_ops::plan::{PreprocessPlan, SplitPlan};
use presto_ops::shuffle::ShuffleSpec;
use presto_ops::stream::{BatchStream, FleetConfig, Pipeline};

use crate::pipeline::BatchSource;

/// Which streaming executor to run — the spec covering every fleet of the
/// reproduction.
#[derive(Debug, Clone, PartialEq)]
pub enum Fleet {
    /// Host CPU fleet: feature-sliced worker pairs and device-affine work
    /// stealing.
    Host,
    /// In-storage fleet: one emulated ISP unit per worker, with host
    /// failover for quarantined devices.
    Isp,
    /// Hybrid split fleet: the carried [`SplitPlan`]'s stage prefix on ISP
    /// units and its suffix on host workers, pipelined over the device
    /// link.
    Split(SplitPlan),
    /// Shuffled-epoch fleet: every `PSTOCOL4` row group of the partitions
    /// in the carried spec's seeded permutation, delivered in permutation
    /// order regardless of worker count. Partitions written without row
    /// grouping degrade gracefully to a whole-partition shuffle (each file
    /// is one group).
    Shuffled(ShuffleSpec),
}

impl Fleet {
    /// Spawns this fleet over `partitions` with the shared `config`,
    /// type-erased behind [`BatchSource`] so a
    /// [`Trainer`](crate::pipeline::Trainer) consumes any fleet unchanged.
    /// Errors — including the shuffled fleet's up-front footer enumeration
    /// — surface on the stream.
    #[must_use]
    pub fn spawn(
        &self,
        plan: &PreprocessPlan,
        partitions: &[Partition],
        config: &FleetConfig,
    ) -> Box<dyn BatchSource + Send> {
        Box::new(match self {
            Fleet::Shuffled(spec) => BatchStream::spawn_shuffled(plan, partitions, *spec, config),
            _ => BatchStream::spawn_pipeline(plan, partitions, self.pipeline(), config),
        })
    }

    /// Where this fleet's stages execute. The shuffled fleet is the host
    /// pipeline over a different unit source.
    #[must_use]
    pub fn pipeline(&self) -> Pipeline {
        match self {
            Fleet::Host | Fleet::Shuffled(_) => Pipeline::Host,
            Fleet::Isp => Pipeline::Isp,
            Fleet::Split(split) => Pipeline::Split(split.clone()),
        }
    }

    /// Short human-readable fleet name for reports and logs.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Fleet::Host => "host",
            Fleet::Isp => "isp",
            Fleet::Split(_) => "split",
            Fleet::Shuffled(_) => "shuffled",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_datagen::{Dataset, RmConfig};

    #[test]
    fn shuffled_fleet_surfaces_spawn_failure_on_the_stream() {
        let mut c = RmConfig::rm1();
        c.batch_size = 16;
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let ds = Dataset::generate(&c, 1, 16, 1, 5).unwrap();
        let mut partitions = ds.partitions().to_vec();
        // Destroy the footer so epoch enumeration itself fails.
        let bytes = partitions[0].blob.as_bytes().to_vec();
        partitions[0].blob = presto_columnar::MemBlob::new(bytes[..bytes.len() / 2].to_vec());
        let fleet = Fleet::Shuffled(presto_ops::ShuffleSpec::new(1));
        let mut source = fleet.spawn(&plan, &partitions, &FleetConfig::new(1, 1));
        assert_eq!(source.queued(), 1);
        let first = source.next_batch().expect("one item");
        assert!(first.is_err());
        assert!(source.next_batch().is_none(), "error ends the stream");
    }

    #[test]
    fn fleet_names_are_stable() {
        assert_eq!(Fleet::Host.name(), "host");
        assert_eq!(Fleet::Isp.name(), "isp");
        assert_eq!(Fleet::Shuffled(presto_ops::ShuffleSpec::new(0)).name(), "shuffled");
    }
}
