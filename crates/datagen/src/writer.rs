//! Partitioned dataset layout: rows → partitions → columnar files → devices.
//!
//! Mirrors the paper's data-storage stage (Figure 1): a group of rows is
//! sharded into mutually exclusive partitions; each partition becomes an
//! independent columnar file placed contiguously on a single storage device,
//! so every mini-batch can be preprocessed device-locally (Section IV-B).

use crate::config::RmConfig;
use crate::table::{generate_batch, RowBatch};
use presto_columnar::{ColumnarError, FileWriter, MemBlob};

/// One partition: a columnar file and the device it lives on.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Partition index within the dataset.
    pub index: usize,
    /// Device (SSD / SmartSSD) hosting this partition's file.
    pub device: usize,
    /// Rows in the partition.
    pub rows: usize,
    /// The serialized columnar file.
    pub blob: MemBlob,
}

impl Partition {
    /// Size of the columnar file in bytes.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.blob.as_bytes().len()
    }
}

/// A complete synthetic dataset sharded over `num_devices` storage devices.
#[derive(Debug, Clone)]
pub struct Dataset {
    config: RmConfig,
    partitions: Vec<Partition>,
    num_devices: usize,
}

impl Dataset {
    /// Generates `num_partitions` partitions of `rows_per_partition` rows
    /// each, placing them round-robin across `num_devices` devices.
    ///
    /// # Errors
    ///
    /// Propagates columnar write failures (practically impossible for valid
    /// configs, but surfaced rather than panicking).
    pub fn generate(
        config: &RmConfig,
        num_partitions: usize,
        rows_per_partition: usize,
        num_devices: usize,
        seed: u64,
    ) -> Result<Self, ColumnarError> {
        let num_devices = num_devices.max(1);
        let mut partitions = Vec::with_capacity(num_partitions);
        for index in 0..num_partitions {
            let batch = generate_batch(config, rows_per_partition, seed ^ (index as u64) << 17);
            let blob = write_partition(&batch)?;
            partitions.push(Partition {
                index,
                device: index % num_devices,
                rows: rows_per_partition,
                blob,
            });
        }
        Ok(Dataset { config: config.clone(), partitions, num_devices })
    }

    /// Like [`Dataset::generate`] with each partition written as
    /// mini-batch-aligned row groups of `rows_per_group` rows (the last
    /// group of a partition may be shorter) — the `PSTOCOL4` layout the
    /// shuffled random-access readers consume. Row content is identical to
    /// [`Dataset::generate`] with the same seed; only the grouping differs.
    ///
    /// # Errors
    ///
    /// Propagates columnar write failures.
    pub fn generate_grouped(
        config: &RmConfig,
        num_partitions: usize,
        rows_per_partition: usize,
        num_devices: usize,
        seed: u64,
        rows_per_group: usize,
    ) -> Result<Self, ColumnarError> {
        let num_devices = num_devices.max(1);
        let mut partitions = Vec::with_capacity(num_partitions);
        for index in 0..num_partitions {
            let batch = generate_batch(config, rows_per_partition, seed ^ (index as u64) << 17);
            let blob = write_partition_grouped(&batch, rows_per_group)?;
            partitions.push(Partition {
                index,
                device: index % num_devices,
                rows: rows_per_partition,
                blob,
            });
        }
        Ok(Dataset { config: config.clone(), partitions, num_devices })
    }

    /// The generating configuration.
    #[must_use]
    pub fn config(&self) -> &RmConfig {
        &self.config
    }

    /// All partitions in index order.
    #[must_use]
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Number of storage devices the dataset spans.
    #[must_use]
    pub fn num_devices(&self) -> usize {
        self.num_devices
    }

    /// Total rows across all partitions.
    #[must_use]
    pub fn total_rows(&self) -> usize {
        self.partitions.iter().map(|p| p.rows).sum()
    }

    /// Total stored bytes across all partitions.
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.partitions.iter().map(Partition::byte_len).sum()
    }
}

/// Serializes one row batch as a single-row-group columnar file.
///
/// # Errors
///
/// Propagates columnar write failures.
pub fn write_partition(batch: &RowBatch) -> Result<MemBlob, ColumnarError> {
    let mut writer = FileWriter::new(batch.schema().clone());
    writer.write_row_group(batch.columns())?;
    Ok(MemBlob::new(writer.finish()))
}

/// Serializes one row batch as a columnar file of `rows_per_group`-row
/// row groups, giving the file a real row-group index for shuffled random
/// access. Bit-identical content to [`write_partition`] per row; the
/// grouping only changes chunk boundaries and footer entries.
///
/// # Errors
///
/// Propagates columnar write failures.
pub fn write_partition_grouped(
    batch: &RowBatch,
    rows_per_group: usize,
) -> Result<MemBlob, ColumnarError> {
    let mut writer = FileWriter::new(batch.schema().clone()).with_group_rows(rows_per_group);
    writer.write_batch(batch.columns())?;
    Ok(MemBlob::new(writer.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_columnar::FileReader;

    fn tiny_config() -> RmConfig {
        let mut c = RmConfig::rm1();
        c.batch_size = 64;
        c
    }

    #[test]
    fn round_robin_placement() {
        let ds = Dataset::generate(&tiny_config(), 7, 16, 3, 1).unwrap();
        let devices: Vec<usize> = ds.partitions().iter().map(|p| p.device).collect();
        assert_eq!(devices, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn partitions_roundtrip_through_reader() {
        let ds = Dataset::generate(&tiny_config(), 2, 32, 1, 5).unwrap();
        for p in ds.partitions() {
            let reader = FileReader::open(p.blob.clone()).unwrap();
            assert_eq!(reader.meta().total_rows(), 32);
            assert_eq!(reader.schema().len(), 1 + 13 + 26);
            let label = reader.read_projected(0, &["label"]).unwrap();
            assert_eq!(label[0].len(), 32);
        }
    }

    #[test]
    fn partitions_are_mutually_distinct() {
        let ds = Dataset::generate(&tiny_config(), 2, 16, 1, 9).unwrap();
        assert_ne!(ds.partitions()[0].blob.as_bytes(), ds.partitions()[1].blob.as_bytes());
    }

    #[test]
    fn totals_add_up() {
        let ds = Dataset::generate(&tiny_config(), 4, 8, 2, 1).unwrap();
        assert_eq!(ds.total_rows(), 32);
        assert_eq!(ds.total_bytes(), ds.partitions().iter().map(Partition::byte_len).sum());
        assert_eq!(ds.num_devices(), 2);
    }

    #[test]
    fn zero_devices_clamps_to_one() {
        let ds = Dataset::generate(&tiny_config(), 2, 4, 0, 1).unwrap();
        assert_eq!(ds.num_devices(), 1);
        assert!(ds.partitions().iter().all(|p| p.device == 0));
    }

    #[test]
    fn grouped_generation_matches_ungrouped_content() {
        let c = tiny_config();
        let flat = Dataset::generate(&c, 2, 50, 1, 3).unwrap();
        let grouped = Dataset::generate_grouped(&c, 2, 50, 1, 3, 16).unwrap();
        for (f, g) in flat.partitions().iter().zip(grouped.partitions()) {
            let fr = FileReader::open(f.blob.clone()).unwrap();
            let gr = FileReader::open(g.blob.clone()).unwrap();
            assert_eq!(fr.row_group_count(), 1);
            assert_eq!(gr.row_group_count(), 4, "50 rows at 16/group");
            assert_eq!(gr.meta().total_rows(), 50);
            // Same rows: concatenating the groups equals the single group.
            let whole = fr.read_row_group(0).unwrap();
            let mut per_column: Vec<Vec<presto_columnar::Array>> =
                (0..whole.len()).map(|_| Vec::new()).collect();
            for rg in 0..4 {
                for (col, array) in gr.read_row_group(rg).unwrap().into_iter().enumerate() {
                    per_column[col].push(array);
                }
            }
            for (col, parts) in per_column.into_iter().enumerate() {
                assert_eq!(
                    presto_columnar::column::concat_arrays(&parts).unwrap(),
                    whole[col],
                    "column {col}"
                );
            }
        }
    }

    #[test]
    fn dataset_is_deterministic() {
        let a = Dataset::generate(&tiny_config(), 2, 16, 1, 42).unwrap();
        let b = Dataset::generate(&tiny_config(), 2, 16, 1, 42).unwrap();
        for (x, y) in a.partitions().iter().zip(b.partitions()) {
            assert_eq!(x.blob.as_bytes(), y.blob.as_bytes());
        }
    }
}
