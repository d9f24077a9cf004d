//! The per-layer ledger of the traced run.
//!
//! A single-threaded *layer walk* goes over every partition of the
//! workload's own datasets and wraps each public call a layer exposes in a
//! span nested under its unit; counts are taken at the same boundaries.
//! A layer's time is the sum of its spans over all passes divided by the
//! rows (or values, files, KiB) those passes covered.

use crate::trace::{NameTotals, Tracer};
use crate::workloads::{
    analytic_placement, behind_devices, Checking, Tenant, Workload, BUSY_THREADS, SSD,
};
use presto_columnar::encoding::{decode_i64_into, encode_i64};
use presto_columnar::{checksum, CountingBlob, DeviceModel, Encoding, FileReader, ReadScratch};
use presto_core::{Fleet, IspWorker, System, Trainer, TrainerConfig};
use presto_datagen::WorkloadProfile;
use presto_hwsim::{GpuTrainModel, IspModel};
use presto_ops::graph::DENSE_VALUE_CEILING;
use presto_ops::lognorm::log_normalize_into;
use presto_ops::{
    epoch_order, epoch_units, extract_columns_for_plan, extract_columns_from_reader, firstx_into,
    ngram_into, preprocess_batch_with, preprocess_group_with, preprocess_partition_with,
    preprocess_split_host, preprocess_split_isp, transform_batch_into, BoundaryBatch, Bucketizer,
    FleetConfig, IdMap, ScratchSpace, ShuffleSpec, SigridHasher,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric { name, unit, better: "lower" }
}

const fn higher(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric { name, unit, better: "higher" }
}

/// Every per-layer metric, as `BENCHMARK.json` lists them (a test keeps
/// the two in step). README.md says which end-to-end metric each should
/// move, and on which workload.
pub const PER_LAYER: &[LayerMetric] = &[
    lower("columnar.open.us_per_file", "us"),
    lower("columnar.decode.ns_per_row", "ns"),
    lower("columnar.decode.ns_per_value", "ns"),
    higher("columnar.prefix.speedup", "x"),
    lower("columnar.io.bytes_per_row", "B"),
    lower("columnar.io.reads_per_krow", "count"),
    lower("columnar.device.reads_per_group", "count"),
    lower("columnar.device.queue_wait_share", "share"),
    lower("columnar.device.busy_share", "share"),
    lower("columnar.crc.ns_per_kib", "ns"),
    lower("columnar.codec.plain.ns_per_value", "ns"),
    lower("columnar.codec.delta_varint.ns_per_value", "ns"),
    lower("columnar.codec.delta_bitpack.ns_per_value", "ns"),
    lower("columnar.codec.dictionary.ns_per_value", "ns"),
    lower("columnar.write.ns_per_row", "ns"),
    lower("columnar.write.stored_bytes_per_raw_byte", "B/B"),
    lower("datagen.generate.ns_per_row", "ns"),
    lower("ops.extract.ns_per_row", "ns"),
    lower("ops.transform.ns_per_row", "ns"),
    lower("ops.bucketize.ns_per_elem", "ns"),
    lower("ops.sigridhash.ns_per_elem", "ns"),
    lower("ops.lognorm.ns_per_elem", "ns"),
    lower("ops.mapid.ns_per_elem", "ns"),
    lower("ops.firstx.ns_per_elem", "ns"),
    lower("ops.ngram.ns_per_elem", "ns"),
    lower("ops.format.ns_per_row", "ns"),
    lower("ops.partition.ns_per_row", "ns"),
    lower("ops.alloc.bytes_per_row", "B"),
    lower("ops.alloc.calls_per_krow", "count"),
    lower("ops.share.extract", "share"),
    lower("ops.share.transform", "share"),
    lower("ops.share.format", "share"),
    higher("ops.stream.efficiency", "share"),
    lower("ops.stream.spawn_join_ms", "ms"),
    lower("ops.shuffle.epoch_units_ms", "ms"),
    lower("ops.shuffle.group.ns_per_row", "ns"),
    lower("ops.recovery.faults_per_epoch", "count"),
    lower("ops.recovery.retries_per_epoch", "count"),
    lower("ops.recovery.failovers_per_epoch", "count"),
    lower("core.isp.ns_per_row", "ns"),
    lower("core.isp.chunk_overhead", "x"),
    lower("core.isp.p2p_bytes_per_row", "B"),
    lower("core.split.isp_ns_per_row", "ns"),
    lower("core.split.host_ns_per_row", "ns"),
    lower("core.split.boundary_bytes_per_row", "B"),
    higher("core.placement.pred_speedup", "x"),
    higher("core.placement.host_pred_over_meas", "x"),
    higher("core.placement.offloaded_stages", "count"),
    higher("core.service.fairness", "share"),
    lower("core.service.max_dispatch_gap_ms", "ms"),
    lower("core.service.submit_shutdown_ms", "ms"),
    lower("core.trainer.stall_share", "share"),
    higher("core.trainer.mean_occupancy", "count"),
    higher("hwsim.isp.pred_rows_per_s", "rows/s"),
    higher("hwsim.disagg.pred_rows_per_s", "rows/s"),
    lower("trace.overhead_share", "share"),
    higher("trace.self_sum_over_partition", "share"),
];

/// What the streamed part of the traced run hands to the ledger.
#[derive(Debug, Default, Clone, Copy)]
pub struct StreamProbe {
    pub untraced_rows: u64,
    pub untraced_wall: Duration,
    pub traced_wall: Duration,
    pub traced_epochs: u64,
    pub faults: u64,
    pub retries: u64,
    pub failovers: u64,
}

/// Bytes and positioned reads of one plan-driven Extract per partition,
/// counted exactly by a `CountingBlob`.
fn count_io(tenant: &Tenant) -> Result<(u64, u64), String> {
    let mut read = ReadScratch::new();
    let (mut bytes, mut reads) = (0, 0);
    for p in &tenant.pristine {
        let reader = FileReader::open(CountingBlob::new(p.blob.clone())).map_err(err)?;
        extract_columns_for_plan(&tenant.plan, &reader, tenant.plan.required_columns(), &mut read)
            .map_err(err)?;
        let blob = reader.into_inner();
        bytes += blob.bytes_read();
        reads += blob.read_calls();
    }
    Ok((bytes, reads))
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Standalone inputs for the kernel and codec spans: every dense value of
/// a tenant's first partition, and all its sparse lists back to back.
struct Sample {
    dense: Vec<f32>,
    offsets: Vec<u32>,
    ids: Vec<i64>,
    /// `ids` re-encoded once per codec.
    encoded: Vec<(&'static str, Encoding, Vec<u8>)>,
}

impl Sample {
    fn of(tenant: &Tenant) -> Result<Sample, String> {
        let reader = FileReader::open(tenant.pristine[0].blob.clone()).map_err(err)?;
        let names: Vec<String> = reader
            .schema()
            .iter()
            .map(|f| f.name().to_owned())
            .filter(|n| n.starts_with("dense_") || n.starts_with("sparse_"))
            .collect();
        let batch =
            extract_columns_from_reader(&reader, &names, &mut ReadScratch::new()).map_err(err)?;
        let (mut dense, mut offsets, mut ids) = (Vec::new(), vec![0u32], Vec::new());
        for column in batch.columns() {
            if let Some(values) = column.as_float32() {
                dense.extend_from_slice(values);
            } else if let Some((column_offsets, values)) = column.as_list_int64() {
                let base = ids.len() as u32;
                offsets.extend(column_offsets[1..].iter().map(|&o| base + o));
                ids.extend_from_slice(values);
            }
        }
        let encoded = [
            ("columnar.codec.plain", Encoding::Plain),
            ("columnar.codec.delta_varint", Encoding::Delta),
            ("columnar.codec.delta_bitpack", Encoding::DeltaBitpack),
            ("columnar.codec.dictionary", Encoding::Dictionary),
        ]
        .map(|(name, encoding)| {
            let mut bytes = Vec::new();
            encode_i64(encoding, &ids, &mut bytes);
            (name, encoding, bytes)
        })
        .into();
        Ok(Sample { dense, offsets, ids, encoded })
    }
}

/// Per-tenant state the walk recycles across passes, as a worker would.
struct Walker<'a> {
    tenant: &'a Tenant,
    sample: Sample,
    isp: IspWorker,
    split: presto_ops::SplitPlan,
    partition_scratch: ScratchSpace,
    batch_scratch: ScratchSpace,
    isp_scratch: ScratchSpace,
    group_scratch: ScratchSpace,
    read: ReadScratch,
    bucketizer: Bucketizer,
    hasher: SigridHasher,
    id_map: IdMap,
    out_ids: Vec<i64>,
    out_dense: Vec<f32>,
    out_offsets: Vec<u32>,
}

/// Counts the walk keeps beside the spans.
#[derive(Debug, Default)]
struct Counts {
    rows: u64,
    files: u64,
    values: u64,
    blob_kib: f64,
    codec_values: u64,
    dense_elems: u64,
    id_elems: u64,
    p2p_bytes: u64,
    boundary_bytes: u64,
    alloc_calls: u64,
    alloc_bytes: u64,
    alloc_rows: u64,
}

impl<'a> Walker<'a> {
    fn new(tenant: &'a Tenant, seed: u64) -> Result<Self, String> {
        let split = match &tenant.fleet {
            Fleet::Split(split) => split.clone(),
            _ => {
                let placement = analytic_placement(&tenant.plan, tenant.config.batch_size);
                tenant.plan.split(&placement.fleet_assignment()).map_err(err)?
            }
        };
        Ok(Walker {
            tenant,
            sample: Sample::of(tenant)?,
            isp: IspWorker::new(tenant.plan.clone()),
            split,
            partition_scratch: ScratchSpace::new(),
            batch_scratch: ScratchSpace::new(),
            isp_scratch: ScratchSpace::new(),
            group_scratch: ScratchSpace::new(),
            read: ReadScratch::new(),
            bucketizer: Bucketizer::log_spaced(tenant.config.bucket_size, DENSE_VALUE_CEILING)
                .map_err(err)?,
            hasher: SigridHasher::new(seed, tenant.config.avg_embeddings as u64).map_err(err)?,
            id_map: IdMap::shuffled(seed, 100_000, 100_000),
            out_ids: Vec::new(),
            out_dense: Vec::new(),
            out_offsets: Vec::new(),
        })
    }

    /// Every layer's public call over one partition, nested under one
    /// `unit` span.
    fn unit(
        &mut self,
        t: &mut Tracer,
        index: usize,
        pass: u32,
        counts: &mut Counts,
    ) -> Result<(), String> {
        let plan = &self.tenant.plan;
        let blob = &self.tenant.pristine[index].blob;
        let rows = self.tenant.pristine[index].rows as u64;
        counts.rows += rows;
        counts.files += 1;
        counts.blob_kib += blob.as_bytes().len() as f64 / 1024.0;
        t.span("unit", |t| -> Result<(), String> {
            // The serial reference rate, on a recycled scratch.
            let before = crate::thread_allocations();
            t.span("ops.partition", |_| {
                preprocess_partition_with(plan, blob.clone(), &mut self.partition_scratch)
            })
            .map_err(err)?;
            // Allocations of the steady state: the first pass grows the scratch.
            if pass > 0 {
                let after = crate::thread_allocations();
                counts.alloc_calls += after.0 - before.0;
                counts.alloc_bytes += after.1 - before.1;
                counts.alloc_rows += rows;
            }

            // The same work taken apart: Extract (open + decode), Transform
            // on the borrowed batch, and Transform + format together. Of
            // each pair that reads the same bytes, whichever runs second
            // finds them cached, so odd passes swap the order.
            let swapped = pass % 2 == 1;
            let decode_full = |t: &mut Tracer, read: &mut ReadScratch| {
                let reader = FileReader::open(blob.clone()).map_err(err)?;
                t.span("columnar.decode_full", |_| {
                    extract_columns_from_reader(&reader, plan.required_columns(), read)
                })
                .map(drop)
                .map_err(err)
            };
            if swapped {
                decode_full(t, &mut self.read)?;
            }
            let (reader, batch) = t.span("ops.extract", |t| -> Result<_, String> {
                let reader =
                    t.span("columnar.open", |_| FileReader::open(blob.clone())).map_err(err)?;
                let batch = t
                    .span("columnar.decode", |_| {
                        extract_columns_for_plan(
                            plan,
                            &reader,
                            plan.required_columns(),
                            &mut self.read,
                        )
                    })
                    .map_err(err)?;
                Ok((reader, batch))
            })?;
            if !swapped {
                decode_full(t, &mut self.read)?;
            }
            counts.values += batch.columns().iter().map(|c| c.element_count() as u64).sum::<u64>();
            for transform_only in [!swapped, swapped] {
                if transform_only {
                    t.span("ops.transform", |_| {
                        transform_batch_into(plan, &batch, &mut self.batch_scratch)
                    })
                    .map_err(err)?;
                } else {
                    t.span("ops.batch", |_| {
                        preprocess_batch_with(plan, &batch, &mut self.batch_scratch)
                    })
                    .map_err(err)?;
                }
            }
            drop(batch);

            // The shuffled fleet's unit of work, group by group.
            t.span("ops.shuffle.group", |_| {
                (0..reader.row_group_count()).try_for_each(|group| {
                    preprocess_group_with(plan, &reader, group, &mut self.group_scratch).map(drop)
                })
            })
            .map_err(err)?;

            // The ISP emulation: chunked through the on-chip buffers.
            let (_, isp_stats) = t
                .span("core.isp", |_| self.isp.preprocess_with(blob.clone(), &mut self.isp_scratch))
                .map_err(err)?;
            counts.p2p_bytes += isp_stats.p2p_bytes;

            // The split hand-off at the cost model's boundary, serially.
            let split = &self.split;
            let isp_batch = (!split.isp_stages().is_empty())
                .then(|| {
                    extract_columns_for_plan(plan, &reader, split.isp_columns(), &mut self.read)
                })
                .transpose()
                .map_err(err)?;
            let host_batch =
                extract_columns_for_plan(plan, &reader, split.host_columns(), &mut self.read)
                    .map_err(err)?;
            let boundary = match isp_batch {
                Some(isp_batch) => {
                    t.span("core.split.isp", |_| {
                        preprocess_split_isp(
                            plan,
                            split,
                            isp_batch,
                            presto_core::isp_worker::FEATURE_BUFFER_ELEMS,
                        )
                    })
                    .map_err(err)?
                    .0
                }
                None => BoundaryBatch::default(),
            };
            counts.boundary_bytes += boundary.byte_len();
            t.span("core.split.host", |_| preprocess_split_host(plan, split, host_batch, boundary))
                .map_err(err)?;

            t.span("columnar.crc", |_| std::hint::black_box(checksum::crc32(blob.as_bytes())));
            if index == 0 {
                self.kernels(t, counts)?;
            }
            Ok(())
        })
    }

    /// Codecs and kernels on their own, over the first partition's columns.
    fn kernels(&mut self, t: &mut Tracer, counts: &mut Counts) -> Result<(), String> {
        let Sample { dense, offsets, ids, encoded } = &self.sample;
        for (name, encoding, bytes) in encoded {
            self.out_ids.clear();
            t.span(name, |_| {
                decode_i64_into(*encoding, bytes, &mut 0, ids.len(), &mut self.out_ids)
            })
            .map_err(err)?;
        }
        counts.codec_values += ids.len() as u64;
        counts.dense_elems += dense.len() as u64;
        counts.id_elems += ids.len() as u64;
        t.span("ops.bucketize", |_| self.bucketizer.apply_into(dense, &mut self.out_ids));
        t.span("ops.lognorm", |_| log_normalize_into(dense, &mut self.out_dense));
        t.span("ops.sigridhash", |_| self.hasher.apply_into(ids, &mut self.out_ids));
        t.span("ops.mapid", |_| self.id_map.apply_into(ids, &mut self.out_ids));
        t.span("ops.firstx", |_| {
            firstx_into(offsets, ids, 8, &mut self.out_offsets, &mut self.out_ids);
        });
        t.span("ops.ngram", |_| {
            ngram_into(offsets, ids, 2, &self.hasher, &mut self.out_offsets, &mut self.out_ids);
        });
        std::hint::black_box((&self.out_ids, &self.out_dense, &self.out_offsets));
        Ok(())
    }
}

/// One shuffled epoch of `tenant`'s data behind fresh emulated devices:
/// `(reads per unit, queue-wait share, busy share)` of worker time.
fn device_epoch(tenant: &Tenant, seed: u64) -> Result<(f64, f64, f64), String> {
    let (stored, devices) = behind_devices(&tenant.pristine, DeviceModel::new(SSD.0, SSD.1));
    let units = epoch_units(&tenant.pristine).map_err(err)?.len();
    let config = FleetConfig::new(BUSY_THREADS, 4);
    let started = Instant::now();
    let mut source = Fleet::Shuffled(ShuffleSpec::new(seed)).spawn(&tenant.plan, &stored, &config);
    while let Some(item) = source.next_batch() {
        item.map_err(err)?;
    }
    drop(source);
    let worker_time = started.elapsed().as_secs_f64() * BUSY_THREADS as f64;
    let (mut reads, mut busy, mut wait) = (0u64, 0.0, 0.0);
    for device in &devices {
        let stats = device.stats();
        reads += stats.reads;
        busy += stats.busy.as_secs_f64();
        wait += stats.queue_wait.as_secs_f64();
    }
    Ok((reads as f64 / units as f64, wait / worker_time, busy / worker_time))
}

fn median_ms(mut samples: Vec<f64>) -> f64 {
    crate::stats::median(&mut samples)
}

/// Runs the layer walk for about `budget`, then the one-shot probes, and
/// returns every per-layer metric by name.
pub fn ledger(
    w: &Workload,
    t: &mut Tracer,
    budget: Duration,
    probe: &StreamProbe,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut walkers = w
        .tenants
        .iter()
        .map(|tenant| Walker::new(tenant, w.seed))
        .collect::<Result<Vec<_>, _>>()?;
    let mut counts = Counts::default();
    let started = Instant::now();
    let mut pass = 0u32;
    while pass < 2 || started.elapsed() < budget {
        let mut unit = 0u32;
        for walker in &mut walkers {
            for index in 0..walker.tenant.pristine.len() {
                t.set_unit(pass, unit);
                walker.unit(t, index, pass, &mut counts)?;
                unit += 1;
            }
        }
        pass += 1;
    }

    let totals = t.totals();
    let ns = |name: &str| totals.get(name).map_or(0.0, |n: &NameTotals| n.total_ns as f64);
    let count = |name: &str| totals.get(name).map_or(0.0, |n: &NameTotals| n.count as f64);
    let rows = counts.rows as f64;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // columnar
    m.insert("columnar.open.us_per_file", ns("columnar.open") / count("columnar.open") / 1e3);
    m.insert("columnar.decode.ns_per_row", ns("columnar.decode") / rows);
    m.insert("columnar.decode.ns_per_value", ns("columnar.decode") / counts.values as f64);
    m.insert("columnar.prefix.speedup", ns("columnar.decode_full") / ns("columnar.decode"));
    let (mut io_bytes, mut io_reads) = (0, 0);
    for tenant in &w.tenants {
        let (bytes, reads) = count_io(tenant)?;
        io_bytes += bytes;
        io_reads += reads;
    }
    let dataset_rows = w.tenants.iter().map(|t| t.pristine.iter().map(|p| p.rows).sum::<usize>());
    let dataset_rows = dataset_rows.sum::<usize>() as f64;
    m.insert("columnar.io.bytes_per_row", io_bytes as f64 / dataset_rows);
    m.insert("columnar.io.reads_per_krow", io_reads as f64 / dataset_rows * 1e3);
    let (mut reads_per_group, mut wait_share, mut busy_share) = (0.0, 0.0, 0.0);
    for tenant in &w.tenants {
        let (reads, wait, busy) = device_epoch(tenant, w.seed)?;
        let share = 1.0 / w.tenants.len() as f64;
        reads_per_group += reads * share;
        wait_share += wait * share;
        busy_share += busy * share;
    }
    m.insert("columnar.device.reads_per_group", reads_per_group);
    m.insert("columnar.device.queue_wait_share", wait_share);
    m.insert("columnar.device.busy_share", busy_share);
    m.insert("columnar.crc.ns_per_kib", ns("columnar.crc") / counts.blob_kib);
    for (metric, span) in [
        ("columnar.codec.plain.ns_per_value", "columnar.codec.plain"),
        ("columnar.codec.delta_varint.ns_per_value", "columnar.codec.delta_varint"),
        ("columnar.codec.delta_bitpack.ns_per_value", "columnar.codec.delta_bitpack"),
        ("columnar.codec.dictionary.ns_per_value", "columnar.codec.dictionary"),
    ] {
        m.insert(metric, ns(span) / counts.codec_values as f64);
    }
    let setup = &w.ledger;
    m.insert("columnar.write.ns_per_row", setup.write.as_nanos() as f64 / setup.rows as f64);
    m.insert(
        "columnar.write.stored_bytes_per_raw_byte",
        setup.stored_bytes as f64 / setup.raw_bytes as f64,
    );
    m.insert("datagen.generate.ns_per_row", setup.generate.as_nanos() as f64 / setup.rows as f64);

    // ops
    let extract = ns("ops.extract") / rows;
    let transform = ns("ops.transform") / rows;
    let format = (ns("ops.batch") - ns("ops.transform")).max(0.0) / rows;
    let partition = ns("ops.partition") / rows;
    m.insert("ops.extract.ns_per_row", extract);
    m.insert("ops.transform.ns_per_row", transform);
    m.insert("ops.format.ns_per_row", format);
    m.insert("ops.partition.ns_per_row", partition);
    m.insert("ops.share.extract", extract / (extract + transform + format));
    m.insert("ops.share.transform", transform / (extract + transform + format));
    m.insert("ops.share.format", format / (extract + transform + format));
    m.insert("trace.self_sum_over_partition", (extract + transform + format) / partition);
    for (metric, span, elems) in [
        ("ops.bucketize.ns_per_elem", "ops.bucketize", counts.dense_elems),
        ("ops.lognorm.ns_per_elem", "ops.lognorm", counts.dense_elems),
        ("ops.sigridhash.ns_per_elem", "ops.sigridhash", counts.id_elems),
        ("ops.mapid.ns_per_elem", "ops.mapid", counts.id_elems),
        ("ops.firstx.ns_per_elem", "ops.firstx", counts.id_elems),
        ("ops.ngram.ns_per_elem", "ops.ngram", counts.id_elems),
    ] {
        m.insert(metric, ns(span) / elems as f64);
    }
    m.insert("ops.alloc.bytes_per_row", counts.alloc_bytes as f64 / counts.alloc_rows as f64);
    m.insert(
        "ops.alloc.calls_per_krow",
        counts.alloc_calls as f64 / counts.alloc_rows as f64 * 1e3,
    );
    let untraced_rate = probe.untraced_rows as f64 / probe.untraced_wall.as_secs_f64();
    m.insert("ops.stream.efficiency", untraced_rate / (BUSY_THREADS as f64 * 1e9 / partition));
    m.insert("ops.shuffle.group.ns_per_row", ns("ops.shuffle.group") / rows);
    let first = &w.tenants[0];
    let mut spawn_join = Vec::new();
    let mut epoch_units_ms = Vec::new();
    for _ in 0..15 {
        let t0 = Instant::now();
        let config = first.fleet_config.clone();
        let mut source = first.fleet_for(0).spawn(&first.plan, &first.pristine[..1], &config);
        while let Some(item) = source.next_batch() {
            item.map_err(err)?;
        }
        drop(source);
        spawn_join.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let units = epoch_units(&first.pristine).map_err(err)?;
        std::hint::black_box(epoch_order(units.len(), w.seed, 0));
        epoch_units_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    m.insert("ops.stream.spawn_join_ms", median_ms(spawn_join));
    m.insert("ops.shuffle.epoch_units_ms", median_ms(epoch_units_ms));
    let epochs = probe.traced_epochs.max(1) as f64;
    m.insert("ops.recovery.faults_per_epoch", probe.faults as f64 / epochs);
    m.insert("ops.recovery.retries_per_epoch", probe.retries as f64 / epochs);
    m.insert("ops.recovery.failovers_per_epoch", probe.failovers as f64 / epochs);

    // core
    let isp = ns("core.isp") / rows;
    m.insert("core.isp.ns_per_row", isp);
    m.insert("core.isp.chunk_overhead", isp / partition);
    m.insert("core.isp.p2p_bytes_per_row", counts.p2p_bytes as f64 / rows);
    m.insert("core.split.isp_ns_per_row", ns("core.split.isp") / rows);
    m.insert("core.split.host_ns_per_row", ns("core.split.host") / rows);
    m.insert("core.split.boundary_bytes_per_row", counts.boundary_bytes as f64 / rows);
    // The cost model's prediction beside the measurement, on the first
    // tenant's plan at its partition size.
    let placement = analytic_placement(&first.plan, first.config.batch_size);
    let host_pred_ns = placement.host_total().seconds() * 1e9 / first.config.batch_size as f64;
    m.insert("core.placement.pred_speedup", placement.speedup());
    m.insert("core.placement.host_pred_over_meas", host_pred_ns / transform);
    m.insert("core.placement.offloaded_stages", placement.offloaded() as f64);
    let mut shutdowns = Vec::new();
    let (mut fairness, mut dispatch_gap) = (1.0f64, 0.0f64);
    let jobs = w.tenants.iter().map(Tenant::as_service_job).collect::<Result<Vec<_>, _>>()?;
    for epoch in 0..5 {
        let run = w.run_service_epoch(&jobs, epoch, Checking::Identity, false)?;
        if run.outcome().failed > 0 {
            return Err("the service probe lost a unit".into());
        }
        let report = run.service.expect("a service epoch carries its report");
        fairness = fairness.min(report.fairness);
        dispatch_gap = dispatch_gap.max(report.max_starvation().as_secs_f64() * 1e3);
        shutdowns.push(run.wall.as_secs_f64() * 1e3);
    }
    m.insert("core.service.fairness", fairness);
    m.insert("core.service.max_dispatch_gap_ms", dispatch_gap);
    m.insert("core.service.submit_shutdown_ms", median_ms(shutdowns));
    let pace = TrainerConfig::for_model(&GpuTrainModel::a100(), &first.config, 1.0);
    let trained = Trainer::new(pace).run(first.spawn(w.seed, 0)).map_err(err)?;
    m.insert("core.trainer.stall_share", trained.stall_share());
    m.insert("core.trainer.mean_occupancy", trained.mean_occupancy());

    // hwsim: simulated time, a pure function of the configuration.
    let profile = WorkloadProfile::from_config(&first.config);
    m.insert("hwsim.isp.pred_rows_per_s", IspModel::smartssd().throughput(&profile));
    m.insert("hwsim.disagg.pred_rows_per_s", System::disagg(1).throughput(&profile));

    m.insert(
        "trace.overhead_share",
        probe.traced_wall.as_secs_f64() / probe.untraced_wall.as_secs_f64() - 1.0,
    );
    Ok(m)
}
