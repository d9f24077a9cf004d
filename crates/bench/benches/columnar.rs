//! Criterion benches of the columnar substrate: encode, decode and
//! projected reads — the real work the Extract stage performs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use presto_columnar::checksum::crc32;
use presto_columnar::{FileReader, MemBlob};
use presto_datagen::{generate_batch, write_partition, RmConfig};
use std::hint::black_box;

fn small_config(name: &str) -> RmConfig {
    let mut c = match name {
        "rm1" => RmConfig::rm1(),
        _ => RmConfig::rm2(),
    };
    c.batch_size = 2048;
    c
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("columnar_encode");
    for name in ["rm1", "rm2"] {
        let config = small_config(name);
        let batch = generate_batch(&config, 2048, 7);
        group.throughput(Throughput::Bytes(batch.byte_size() as u64));
        group.bench_with_input(BenchmarkId::new("model", name), &batch, |bench, batch| {
            bench.iter(|| black_box(write_partition(black_box(batch)).expect("encodes")));
        });
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("columnar_decode");
    for name in ["rm1", "rm2"] {
        let config = small_config(name);
        let batch = generate_batch(&config, 2048, 7);
        let blob = write_partition(&batch).expect("encodes");
        group.throughput(Throughput::Bytes(blob.as_bytes().len() as u64));
        group.bench_with_input(BenchmarkId::new("model", name), &blob, |bench, blob| {
            bench.iter(|| {
                let reader = FileReader::open(black_box(blob.clone())).expect("opens");
                black_box(reader.read_row_group(0).expect("decodes"))
            });
        });
    }
    group.finish();
}

fn bench_projection(c: &mut Criterion) {
    // The columnar advantage: reading 2 of 40 columns must be much cheaper
    // than reading all of them.
    let config = small_config("rm1");
    let batch = generate_batch(&config, 2048, 9);
    let blob = write_partition(&batch).expect("encodes");
    let mut group = c.benchmark_group("columnar_projection");
    group.bench_function("two_columns", |bench| {
        bench.iter(|| {
            let reader = FileReader::open(black_box(blob.clone())).expect("opens");
            black_box(reader.read_projected(0, &["dense_0", "sparse_0"]).expect("projects"))
        });
    });
    group.bench_function("all_columns", |bench| {
        bench.iter(|| {
            let reader = FileReader::open(black_box(blob.clone())).expect("opens");
            black_box(reader.read_row_group(0).expect("reads"))
        });
    });
    group.finish();
}

fn bench_mem_reader_open(c: &mut Criterion) {
    let config = small_config("rm1");
    let batch = generate_batch(&config, 2048, 11);
    let blob = write_partition(&batch).expect("encodes");
    c.bench_function("columnar_open_footer", |bench| {
        bench.iter(|| black_box(FileReader::open(black_box(blob.clone())).expect("opens")));
    });
    let _ = MemBlob::new(vec![]);
}

fn bench_crc32(c: &mut Criterion) {
    // The checksum every page read pays, on its own: the shortest input
    // the folded kernel takes, a typical page, and streaming.
    let data: Vec<u8> =
        (0..1usize << 20).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
    let mut group = c.benchmark_group("crc32");
    for len in [64usize, 4 << 10, 1 << 20] {
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_with_input(BenchmarkId::new("bytes", len), &data[..len], |bench, data| {
            bench.iter(|| black_box(crc32(black_box(data))));
        });
    }
    group.finish();
}

/// Short measurement windows keep `cargo bench --workspace` to a few
/// minutes while staying statistically useful.
fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_encode, bench_decode, bench_projection, bench_mem_reader_open, bench_crc32
}
criterion_main!(benches);
