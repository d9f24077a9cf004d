//! Inspect a PreSto columnar file: schema, row groups, per-chunk sizes and
//! statistics — the `parquet-tools` equivalent for this format.
//!
//! Usage:
//! ```text
//! cargo run -p presto-bench --bin columnar-inspect [--verify] [FILE]
//! ```
//! Without a file, a demo RM1 partition is generated in memory and
//! inspected (handy for exploring the format).
//!
//! Inspecting reads the footer — and, of each chunk stored as head + tail
//! pages (a long list column; the table's `head` and `K` columns), its page
//! headers, to print both parts' page encodings and stored bytes. `--verify`
//! instead reads every column of every row group in full, which checks
//! every page's CRC-32 (head and tail pages alike), prints the pages and
//! bytes verified and the rate, and exits non-zero naming the
//! `(group, column)` of the first chunk that fails.

use presto_bench::report::TextTable;
use presto_columnar::column::{page_summaries, ChunkPart, PageSummary};
use presto_columnar::{BlobRead, FileReader, FormatVersion, FsBlob, MemBlob, ReadScratch};
use presto_datagen::{generate_batch, write_partition, RmConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (flags, paths): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|arg| arg.starts_with("--"));
    let verify = match flags.as_slice() {
        [] => false,
        [flag] if flag == "--verify" => true,
        _ => return Err(format!("unknown option(s) {flags:?}; usage: [--verify] [FILE]").into()),
    };
    match paths.first() {
        Some(path) => {
            println!("{} {path}", if verify { "verifying" } else { "inspecting" });
            run(FsBlob::open(path)?, verify)
        }
        None => {
            println!("no file given; generating a demo RM1 partition (1024 rows)");
            let mut config = RmConfig::rm1();
            config.batch_size = 1024;
            let batch = generate_batch(&config, 1024, 42);
            run(write_partition(&batch)?, verify)
        }
    }
}

fn run<B: BlobRead>(blob: B, verify: bool) -> Result<(), Box<dyn std::error::Error>> {
    if verify {
        verify_pages(blob)
    } else {
        inspect(blob)
    }
}

/// Reads (and so checksums and decodes) every column chunk of the file.
fn verify_pages<B: BlobRead>(blob: B) -> Result<(), Box<dyn std::error::Error>> {
    let reader = FileReader::open(blob)?;
    let mut scratch = ReadScratch::new();
    let (mut pages, mut bytes, mut split) = (0u64, 0u64, 0u64);
    let start = std::time::Instant::now();
    for (g, rg) in reader.meta().row_groups.iter().enumerate() {
        for (c, chunk) in rg.columns.iter().enumerate() {
            reader.read_column_limit_with(g, c, None, &mut scratch).map_err(|err| {
                let name = reader.schema().fields()[c].name();
                format!("(group {g}, column {c} {name}): {err}")
            })?;
            pages += chunk.stats.pages;
            bytes += chunk.byte_len;
            split += u64::from(chunk.stats.head.is_some());
        }
    }
    let secs = start.elapsed().as_secs_f64();
    // Footers before PSTOCOL4 do not record page counts.
    let pages =
        if reader.version() == FormatVersion::V4 { pages.to_string() } else { "unknown".into() };
    println!(
        "verified {pages} pages, {bytes} bytes in {} row groups ({split} chunks in head + tail \
         parts, both read): every checksum matches ({:.2} GB/s read + verify + decode)",
        reader.row_group_count(),
        bytes as f64 / secs / 1e9
    );
    Ok(())
}

/// `3 pages, 2048 rows, 65536 values, 81234 B stored (delta_bitpack)`.
fn describe_part(pages: &[PageSummary], part: ChunkPart) -> String {
    let pages: Vec<&PageSummary> = pages.iter().filter(|p| p.part == part).collect();
    let mut encodings: Vec<String> = pages.iter().map(|p| p.encoding.to_string()).collect();
    encodings.dedup();
    format!(
        "{} pages, {} rows, {} values, {} B stored ({})",
        pages.len(),
        pages.iter().map(|p| p.rows).sum::<usize>(),
        pages.iter().map(|p| p.elements).sum::<usize>(),
        pages.iter().map(|p| p.stored_bytes).sum::<usize>(),
        encodings.join(", ")
    )
}

fn inspect<B: BlobRead>(blob: B) -> Result<(), Box<dyn std::error::Error>> {
    let total_len = blob.blob_len();
    let reader = FileReader::open(&blob)?;
    let meta = reader.meta();

    println!(
        "file: {} bytes, {} row groups, {} total rows, {} columns\n",
        total_len,
        meta.row_groups.len(),
        meta.total_rows(),
        meta.schema.len()
    );

    let mut schema_table = TextTable::new(vec!["#", "column", "type"]);
    for (i, field) in meta.schema.fields().iter().enumerate() {
        schema_table.row(vec![
            i.to_string(),
            field.name().to_owned(),
            field.data_type().to_string(),
        ]);
    }
    println!("schema:");
    print!("{}", schema_table.render());
    println!();

    for (g, rg) in meta.row_groups.iter().enumerate() {
        println!("row group {g}: {} rows", rg.rows);
        let mut t = TextTable::new(vec![
            "column",
            "offset",
            "bytes",
            "elements",
            "bytes/elem",
            "min",
            "max",
            "head",
            "K",
        ]);
        let mut parts = Vec::new();
        for (field, chunk) in meta.schema.fields().iter().zip(&rg.columns) {
            let per_elem = if chunk.stats.elements == 0 {
                "-".to_owned()
            } else {
                format!("{:.2}", chunk.byte_len as f64 / chunk.stats.elements as f64)
            };
            let fmt_opt = |v: Option<i64>| v.map_or_else(|| "-".to_owned(), |x| x.to_string());
            t.row(vec![
                field.name().to_owned(),
                chunk.offset.to_string(),
                chunk.byte_len.to_string(),
                chunk.stats.elements.to_string(),
                per_elem,
                fmt_opt(chunk.stats.min_i64),
                fmt_opt(chunk.stats.max_i64),
                chunk.stats.head.map_or_else(|| "-".to_owned(), |h| h.head_len.to_string()),
                chunk.stats.head.map_or_else(|| "-".to_owned(), |h| h.k.to_string()),
            ]);
            if chunk.stats.head.is_some() {
                let bytes = blob.read_at(chunk.offset, usize::try_from(chunk.byte_len)?)?;
                let pages = page_summaries(&bytes, chunk.offset)?;
                parts.push(format!(
                    "  {}: head {}; tail {}",
                    field.name(),
                    describe_part(&pages, ChunkPart::Head),
                    describe_part(&pages, ChunkPart::Tail)
                ));
            }
        }
        print!("{}", t.render());
        parts.iter().for_each(|line| println!("{line}"));
        let data_bytes: u64 = rg.columns.iter().map(|c| c.byte_len).sum();
        println!(
            "row-group data: {} bytes ({:.1}% of file)\n",
            data_bytes,
            100.0 * data_bytes as f64 / total_len as f64
        );
    }
    // Silence unused-import lint when compiled without the demo path.
    let _ = MemBlob::new(Vec::new());
    Ok(())
}
