//! Enabled-path tracing cost: record → shard merge → JSONL export.
//!
//! `SHARDS` scenario tasks each record `BATCHES` batches of nested spans,
//! an attribute and a flow-sample point into their private collector on
//! `run_sharded`, which merges them into the parent's default-capacity
//! ring. Together they record more events than the ring holds, so the
//! merge exercises its tail-only path. Three measurements:
//!
//! * `record_and_merge` — the `run_sharded` call, recording included;
//! * `export_jsonl` — rendering the merged parent;
//! * `end_to_end` — both, as a traced harness round does them.
//!
//! Run: `cargo bench -p osdc-bench --bench telemetry_export`

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use osdc_sim::SimTime;
use osdc_telemetry::{run_sharded, Telemetry};

const SHARDS: usize = 8;
const BATCHES: u64 = 5_000;
/// Events per batch: two span starts, one attr, one point, two span ends.
const EVENTS_PER_BATCH: u64 = 6;

fn scenario(t: &Telemetry, shard: usize) {
    for i in 0..BATCHES {
        let at = SimTime(shard as u64 * BATCHES + i);
        let req = t.span_start("console/launch_instance", at);
        let hop = t.span_start("provider/call", at);
        t.attr(hop, "attempt", i);
        t.point("flow.mbps", at, i as f64 * 0.25);
        t.span_end(hop, at);
        t.span_end(req, at);
    }
}

fn record_and_merge() -> Telemetry {
    let parent = Telemetry::new();
    let tasks: Vec<_> = (0..SHARDS).map(|_| scenario).collect();
    run_sharded(2, &parent, tasks);
    parent
}

fn bench_export(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_export");
    group.throughput(Throughput::Elements(
        SHARDS as u64 * BATCHES * EVENTS_PER_BATCH,
    ));

    group.bench_function("record_and_merge", |b| b.iter(record_and_merge));

    group.bench_function("export_jsonl", |b| {
        let parent = record_and_merge();
        b.iter(|| parent.export_jsonl())
    });

    group.bench_function("end_to_end", |b| {
        b.iter(|| record_and_merge().export_jsonl())
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_export
}
criterion_main!(benches);
