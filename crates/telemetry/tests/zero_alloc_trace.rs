//! Counting-allocator proof that trace recording and the shard merge are
//! zero-alloc at steady state. Ring events are plain data with interned
//! names, so once the ring is full and every name has been seen:
//!
//! * `point`, `span_start` and `span_end` resolve the name with one
//!   lookup and overwrite a ring slot;
//! * the shard merge behind `run_sharded` (and its one-shard case,
//!   `absorb`) copies events into the parent's ring through a reused
//!   name-remap scratch, so what `run_sharded` itself allocates does not
//!   grow with the number of events merged.

use std::sync::atomic::{AtomicU64, Ordering};

use counting_alloc::{count_allocations, CountingAlloc};
use osdc_sim::SimTime;
use osdc_telemetry::{run_sharded, Telemetry};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const CAP: usize = 1_024;

/// One batch of spans and points under a fixed set of names.
fn record(t: &Telemetry, n: u64) {
    for i in 0..n {
        let s = t.span_start("request", SimTime(i));
        let c = t.span_start("backend", SimTime(i));
        t.point("flow.mbps", SimTime(i), i as f64);
        t.span_end(c, SimTime(i + 1));
        t.span_end(s, SimTime(i + 2));
    }
}

#[test]
fn allocator_probe_is_live() {
    let (stats, v) = count_allocations(|| vec![0u8; 1 << 16]);
    assert!(stats.allocations >= 1);
    drop(v);
}

#[test]
fn recording_into_a_full_ring_is_zero_alloc() {
    let t = Telemetry::with_ring_capacity(CAP);
    record(&t, CAP as u64); // fill the ring, intern every name
    let (stats, ()) = count_allocations(|| record(&t, 10 * CAP as u64));
    assert_eq!(t.trace_len(), CAP);
    assert_eq!(
        stats.allocations, 0,
        "recording allocated {} times ({} bytes) at steady state",
        stats.allocations, stats.bytes
    );
}

#[test]
fn absorbing_into_a_full_parent_is_zero_alloc() {
    let parent = Telemetry::with_ring_capacity(CAP);
    let shard = Telemetry::new();
    record(&shard, 4 * CAP as u64);
    parent.absorb(&shard); // fill the ring, intern, size the scratch
    let (stats, ()) = count_allocations(|| {
        for _ in 0..8 {
            parent.absorb(&shard);
        }
    });
    assert_eq!(parent.trace_len(), CAP);
    assert_eq!(
        stats.allocations, 0,
        "absorb allocated {} times ({} bytes) at steady state",
        stats.allocations, stats.bytes
    );
}

/// What one `run_sharded` call allocates on the calling thread outside the
/// tasks' own recording, for `shards` tasks of `n` batches each. With one
/// worker the tasks run inline, so their recording is counted separately
/// and subtracted.
fn merge_allocations(parent: &Telemetry, shards: usize, n: u64) -> u64 {
    let inside = AtomicU64::new(0);
    let tasks: Vec<_> = (0..shards)
        .map(|_| {
            let inside = &inside;
            move |t: &Telemetry, _: usize| {
                let (stats, ()) = count_allocations(|| record(t, n));
                inside.fetch_add(stats.allocations, Ordering::Relaxed);
            }
        })
        .collect();
    let (stats, _) = count_allocations(|| run_sharded(1, parent, tasks));
    stats.allocations - inside.into_inner()
}

#[test]
fn run_sharded_merge_allocates_nothing_per_event() {
    let parent = Telemetry::with_ring_capacity(CAP);
    merge_allocations(&parent, 4, CAP as u64); // warm the parent
    let small = merge_allocations(&parent, 4, CAP as u64);
    let large = merge_allocations(&parent, 4, 16 * CAP as u64);
    assert_eq!(parent.trace_len(), CAP);
    assert_eq!(
        small, large,
        "run_sharded's own allocations grew with the events merged"
    );
}
