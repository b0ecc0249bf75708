//! Hot-path perf snapshot: the three paths the PR-8 speed pass attacked,
//! each measured against a verbatim copy of the seed implementation it
//! replaced, written to `BENCH_hotpath.json`.
//!
//! * **Scheduler** — the calendar-queue `osdc_sim::Engine` vs the seed's
//!   reversed-`BinaryHeap` scheduler, under the classic hold model
//!   (every delivery schedules a successor) at queue depths 10², 10⁴ and
//!   10⁵. Metric: events/sec.
//! * **Ciphers** — the batched multi-block kernels (4-lane interleaved
//!   Blowfish/DES, table-driven DES, slab CTR, batched CBC decrypt) vs
//!   per-block dispatch with the seed's bit-by-bit permute DES. Metric:
//!   MB/s per algorithm × mode.
//! * **Delta** — zero-alloc `generate_delta_with` (flat chained weak
//!   index, reusable scratch, lazy MD5) vs the seed's
//!   `HashMap<u32, Vec<&Sig>>` + eager-MD5 generator. Metric: MB/s of
//!   scanned input.
//!
//! The seed copy is the base side and today's path the fast side of
//! [`osdc_bench::gate`], whose ratio check runs with a 10x cap. On top
//! of that, the acceptance rule for the speed pass itself: at least two
//! of the three hot-path groups must hold a ≥2x best speedup.
//!
//! Flags: `--out` and `--check` as in [`osdc_bench::gate`].

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

use osdc_bench::gate::{self, Baseline, Cli, GateError, Row, Side, Snapshot};
use osdc_crypto::md5::md5;
use osdc_crypto::modes::ecb_encrypt;
use osdc_crypto::{BlockCipher64, Blowfish, CbcEncryptor, CtrStream, TripleDes};
use osdc_sim::{Engine, Scheduler, SimTime, Simulation};
use osdc_transfer::delta::{
    compute_signatures, generate_delta_with, BlockSignature, Delta, DeltaOp, DeltaScratch,
    Signatures,
};
use osdc_transfer::rolling::{weak_checksum, RollingChecksum};

/// Speedups compare after clamping here (beyond it is timer noise).
const SPEEDUP_CAP: f64 = 10.0;
/// The speed-pass acceptance rule: this many of the three hot-path
/// groups must keep at least a 2x best speedup.
const MIN_FAST_GROUPS: usize = 2;
const GROUP_TARGET_SPEEDUP: f64 = 2.0;

// ---- Baseline 1: the seed's BinaryHeap scheduler --------------------------

struct HeapEntry {
    at: u64,
    seq: u64,
    id: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The pre-calendar engine's queue discipline, verbatim: max-heap over
/// reversed `(at, seq)`, monotone clock, past times clamped to now.
#[derive(Default)]
struct HeapScheduler {
    now: u64,
    seq: u64,
    heap: BinaryHeap<HeapEntry>,
}

impl HeapScheduler {
    fn schedule(&mut self, at: u64, id: u32) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(HeapEntry { at, seq, id });
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        let e = self.heap.pop()?;
        self.now = e.at;
        Some((e.at, e.id))
    }
}

/// Deterministic xorshift delay stream shared by both scheduler sides.
struct DelayRng(u64);

impl DelayRng {
    fn next_delay(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        1 + (self.0 % 50_000)
    }
}

struct Hold {
    rng: DelayRng,
    remaining: u64,
}

impl Simulation for Hold {
    type Event = u32;
    fn handle(&mut self, now: SimTime, event: u32, sched: &mut Scheduler<u32>) {
        self.remaining -= 1;
        sched.at(SimTime(now.as_nanos() + self.rng.next_delay()), event);
    }
}

fn scheduler_calendar(depth: u32, events: u64) {
    let mut eng: Engine<u32> = Engine::new();
    let mut world = Hold {
        rng: DelayRng(0x9E3779B97F4A7C15),
        remaining: events,
    };
    let mut seed_rng = DelayRng(42);
    for i in 0..depth {
        eng.schedule(SimTime(seed_rng.next_delay()), i);
    }
    while world.remaining > 0 {
        eng.step(&mut world).expect("hold model never drains");
    }
    assert_eq!(eng.pending() as u64, u64::from(depth));
}

fn scheduler_heap(depth: u32, events: u64) {
    let mut sched = HeapScheduler::default();
    let mut rng = DelayRng(0x9E3779B97F4A7C15);
    let mut seed_rng = DelayRng(42);
    for i in 0..depth {
        sched.schedule(seed_rng.next_delay(), i);
    }
    for _ in 0..events {
        let (at, id) = sched.pop().expect("hold model never drains");
        sched.schedule(at + rng.next_delay(), id);
    }
    assert_eq!(sched.heap.len() as u64, u64::from(depth));
}

// ---- Baseline 2: the seed's per-block bit-permute DES ---------------------

#[rustfmt::skip]
const IP: [u8; 64] = [
    58, 50, 42, 34, 26, 18, 10,  2, 60, 52, 44, 36, 28, 20, 12,  4,
    62, 54, 46, 38, 30, 22, 14,  6, 64, 56, 48, 40, 32, 24, 16,  8,
    57, 49, 41, 33, 25, 17,  9,  1, 59, 51, 43, 35, 27, 19, 11,  3,
    61, 53, 45, 37, 29, 21, 13,  5, 63, 55, 47, 39, 31, 23, 15,  7,
];

#[rustfmt::skip]
const FP: [u8; 64] = [
    40,  8, 48, 16, 56, 24, 64, 32, 39,  7, 47, 15, 55, 23, 63, 31,
    38,  6, 46, 14, 54, 22, 62, 30, 37,  5, 45, 13, 53, 21, 61, 29,
    36,  4, 44, 12, 52, 20, 60, 28, 35,  3, 43, 11, 51, 19, 59, 27,
    34,  2, 42, 10, 50, 18, 58, 26, 33,  1, 41,  9, 49, 17, 57, 25,
];

#[rustfmt::skip]
const E: [u8; 48] = [
    32,  1,  2,  3,  4,  5,  4,  5,  6,  7,  8,  9,
     8,  9, 10, 11, 12, 13, 12, 13, 14, 15, 16, 17,
    16, 17, 18, 19, 20, 21, 20, 21, 22, 23, 24, 25,
    24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32,  1,
];

#[rustfmt::skip]
const P: [u8; 32] = [
    16,  7, 20, 21, 29, 12, 28, 17,  1, 15, 23, 26,  5, 18, 31, 10,
     2,  8, 24, 14, 32, 27,  3,  9, 19, 13, 30,  6, 22, 11,  4, 25,
];

#[rustfmt::skip]
const PC1: [u8; 56] = [
    57, 49, 41, 33, 25, 17,  9,  1, 58, 50, 42, 34, 26, 18,
    10,  2, 59, 51, 43, 35, 27, 19, 11,  3, 60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15,  7, 62, 54, 46, 38, 30, 22,
    14,  6, 61, 53, 45, 37, 29, 21, 13,  5, 28, 20, 12,  4,
];

#[rustfmt::skip]
const PC2: [u8; 48] = [
    14, 17, 11, 24,  1,  5,  3, 28, 15,  6, 21, 10,
    23, 19, 12,  4, 26,  8, 16,  7, 27, 20, 13,  2,
    41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48,
    44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
];

const SHIFTS: [u8; 16] = [1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1];

#[rustfmt::skip]
const SBOX: [[u8; 64]; 8] = [
    [
        14,  4, 13,  1,  2, 15, 11,  8,  3, 10,  6, 12,  5,  9,  0,  7,
         0, 15,  7,  4, 14,  2, 13,  1, 10,  6, 12, 11,  9,  5,  3,  8,
         4,  1, 14,  8, 13,  6,  2, 11, 15, 12,  9,  7,  3, 10,  5,  0,
        15, 12,  8,  2,  4,  9,  1,  7,  5, 11,  3, 14, 10,  0,  6, 13,
    ],
    [
        15,  1,  8, 14,  6, 11,  3,  4,  9,  7,  2, 13, 12,  0,  5, 10,
         3, 13,  4,  7, 15,  2,  8, 14, 12,  0,  1, 10,  6,  9, 11,  5,
         0, 14,  7, 11, 10,  4, 13,  1,  5,  8, 12,  6,  9,  3,  2, 15,
        13,  8, 10,  1,  3, 15,  4,  2, 11,  6,  7, 12,  0,  5, 14,  9,
    ],
    [
        10,  0,  9, 14,  6,  3, 15,  5,  1, 13, 12,  7, 11,  4,  2,  8,
        13,  7,  0,  9,  3,  4,  6, 10,  2,  8,  5, 14, 12, 11, 15,  1,
        13,  6,  4,  9,  8, 15,  3,  0, 11,  1,  2, 12,  5, 10, 14,  7,
         1, 10, 13,  0,  6,  9,  8,  7,  4, 15, 14,  3, 11,  5,  2, 12,
    ],
    [
         7, 13, 14,  3,  0,  6,  9, 10,  1,  2,  8,  5, 11, 12,  4, 15,
        13,  8, 11,  5,  6, 15,  0,  3,  4,  7,  2, 12,  1, 10, 14,  9,
        10,  6,  9,  0, 12, 11,  7, 13, 15,  1,  3, 14,  5,  2,  8,  4,
         3, 15,  0,  6, 10,  1, 13,  8,  9,  4,  5, 11, 12,  7,  2, 14,
    ],
    [
         2, 12,  4,  1,  7, 10, 11,  6,  8,  5,  3, 15, 13,  0, 14,  9,
        14, 11,  2, 12,  4,  7, 13,  1,  5,  0, 15, 10,  3,  9,  8,  6,
         4,  2,  1, 11, 10, 13,  7,  8, 15,  9, 12,  5,  6,  3,  0, 14,
        11,  8, 12,  7,  1, 14,  2, 13,  6, 15,  0,  9, 10,  4,  5,  3,
    ],
    [
        12,  1, 10, 15,  9,  2,  6,  8,  0, 13,  3,  4, 14,  7,  5, 11,
        10, 15,  4,  2,  7, 12,  9,  5,  6,  1, 13, 14,  0, 11,  3,  8,
         9, 14, 15,  5,  2,  8, 12,  3,  7,  0,  4, 10,  1, 13, 11,  6,
         4,  3,  2, 12,  9,  5, 15, 10, 11, 14,  1,  7,  6,  0,  8, 13,
    ],
    [
         4, 11,  2, 14, 15,  0,  8, 13,  3, 12,  9,  7,  5, 10,  6,  1,
        13,  0, 11,  7,  4,  9,  1, 10, 14,  3,  5, 12,  2, 15,  8,  6,
         1,  4, 11, 13, 12,  3,  7, 14, 10, 15,  6,  8,  0,  5,  9,  2,
         6, 11, 13,  8,  1,  4, 10,  7,  9,  5,  0, 15, 14,  2,  3, 12,
    ],
    [
        13,  2,  8,  4,  6, 15, 11,  1, 10,  9,  3, 14,  5,  0, 12,  7,
         1, 15, 13,  8, 10,  3,  7,  4, 12,  5,  6, 11,  0, 14,  9,  2,
         7, 11,  4,  1,  9, 12, 14,  2,  0,  6, 10, 13, 15,  3,  5,  8,
         2,  1, 14,  7,  4, 10,  8, 13, 15, 12,  9,  0,  3,  5,  6, 11,
    ],
];

fn permute(input: u64, in_bits: u32, table: &[u8]) -> u64 {
    let mut out = 0u64;
    for &src in table {
        out = (out << 1) | (input >> (in_bits - src as u32)) & 1;
    }
    out
}

/// The seed DES: identical key schedule, but the IP/FP/E/P permutations
/// run bit-by-bit and the S-boxes are looked up one at a time.
#[derive(Clone)]
struct BaselineDes {
    subkeys: [u64; 16],
}

impl BaselineDes {
    fn new(key: [u8; 8]) -> Self {
        let key64 = u64::from_be_bytes(key);
        let cd = permute(key64, 64, &PC1);
        let mut c = (cd >> 28) as u32 & 0x0FFF_FFFF;
        let mut d = cd as u32 & 0x0FFF_FFFF;
        let mut subkeys = [0u64; 16];
        for (round, &shift) in SHIFTS.iter().enumerate() {
            c = ((c << shift) | (c >> (28 - shift as u32))) & 0x0FFF_FFFF;
            d = ((d << shift) | (d >> (28 - shift as u32))) & 0x0FFF_FFFF;
            let combined = (c as u64) << 28 | d as u64;
            subkeys[round] = permute(combined, 56, &PC2);
        }
        BaselineDes { subkeys }
    }

    fn f(r: u32, subkey: u64) -> u32 {
        let expanded = permute(r as u64, 32, &E) ^ subkey;
        let mut out = 0u32;
        for (i, sbox) in SBOX.iter().enumerate() {
            let six = ((expanded >> (42 - 6 * i)) & 0x3F) as u8;
            let row = ((six & 0x20) >> 4) | (six & 1);
            let col = (six >> 1) & 0x0F;
            out = (out << 4) | u32::from(sbox[(row * 16 + col) as usize]);
        }
        permute(out as u64, 32, &P) as u32
    }

    fn crypt(&self, block: u64, decrypt: bool) -> u64 {
        let ip = permute(block, 64, &IP);
        let mut l = (ip >> 32) as u32;
        let mut r = ip as u32;
        for round in 0..16 {
            let subkey = if decrypt {
                self.subkeys[15 - round]
            } else {
                self.subkeys[round]
            };
            let next_r = l ^ Self::f(r, subkey);
            l = r;
            r = next_r;
        }
        let preoutput = (r as u64) << 32 | l as u64;
        permute(preoutput, 64, &FP)
    }
}

impl BlockCipher64 for BaselineDes {
    fn encrypt_block_u64(&self, block: u64) -> u64 {
        self.crypt(block, false)
    }
    fn decrypt_block_u64(&self, block: u64) -> u64 {
        self.crypt(block, true)
    }
    // No batched overrides: per-block dispatch, as in the seed.
}

struct BaselineTripleDes {
    k1: BaselineDes,
    k2: BaselineDes,
    k3: BaselineDes,
}

impl BaselineTripleDes {
    fn new(key: [u8; 24]) -> Self {
        let mut k = [[0u8; 8]; 3];
        for (i, chunk) in key.chunks_exact(8).enumerate() {
            k[i].copy_from_slice(chunk);
        }
        BaselineTripleDes {
            k1: BaselineDes::new(k[0]),
            k2: BaselineDes::new(k[1]),
            k3: BaselineDes::new(k[2]),
        }
    }
}

impl BlockCipher64 for BaselineTripleDes {
    fn encrypt_block_u64(&self, block: u64) -> u64 {
        self.k3
            .encrypt_block_u64(self.k2.decrypt_block_u64(self.k1.encrypt_block_u64(block)))
    }
    fn decrypt_block_u64(&self, block: u64) -> u64 {
        self.k1
            .decrypt_block_u64(self.k2.encrypt_block_u64(self.k3.decrypt_block_u64(block)))
    }
}

/// Per-block dispatch wrapper: pins the trait's default (one block at a
/// time) methods even though the wrapped cipher has batched overrides —
/// i.e. the seed's dispatch pattern over today's round functions.
struct PerBlock<'c, C: BlockCipher64>(&'c C);

impl<C: BlockCipher64> BlockCipher64 for PerBlock<'_, C> {
    fn encrypt_block_u64(&self, block: u64) -> u64 {
        self.0.encrypt_block_u64(block)
    }
    fn decrypt_block_u64(&self, block: u64) -> u64 {
        self.0.decrypt_block_u64(block)
    }
}

const CIPHER_BUF: usize = 1 << 22; // 4 MiB per pass

fn cipher_buf() -> Vec<u8> {
    (0..CIPHER_BUF)
        .map(|i| (i.wrapping_mul(37) >> 2) as u8)
        .collect()
}

/// One algorithm's cipher scenarios: ECB and CTR over the 4 MiB buffer,
/// CBC decrypt over a 1 MiB ciphertext (3DES per-block CBC is slow enough
/// that 4 MiB per round would dominate the whole run). Metric: MB moved.
fn measure_cipher<B: BlockCipher64, F: BlockCipher64>(
    snap: &mut Snapshot,
    alg: &str,
    rounds: u32,
    base: &B,
    fast: &F,
) {
    let mb = CIPHER_BUF as f64 / (1024.0 * 1024.0);
    let mut buf = cipher_buf();
    let mut ciphers = snap.group("cipher", "MB/s");
    ciphers.measure(&format!("{alg}_ecb"), mb, rounds, |side| match side {
        Side::Base => ecb_encrypt(base, &mut buf),
        Side::Fast => ecb_encrypt(fast, &mut buf),
    });
    ciphers.measure(&format!("{alg}_ctr"), mb, rounds, |side| match side {
        Side::Base => CtrStream::new(base, 0xA5).apply(&mut buf),
        Side::Fast => CtrStream::new(fast, 0xA5).apply(&mut buf),
    });
    let ct = CbcEncryptor::new(fast, 7).encrypt(&buf[..CIPHER_BUF / 4]);
    ciphers.measure(&format!("{alg}_cbc_dec"), mb / 4.0, rounds, |side| {
        let plain = match side {
            Side::Base => CbcEncryptor::new(base, 7).decrypt(&ct),
            Side::Fast => CbcEncryptor::new(fast, 7).decrypt(&ct),
        };
        plain.expect("valid padding");
    });
}

// ---- Baseline 3: the seed's HashMap + eager-MD5 delta generator -----------

/// Verbatim copy of the seed `generate_delta`: per-call `HashMap` of
/// `Vec` candidate lists, literal run in a fresh `Vec`, MD5 computed
/// eagerly on every weak-bucket hit.
fn baseline_generate_delta(signatures: &Signatures, new_data: &[u8]) -> Delta {
    let bs = signatures.block_size;
    let mut by_weak: HashMap<u32, Vec<&BlockSignature>> =
        HashMap::with_capacity(signatures.blocks.len());
    for sig in &signatures.blocks {
        by_weak.entry(sig.weak).or_default().push(sig);
    }
    let full_blocks = signatures.basis_len / bs;
    let tail_len = signatures.basis_len % bs;

    let mut delta = Delta::default();
    let mut literal_run: Vec<u8> = Vec::new();
    let mut pos = 0usize;

    let flush_literals = |delta: &mut Delta, run: &mut Vec<u8>| {
        if !run.is_empty() {
            delta.literal_bytes += run.len();
            delta.ops.push(DeltaOp::Literal(std::mem::take(run)));
        }
    };

    let mut rc: Option<RollingChecksum> = None;
    while pos + bs <= new_data.len() {
        let window = &new_data[pos..pos + bs];
        let weak = match &rc {
            Some(r) => r.value(),
            None => {
                let r = RollingChecksum::new(window);
                let v = r.value();
                rc = Some(r);
                v
            }
        };
        let matched = by_weak.get(&weak).and_then(|cands| {
            let strong = md5(window);
            cands
                .iter()
                .find(|s| (s.index as usize) < full_blocks && s.strong == strong)
                .copied()
        });
        if let Some(sig) = matched {
            flush_literals(&mut delta, &mut literal_run);
            delta.matched_bytes += bs;
            delta.ops.push(DeltaOp::Copy { index: sig.index });
            pos += bs;
            rc = None;
        } else {
            literal_run.push(new_data[pos]);
            if pos + bs < new_data.len() {
                rc.as_mut()
                    .expect("rolling state exists inside the scan")
                    .roll(new_data[pos], new_data[pos + bs]);
            }
            pos += 1;
        }
    }
    let rest = &new_data[pos..];
    'tail: {
        if tail_len > 0 && rest.len() >= tail_len {
            let tail_sig = signatures
                .blocks
                .last()
                .expect("tail_len > 0 implies a final block");
            let (lead, suffix) = rest.split_at(rest.len() - tail_len);
            if weak_checksum(suffix) == tail_sig.weak && md5(suffix) == tail_sig.strong {
                literal_run.extend_from_slice(lead);
                flush_literals(&mut delta, &mut literal_run);
                delta.matched_bytes += tail_len;
                delta.ops.push(DeltaOp::Copy {
                    index: tail_sig.index,
                });
                break 'tail;
            }
        }
        literal_run.extend_from_slice(rest);
        flush_literals(&mut delta, &mut literal_run);
    }
    delta
}

fn pseudo_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        })
        .collect()
}

// ---- The gate -------------------------------------------------------------

/// The speed-pass acceptance rule: at least [`MIN_FAST_GROUPS`] groups
/// hold a best speedup of [`GROUP_TARGET_SPEEDUP`] or more.
fn fast_groups_rule(rows: &[Row]) -> Vec<String> {
    let mut groups: Vec<&str> = rows.iter().map(|r| r.group.as_str()).collect();
    groups.sort_unstable();
    groups.dedup();
    let fast = groups
        .iter()
        .filter(|g| {
            rows.iter()
                .filter(|r| r.group == **g)
                .map(Row::speedup)
                .fold(0.0f64, f64::max)
                >= GROUP_TARGET_SPEEDUP
        })
        .count();
    if fast >= MIN_FAST_GROUPS {
        return Vec::new();
    }
    vec![format!(
        "only {fast} of {} hot-path groups hold a ≥{GROUP_TARGET_SPEEDUP}x speedup (need {MIN_FAST_GROUPS})",
        groups.len()
    )]
}

fn check(baseline: &Baseline, snap: &Snapshot) -> Result<Vec<String>, GateError> {
    let mut failures = gate::check_speedups(baseline, snap, SPEEDUP_CAP, f64::INFINITY);
    failures.extend(fast_groups_rule(&snap.rows));
    Ok(failures)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::from_args(&args, "BENCH_hotpath.json");

    let mut snap = Snapshot::new("hot-path perf snapshot: seed copy (base) vs today's path (fast)");

    // Scheduler: hold model at three queue depths.
    let mut scheduler = snap.group("scheduler", "events/s");
    for (name, depth, events) in [
        ("scheduler_hold_1e2", 100u32, 2_000_000u64),
        ("scheduler_hold_1e4", 10_000, 1_000_000),
        ("scheduler_hold_1e5", 100_000, 500_000),
    ] {
        scheduler.measure(name, events as f64, 4, |side| match side {
            Side::Base => scheduler_heap(depth, events),
            Side::Fast => scheduler_calendar(depth, events),
        });
    }

    // Ciphers. The seed 3DES takes seconds per pass, so it runs 2
    // rounds, not 4.
    let bf = Blowfish::new(b"table3-udr-blowfish");
    measure_cipher(&mut snap, "blowfish", 4, &PerBlock(&bf), &bf);
    let mut key = [0u8; 24];
    for (i, b) in key.iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(37).wrapping_add(11);
    }
    let (base_des, tdes) = (BaselineTripleDes::new(key), TripleDes::new(key));
    measure_cipher(&mut snap, "tdes", 2, &base_des, &tdes);

    // Delta generation: miss-dominated scan (disjoint files) and the
    // realistic scattered-edit sync.
    {
        let basis = pseudo_bytes(1 << 21, 1);
        let target = pseudo_bytes(1 << 22, 2);
        let sigs = compute_signatures(&basis, 2048);
        let mut scratch = DeltaScratch::new();
        let target_mb = target.len() as f64 / (1024.0 * 1024.0);
        let mut delta = snap.group("delta", "MB/s");
        delta.measure("delta_miss_scan", target_mb, 4, |side| {
            let d = match side {
                Side::Base => baseline_generate_delta(&sigs, &target),
                Side::Fast => generate_delta_with(&sigs, &target, &mut scratch),
            };
            assert_eq!(d.literal_bytes, target.len());
        });

        let mut edited = basis.clone();
        for start in (0..edited.len()).step_by(128 * 1024) {
            for b in &mut edited[start..start + 512] {
                *b ^= 0xFF;
            }
        }
        let basis_mb = basis.len() as f64 / (1024.0 * 1024.0);
        delta.measure("delta_scattered_edit", basis_mb, 4, |side| {
            let d = match side {
                Side::Base => baseline_generate_delta(&sigs, &edited),
                Side::Fast => generate_delta_with(&sigs, &edited, &mut scratch),
            };
            assert!(d.matched_bytes > 0);
        });
    }

    cli.finish(&snap, check);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(speedups: &[(&str, &str, f64)]) -> Vec<Row> {
        speedups
            .iter()
            .map(|&(name, group, speedup)| Row::new(name, group, "MB/s", 4.0, speedup, 1.0))
            .collect()
    }

    #[test]
    fn too_few_fast_groups_is_flagged() {
        let two_fast = rows(&[
            ("scheduler_hold_1e4", "scheduler", 1.5),
            ("tdes_ctr", "cipher", 8.0),
            ("delta_miss_scan", "delta", 2.5),
        ]);
        assert!(fast_groups_rule(&two_fast).is_empty());
        // One group alone at 2x or more: the 2-of-3 rule trips.
        let one_fast = rows(&[
            ("scheduler_hold_1e4", "scheduler", 1.5),
            ("tdes_ctr", "cipher", 1.9),
            ("delta_miss_scan", "delta", 2.5),
        ]);
        let failures = fast_groups_rule(&one_fast);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("only 1 of 3 hot-path groups")),
            "{failures:?}"
        );
    }

    #[test]
    fn checked_in_baseline_passes_its_own_check() {
        let base = Baseline::parse(include_str!("../../../../BENCH_hotpath.json")).expect("parses");
        assert_eq!(check(&base, &base.replay()), Ok(vec![]));
    }

    #[test]
    fn baseline_des_agrees_with_table_des() {
        // The copied seed DES and the table-driven DES must be the same
        // cipher, or the cipher speedups compare apples to oranges.
        let key = *b"OSDCkey!";
        let a = BaselineDes::new(key);
        let b = osdc_crypto::Des::new(key);
        let mut x = 0x0123_4567_89AB_CDEFu64;
        for _ in 0..64 {
            assert_eq!(a.encrypt_block_u64(x), b.encrypt_block_u64(x));
            assert_eq!(a.decrypt_block_u64(x), b.decrypt_block_u64(x));
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
    }

    #[test]
    fn baseline_delta_agrees_with_optimized() {
        let basis = pseudo_bytes(200_000, 7);
        let mut target = basis.clone();
        for b in &mut target[50_000..51_000] {
            *b ^= 0x55;
        }
        let sigs = compute_signatures(&basis, 2048);
        let mut scratch = DeltaScratch::new();
        let fast = generate_delta_with(&sigs, &target, &mut scratch);
        let slow = baseline_generate_delta(&sigs, &target);
        assert_eq!(fast.ops, slow.ops);
        assert_eq!(fast.literal_bytes, slow.literal_bytes);
        assert_eq!(fast.matched_bytes, slow.matched_bytes);
    }
}
