//! How fast the host runs right now, from a fixed reference kernel.
//!
//! On a shared physical host the neighbours of this machine's vCPUs
//! change its speed by up to 2× over minutes: they share its cores,
//! caches and power budget, and no clock the guest can read leaves that
//! out. So every worker runs [`probe`] before each job, outside the
//! job's clock, and the timed metrics are scaled by how much slower the
//! probe ran than its reference time: they read as CPU time on this
//! host at its idle speed. The kernel is the benchmark's own code (no
//! program code), allocates nothing and stays in the first-level cache,
//! so a change to the program cannot change its speed.

use crate::cpu;

/// The probe's thread CPU time when the host is otherwise idle (a
/// 2-vCPU Xeon virtual machine at 2.0 GHz nominal): the speed the timed
/// metrics are scaled to.
pub const PROBE_REF_NS: f64 = 24_000.0;

const HASH_WORDS: usize = 2048;
const SORT_LEN: usize = 1024;
const TABLE_SLOTS: usize = 2048;

/// Run the reference kernel twice and return the second run's thread
/// CPU time in ns. The first run brings the kernel's 32 KiB of stack
/// into cache, so what the preceding job left there does not matter.
pub fn probe() -> u64 {
    kernel();
    let t0 = cpu::thread_ns();
    kernel();
    cpu::thread_ns() - t0
}

/// The reference kernel. It mixes the kinds of work the workloads do:
/// add-rotate-xor rounds as in the ciphers and digests, a branchy sort,
/// and hash-table probes.
fn kernel() {
    let mut words = [0u32; HASH_WORDS];
    let mut s = [0x6170_7865u32, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];
    for pass in 0..4u32 {
        for chunk in words.chunks_exact_mut(4) {
            for (w, x) in chunk.iter_mut().zip(s.iter_mut()) {
                *x = x.wrapping_add(*w ^ pass);
            }
            // One ChaCha quarter round.
            s[0] = s[0].wrapping_add(s[1]);
            s[3] = (s[3] ^ s[0]).rotate_left(16);
            s[2] = s[2].wrapping_add(s[3]);
            s[1] = (s[1] ^ s[2]).rotate_left(12);
            s[0] = s[0].wrapping_add(s[1]);
            s[3] = (s[3] ^ s[0]).rotate_left(8);
            s[2] = s[2].wrapping_add(s[3]);
            s[1] = (s[1] ^ s[2]).rotate_left(7);
            chunk.copy_from_slice(&s);
        }
    }
    let mut x = u64::from(s[0]) << 32 | u64::from(s[1]) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut keys = [0u64; SORT_LEN];
    for k in keys.iter_mut() {
        *k = next();
    }
    keys.sort_unstable();
    let mut table = [0u64; TABLE_SLOTS];
    let mask = TABLE_SLOTS - 1;
    for &k in keys.iter().step_by(2) {
        let mut i = (k >> 40) as usize & mask;
        while table[i] != 0 && table[i] != k {
            i = (i + 1) & mask;
        }
        table[i] = k;
    }
    let mut hits = 0u32;
    for _ in 0..SORT_LEN {
        let k = next();
        let mut i = (k >> 40) as usize & mask;
        while table[i] != 0 {
            if table[i] == k {
                hits += 1;
                break;
            }
            i = (i + 1) & mask;
        }
    }
    std::hint::black_box((words, table, hits));
}

/// How many times slower than its reference the probe ran, over `n`
/// probes that took `total_ns` in all.
pub fn slowdown(total_ns: u64, n: usize) -> f64 {
    total_ns as f64 / (n as f64 * PROBE_REF_NS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_probe_time_over_reference() {
        assert!(probe() > 0);
        let total = (3.0 * PROBE_REF_NS) as u64;
        assert!((slowdown(total, 2) - 1.5).abs() < 1e-9);
    }
}
