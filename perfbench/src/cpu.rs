//! CPU clocks: the time a thread or the process actually ran.
//!
//! On a small shared host a run's wall clock also counts the time the
//! kernel gave to other processes and, in a virtual machine, the time
//! the hypervisor gave the vCPU to other guests (steal). The timed
//! metrics read these clocks instead, so they measure the program
//! rather than its neighbours. Every job runs on one thread and spawns
//! none, so a job's thread CPU time is all the host time it used.

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench reads the Linux per-thread and per-process CPU clocks");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU nanoseconds the calling thread has run since it started.
pub fn thread_ns() -> u64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU nanoseconds all threads of this process have run.
pub fn process_ns() -> u64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_clock_counts_work_not_sleep() {
        let t0 = thread_ns();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = thread_ns() - t0;
        let t1 = thread_ns();
        let mut x = 0u64;
        while thread_ns() - t1 < 20_000_000 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(slept < 10_000_000, "sleep counted {slept} ns");
        assert!(process_ns() >= thread_ns());
    }
}
