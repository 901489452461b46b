//! Confines the calling thread, and every thread it goes on to spawn,
//! to one CPU.
//!
//! Why: on a 2-vCPU guest the replay pool's rep time is bimodal. With
//! coordinator and workers on one CPU a hand-off is a local context
//! switch; across CPUs it is an inter-processor interrupt the
//! hypervisor has to deliver, and the guest's scheduler flips between
//! the two placements for minutes at a time (`sparse_2shard`: ≈48 ms
//! on one CPU, ≈70 or ≈140 ms on two, same binary, same input). No
//! statistic over a 20 s window repairs that; taking the choice away
//! from the scheduler does. What the end-to-end runs measure is
//! therefore the engine's CPU work per frame, hand-offs included, not
//! its parallel speed-up, which `harness.free_cpus_speedup` reports
//! beside it from a few unconfined reps.
//!
//! `std` has no affinity call; the two libc functions below are in the
//! C library `std` already links on Linux. Elsewhere this is a no-op.

/// glibc's `cpu_set_t`: 1024 CPUs.
const WORDS: usize = 16;

/// A set of CPUs a thread may run on.
#[derive(Clone, Copy)]
pub struct CpuSet([u64; WORDS]);

#[cfg(target_os = "linux")]
mod sys {
    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

/// The CPUs the calling thread may run on now.
#[cfg(target_os = "linux")]
#[must_use]
pub fn allowed() -> Option<CpuSet> {
    let mut set = CpuSet([0; WORDS]);
    // SAFETY: pid 0 is the calling thread; the pointer is to `WORDS`
    // writable u64s and the size passed is exactly their size.
    let rc = unsafe { sys::sched_getaffinity(0, size_of_val(&set.0), set.0.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

/// Lets the calling thread (and threads it spawns from now on) run on
/// `set` only. False if the kernel refused.
#[cfg(target_os = "linux")]
pub fn confine(set: &CpuSet) -> bool {
    // SAFETY: pid 0 is the calling thread; the pointer is to `WORDS`
    // readable u64s and the size passed is exactly their size.
    unsafe { sys::sched_setaffinity(0, size_of_val(&set.0), set.0.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
#[must_use]
pub fn allowed() -> Option<CpuSet> {
    None
}

#[cfg(not(target_os = "linux"))]
pub fn confine(_: &CpuSet) -> bool {
    false
}

impl CpuSet {
    /// The lowest-numbered CPU of the set, alone.
    #[must_use]
    pub fn first(&self) -> Option<(usize, CpuSet)> {
        let word = self.0.iter().position(|w| *w != 0)?;
        let bit = self.0[word].trailing_zeros();
        let mut one = [0; WORDS];
        one[word] = 1 << bit;
        Some((word * 64 + bit as usize, CpuSet(one)))
    }

    #[must_use]
    pub fn count(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }
}

/// Confines the calling thread to the first CPU it is allowed on.
/// Returns that CPU and the set it was allowed before, or `None` where
/// affinity is not available (the run then goes ahead unconfined).
pub fn confine_to_first() -> Option<(usize, CpuSet)> {
    let before = allowed()?;
    let (cpu, one) = before.first()?;
    confine(&one).then_some((cpu, before))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_of_a_set() {
        let mut words = [0u64; WORDS];
        words[1] = 0b1010_0000;
        let (cpu, one) = CpuSet(words).first().unwrap();
        assert_eq!(cpu, 64 + 5);
        assert_eq!(one.count(), 1);
        assert_eq!(one.first().unwrap().0, cpu);
        assert!(CpuSet([0; WORDS]).first().is_none());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn confining_a_thread_confines_its_children() {
        // On a thread of its own: the test harness's other threads
        // keep their affinity.
        std::thread::spawn(|| {
            let (cpu, before) = confine_to_first().expect("Linux has affinity");
            assert!(before.count() >= 1);
            let child = std::thread::spawn(allowed).join().unwrap().unwrap();
            assert_eq!(child.count(), 1);
            assert_eq!(child.first().unwrap().0, cpu);
            assert!(confine(&before));
            assert_eq!(allowed().unwrap().count(), before.count());
        })
        .join()
        .unwrap();
    }
}
