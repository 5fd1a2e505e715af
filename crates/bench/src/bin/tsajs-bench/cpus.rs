//! Moves the measuring thread between the CPUs this process may use.
//!
//! On a host shared with other machines, each vCPU runs for stretches of
//! 3 to 40 s at one of two speeds: in one 40 s sample, two copies of
//! `paper_solve`, one pinned to each vCPU, ran at 1.0–1.1 and at 1.8–1.9
//! times their fastest solve, switching independently. A thread the
//! kernel leaves on one vCPU can spend a whole run on the slow side.
//! [`crate::gauge`] corrects each operation for the speed it ran at, but
//! not exactly the same on every side of the host; moving between the
//! CPUs gives every run a similar mix of them. Over ten alternated pairs
//! of `paper_solve` runs, corrected by an earlier form of the gauge, the
//! median spread by 2.5 % with moves and by 4.8 % without.

use std::time::{Duration, Instant};

/// A `cpu_set_t` as glibc and musl define it: 1 024 bits.
type Mask = [u64; 16];
const MASK_CPUS: usize = 1024;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut Mask) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const Mask) -> i32;
}

/// The calling thread's CPU mask (pid 0 is the calling thread).
fn get() -> Option<Mask> {
    let mut mask: Mask = [0; 16];
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer and the size
    // passed is its size.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), &mut mask) } == 0;
    ok.then_some(mask)
}

/// Restricts the calling thread to `mask`; false when the kernel refused.
fn set(mask: &Mask) -> bool {
    // SAFETY: `mask` is a readable `cpu_set_t`-sized buffer and the size
    // passed is its size.
    unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask) == 0 }
}

fn only(cpu: usize) -> Mask {
    let mut mask: Mask = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    mask
}

/// Pins the calling thread to each allowed CPU in turn, moving on at an
/// operation boundary once [`Hopper::DWELL`] has passed, and restores the
/// thread's own mask when dropped. With fewer than two allowed CPUs, or
/// where the kernel refuses, it does nothing.
pub struct Hopper {
    original: Option<Mask>,
    cpus: Vec<usize>,
    next: usize,
    since: Instant,
}

impl Hopper {
    /// Long enough that moving (and refilling the private caches) costs
    /// nothing measurable, short against the host's slow stretches.
    pub const DWELL: Duration = Duration::from_secs(1);

    /// Starts on the first allowed CPU.
    pub fn new() -> Self {
        let original = get();
        let cpus = original.map_or_else(Vec::new, |m| {
            (0..MASK_CPUS)
                .filter(|&c| m[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        });
        let mut hopper = Self {
            original,
            cpus,
            next: 0,
            since: Instant::now(),
        };
        hopper.hop();
        hopper
    }

    /// Call between operations: moves to the next CPU once the dwell time
    /// on this one has passed.
    pub fn tick(&mut self) {
        if self.since.elapsed() >= Self::DWELL {
            self.hop();
        }
    }

    /// Moves to the next CPU now.
    pub fn hop(&mut self) {
        if self.cpus.len() >= 2 {
            set(&only(self.cpus[self.next % self.cpus.len()]));
            self.next += 1;
        }
        self.since = Instant::now();
    }
}

impl Drop for Hopper {
    fn drop(&mut self) {
        if let (Some(mask), true) = (&self.original, self.cpus.len() >= 2) {
            set(mask);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_hopper_visits_every_allowed_cpu_and_restores_the_mask() {
        let before = get().expect("sched_getaffinity works on Linux");
        let allowed = before.iter().map(|w| w.count_ones()).sum::<u32>() as usize;
        {
            let mut hopper = Hopper::new();
            for _ in 0..allowed {
                if allowed >= 2 {
                    let now = get().unwrap();
                    assert_eq!(now.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
                    assert_eq!(now, only(hopper.cpus[(hopper.next - 1) % allowed]));
                }
                hopper.since -= Hopper::DWELL;
                hopper.tick();
            }
            assert!(allowed < 2 || hopper.next > allowed);
        }
        assert_eq!(get().unwrap(), before);
    }
}
