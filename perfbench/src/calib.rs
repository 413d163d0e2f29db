//! The host calibration unit: a fixed piece of std-only work whose wall
//! time measures how fast the host runs *right now*.
//!
//! The benchmark runs it on the same thread immediately before every
//! timed op and scales the op's wall time by
//! `REF_NOMINAL_MS / calibration_ms`. When the host as a whole slows
//! down, both times grow together and the ratio stays put; when the
//! program under test changes, only the op time moves.
//!
//! One call runs eight independent multiply–xorshift hash lanes, fills
//! and probes a hash table, sorts a fixed key array, and chases pointers
//! through a fixed single-cycle permutation. The mix is chosen by what
//! tracks the host's slow phases: on the reference host (a 2-vCPU VM)
//! a compile slows ~1.6× there, independent hash lanes ~1.7×, hash-table
//! work ~1.5×, sorting ~1.4×, and a dependent arithmetic chain not at all
//! (see NOTES.md); the mix as a whole slows like a compile. Every buffer
//! is allocated once in [`Calibration::new`]; a call allocates nothing.
//! Its checksum is asserted on every call, so the optimizer cannot drop
//! any of the work.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::Instant;

/// Nominal calibration time: a normalized op time reads as the op's wall
/// time on a host where one calibration call takes exactly this long.
/// Changing it rescales every timing metric, so only a change to the
/// benchmark itself may touch it.
pub const REF_NOMINAL_MS: f64 = 1.0;

/// Checksum of one calibration call. Fixed by the inputs below; pinned
/// by a test so a change to the unit cannot slip through unnoticed.
pub const CHECKSUM: u64 = 0xe9df_52f7_a805_d905;

const MIX_LANES: usize = 8;
const MIX_STEPS: u64 = 160_000;
const SORT_KEYS: usize = 8 << 10;
const MAP_KEYS: usize = 4 << 10;
const MAP_ROUNDS: usize = 3;
const CHASE_SLOTS: usize = 16 << 10;
const CHASE_STEPS: usize = 8 << 10;

/// A hash table with a fixed hasher, so its layout (and so its cost) is
/// the same in every process.
type FixedMap = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

/// splitmix64: the fixed input generator (and the benchmark's seeded RNG).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub struct Calibration {
    keys: Vec<u64>,
    scratch: Vec<u64>,
    map: FixedMap,
    next: Vec<u32>,
}

impl Calibration {
    pub fn new() -> Self {
        let mut st = 0x00c0_ffee_u64;
        let keys: Vec<u64> = (0..SORT_KEYS).map(|_| splitmix64(&mut st)).collect();
        // Sattolo's shuffle: a single cycle through every slot, so the
        // chase visits the whole array in an order the prefetcher cannot
        // predict.
        let mut next: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        for i in (1..CHASE_SLOTS).rev() {
            let j = (splitmix64(&mut st) % i as u64) as usize;
            next.swap(i, j);
        }
        Calibration {
            scratch: vec![0; keys.len()],
            keys,
            // Twice the keys: inserting never grows (so never allocates).
            map: FixedMap::with_capacity_and_hasher(2 * MAP_KEYS, Default::default()),
            next,
        }
    }

    /// The work itself; returns its checksum.
    fn work(&mut self) -> u64 {
        // Independent lanes keep every execution port busy, which is
        // what a co-scheduled neighbour takes away.
        let mut lanes: [u64; MIX_LANES] = std::array::from_fn(|j| self.keys[j]);
        for i in 0..MIX_STEPS {
            for x in &mut lanes {
                *x = (*x ^ (*x >> 7))
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(i);
            }
        }
        let mut h = lanes.iter().fold(0, |a, x| a ^ x);
        for _ in 0..MAP_ROUNDS {
            self.map.clear();
            for (i, &k) in self.keys[..MAP_KEYS].iter().enumerate() {
                self.map.insert(k, i as u64);
            }
            for &k in self.keys[..MAP_KEYS].iter().rev() {
                h = h.wrapping_add(self.map[&k]);
            }
        }
        self.scratch.copy_from_slice(&self.keys);
        self.scratch.sort_unstable();
        h ^= self.scratch[997];
        let mut p = 0u32;
        for _ in 0..CHASE_STEPS {
            p = self.next[p as usize];
        }
        h ^ p as u64
    }

    /// Run the unit once and return its wall time in ms.
    pub fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        let sum = self.work();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(sum, CHECKSUM, "calibration unit checksum changed");
        ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_pinned_and_repeats() {
        let mut c = Calibration::new();
        assert_eq!(c.work(), CHECKSUM);
        // Sorting works on a copy, so a second call sees the same input.
        assert_eq!(c.work(), CHECKSUM);
        assert!(c.run() > 0.0);
    }

    #[test]
    fn a_call_allocates_nothing() {
        let mut c = Calibration::new();
        c.run();
        let before = counting::allocations();
        for _ in 0..3 {
            c.run();
        }
        assert_eq!(counting::allocations(), before);
    }

    #[test]
    fn chase_is_one_cycle() {
        let c = Calibration::new();
        let mut p = 0u32;
        for step in 1..=CHASE_SLOTS {
            p = c.next[p as usize];
            if p == 0 {
                assert_eq!(step, CHASE_SLOTS);
            }
        }
        assert_eq!(p, 0);
    }

    /// A test-only global allocator that counts allocations per thread.
    mod counting {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            static ALLOCS: Cell<u64> = const { Cell::new(0) };
        }

        pub fn allocations() -> u64 {
            ALLOCS.with(Cell::get)
        }

        struct Counting;

        // SAFETY: every call forwards to `System` with the caller's own
        // arguments, so `System`'s guarantees carry over unchanged; the
        // const thread-local counter never allocates itself.
        unsafe impl GlobalAlloc for Counting {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                ALLOCS.with(|c| c.set(c.get() + 1));
                // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
                unsafe { System.alloc(layout) }
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
                unsafe { System.dealloc(ptr, layout) }
            }
        }

        #[global_allocator]
        static GLOBAL: Counting = Counting;
    }
}
