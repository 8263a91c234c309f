//! A malformed frame must fail to decode in bounded memory.
//!
//! A net `Deliver` or service frame carries assignments. Here a length
//! prefix claims about 10^6 values and the first one has a bad tag:
//! decoding must return the typed error having reserved at most
//! `VEC_RESERVE_BYTES`, not room for every claimed value. Its own test
//! binary, because the counting allocator sees every thread's heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use discsp_core::{Assignment, Wire, WireError, VEC_RESERVE_BYTES};

/// Forwards to the system allocator, counting live heap bytes and their
/// peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

#[global_allocator]
static GLOBAL: Counting = Counting;

// SAFETY: both methods forward to `System` with the caller's layout and
// pointer unchanged; the counters are statistics and never influence
// what is allocated. `realloc` and `alloc_zeroed` keep their default
// implementations, which go through these two.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which `System.alloc` shares.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence by
        // `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

#[test]
fn an_assignment_claiming_a_million_values_fails_in_bounded_memory() {
    const CLAIMED: u32 = 1_000_000;
    // One byte per claimed value keeps `len_prefix` from refusing it.
    let mut frame = CLAIMED.to_bytes();
    frame.resize(4 + CLAIMED as usize, 0);
    frame[4] = 0xEE; // neither `None` (0) nor `Some` (1)

    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let decoded = Assignment::from_bytes(&frame);
    let peak = PEAK.load(Ordering::SeqCst) - base;

    assert_eq!(
        decoded,
        Err(WireError::BadTag {
            context: "Option",
            tag: 0xEE,
        })
    );
    assert!(
        peak <= VEC_RESERVE_BYTES,
        "decoding reserved {peak} bytes for an assignment whose first value is bad \
         (budget {VEC_RESERVE_BYTES})"
    );
}
