//! A malformed frame must fail to decode in bounded memory.
//!
//! A net `Final` frame carries its trace as a `Vec<TraceEvent>`. Here a
//! length prefix claims about 10^6 events and the first event has a bad
//! tag: decoding must return the typed error having reserved at most
//! `VEC_RESERVE_BYTES`, not room for every claimed event. Its own test
//! binary, because the counting allocator sees every thread's heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use discsp_core::{Wire, WireError, VEC_RESERVE_BYTES};
use discsp_trace::TraceEvent;

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
fn a_huge_claimed_length_with_a_bad_first_element_fails_in_bounded_memory() {
    const CLAIMED: u32 = 1_000_000;
    // The prefix must not exceed the bytes left, or `len_prefix` rejects
    // it before any allocation: one byte per claimed element.
    let mut frame = CLAIMED.to_bytes();
    frame.resize(4 + CLAIMED as usize, 0);
    frame[4] = 0xEE; // no TraceEvent has this tag

    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let decoded = Vec::<TraceEvent>::from_bytes(&frame);
    let peak = PEAK.load(Ordering::SeqCst) - base;

    assert_eq!(
        decoded,
        Err(WireError::BadTag {
            context: "TraceEvent",
            tag: 0xEE,
        })
    );
    assert!(
        peak <= VEC_RESERVE_BYTES,
        "decoding reserved {peak} bytes for a frame whose first element is bad \
         (budget {VEC_RESERVE_BYTES}; the claimed length would need {})",
        CLAIMED as usize * std::mem::size_of::<TraceEvent>()
    );
}
