//! The process CPU clock, readers for the kernel's per-thread accounting
//! in `/proc`, a background sampler for peak resident memory, and a
//! counting global allocator for peak heap. Linux on 64-bit targets.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How often the memory sampler reads the resident set size.
const RSS_SAMPLE_EVERY: Duration = Duration::from_millis(20);

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time of the whole process (every thread, live or exited), in
/// nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call's
    // duration, and the clock id is a constant the kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Current resident set size in KiB (`VmRSS`).
pub fn rss_kb() -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmRSS line")
}

/// The calling thread's scheduler accounting: nanoseconds on a CPU and
/// nanoseconds spent runnable but waiting for one
/// (`/proc/thread-self/schedstat`).
pub fn thread_schedstat() -> (u64, u64) {
    let text = fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut it = text
        .split_whitespace()
        .map(|v| v.parse::<u64>().unwrap_or(0));
    (it.next().unwrap_or(0), it.next().unwrap_or(0))
}

/// Samples the resident set size in the background and keeps the peak.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<u64>,
}

impl RssSampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::spawn(move || {
            let mut peak = rss_kb();
            while !flag.load(Ordering::Relaxed) {
                thread::sleep(RSS_SAMPLE_EVERY);
                peak = peak.max(rss_kb());
            }
            peak
        });
        Self { stop, handle }
    }

    /// Stop sampling and return the peak seen, including a last sample.
    pub fn finish(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        let peak = self.handle.join().expect("rss sampler thread panicked");
        peak.max(rss_kb())
    }
}

/// The global allocator, counting live heap bytes and their peak so a
/// run can report the heap its timed phase grew by. Pure bookkeeping
/// around the system allocator: two relaxed atomic updates per call.
pub struct CountingAlloc;

static HEAP_LIVE: AtomicUsize = AtomicUsize::new(0);
static HEAP_PEAK: AtomicUsize = AtomicUsize::new(0);

fn heap_grew(by: usize) {
    let live = HEAP_LIVE.fetch_add(by, Ordering::Relaxed) + by;
    HEAP_PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only observe
// sizes and never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract is passed on as is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            heap_grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            heap_grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`, since
        // every allocation of this allocator is made by `System`.
        unsafe { System.dealloc(ptr, layout) };
        HEAP_LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                heap_grew(new_size - layout.size());
            } else {
                HEAP_LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        new
    }
}

/// Live heap bytes now.
pub fn heap_live() -> usize {
    HEAP_LIVE.load(Ordering::Relaxed)
}

/// Restart peak tracking from the current live heap.
pub fn reset_heap_peak() {
    HEAP_PEAK.store(HEAP_LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Highest live heap since the last [`reset_heap_peak`].
pub fn heap_peak() -> usize {
    HEAP_PEAK.load(Ordering::Relaxed)
}
