//! Summary statistics, memory and thread counters, and the host
//! fingerprint.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A tail percentile is only reported with at least this many samples
/// beyond it.
const TAIL_MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0];

/// Value at percentile `p` (0..=100) of an ascending, non-empty slice,
/// linearly interpolated between closest ranks (the definition Python's
/// `statistics.quantiles(method="inclusive")` uses).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = (rank.ceil() as usize).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Number of samples strictly beyond the rank percentile `p` reads.
fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * (n.saturating_sub(1)) as f64).ceil() as usize;
    n.saturating_sub(rank + 1)
}

/// The sorted samples of one timing series.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    /// Summarise `samples` (any order). `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary { sorted })
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// The value at percentile `p`.
    pub fn at(&self, p: f64) -> f64 {
        percentile(&self.sorted, p)
    }

    /// The highest percentile of [`TAIL_LADDER`] with at least
    /// [`TAIL_MIN_BEYOND`] samples beyond it, and its value.
    pub fn tail(&self) -> Option<(f64, f64)> {
        TAIL_LADDER
            .into_iter()
            .find(|&p| beyond(self.count(), p) >= TAIL_MIN_BEYOND)
            .map(|p| (p, self.at(p)))
    }

    /// The median.
    pub fn p50(&self) -> f64 {
        percentile(&self.sorted, 50.0)
    }
}

/// Print a series' tail on stderr. Tails are not gated metrics: on a
/// shared host their run-to-run spread exceeds any bound a regression check
/// could use.
pub fn report_tail(what: &str, summary: &Summary) {
    match summary.tail() {
        Some((p, value)) => eprintln!(
            "pgbench: {what} p{p} {value:.3} ms over {} samples",
            summary.count()
        ),
        None => eprintln!(
            "pgbench: {what}: {} samples are too few for a tail",
            summary.count()
        ),
    }
}

/// Median of `samples`; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    Summary::of(samples).map(|s| s.p50())
}

/// Events per second: `[0, span_s)` is cut into equal windows about
/// `window_s` long (at least one), and the rate is the mean over the middle
/// half of the windows, ranked by how many events fall in each. A stall
/// that hits a few windows moves this less than it moves a total count.
pub fn windowed_rate(times_s: &[f64], span_s: f64, window_s: f64) -> f64 {
    let windows = ((span_s / window_s).round() as usize).max(1);
    let width = span_s / windows as f64;
    let mut counts = vec![0.0; windows];
    for &t in times_s {
        if let Some(count) = counts.get_mut((t / width) as usize) {
            *count += 1.0;
        }
    }
    counts.sort_by(f64::total_cmp);
    let middle = &counts[windows / 4..windows - windows / 4];
    middle.iter().sum::<f64>() / middle.len() as f64 / width
}

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn note_alloc(size: usize) {
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    if live > PEAK_BYTES.load(Ordering::Relaxed) {
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

/// The system allocator, counting live heap bytes and their peak. Unlike
/// the resident-set peak, which moves with how the allocator's per-thread
/// arenas happen to fill, the peak of live bytes repeats from run to run.
/// The counters are statistics that publish no other data, hence relaxed.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters only read
// sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                note_alloc(new_size - layout.size());
            } else {
                LIVE_BYTES.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        new
    }
}

/// Peak live heap in MiB since the last [`reset_peak_heap`] (or since the
/// process started), when [`CountingAlloc`] is the global allocator.
pub fn peak_heap_mb() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Restart the peak at the current live heap, so [`peak_heap_mb`] covers
/// only what runs from now on, on top of what is live now.
pub fn reset_peak_heap() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// One numeric field (`VmHWM`, `Threads`, ...) of `/proc/self/status`, in
/// the unit the kernel prints (kB for memory fields).
pub fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    proc_status("VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Run `work`; when `sample` is set, a sampler thread reads this process's
/// thread count every millisecond meanwhile. Returns the highest count seen,
/// not counting the sampler (0 when not sampling).
pub fn with_thread_sampler<T>(sample: bool, work: impl FnOnce() -> T) -> (T, u64) {
    if !sample {
        return (work(), 0);
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut max = 0;
            while !stop.load(Ordering::SeqCst) {
                max = max.max(proc_status("Threads").unwrap_or(0));
                std::thread::sleep(Duration::from_millis(1));
            }
            max
        });
        let out = work();
        stop.store(true, Ordering::SeqCst);
        let max = sampler.join().expect("the thread sampler never panics");
        (out, max.saturating_sub(1))
    })
}

/// Milliseconds the fastest of five runs of a fixed single-threaded integer
/// loop takes: the host's speed at the time of the call. A shared host's
/// speed drifts by tens of percent over minutes, and this shows how much a
/// difference between two runs owes to the host rather than to the code.
pub fn reference_loop_ms() -> f64 {
    (0..5)
        .map(|_| {
            let started = Instant::now();
            let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
            for _ in 0..10_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            started.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Where and with what a result was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
}

impl Host {
    /// Probe the current host. Never fails: unknown fields read `unknown`.
    pub fn probe() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|rest| rest.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            rustc: command_line("rustc", &["-V"]),
            git_rev: command_line("git", &["rev-parse", "HEAD"]),
        }
    }
}

impl std::fmt::Display for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nproc={} cpu=\"{}\" rustc=\"{}\" git={}",
            self.nproc, self.cpu_model, self.rustc, self.git_rev
        )
    }
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8(out.stdout)
                .ok()?
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_like_python_inclusive_quantiles() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.p50(), 3.0);
        assert_eq!(s.at(25.0), 2.0);
        assert_eq!(s.at(75.0), 4.0);
        assert_eq!(Summary::of(&[1.0, 2.0]).unwrap().p50(), 1.5);
        assert_eq!(Summary::of(&[7.0]).unwrap().at(99.0), 7.0);
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn windowed_rate_drops_the_outer_windows() {
        // 10 events/s for 4 s, with a stalled third second and a burst.
        let times: Vec<f64> = [0.0, 1.0, 3.0]
            .into_iter()
            .flat_map(|start| (0..10).map(move |i| start + i as f64 / 10.0))
            .chain([2.5, 3.95, 3.96, 3.97])
            .collect();
        assert_eq!(windowed_rate(&times, 4.0, 1.0), 10.0);
        assert_eq!(
            windowed_rate(&times, 0.5, 1.0),
            10.0,
            "one half-second window"
        );
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let samples: Vec<f64> = (0..1100).map(f64::from).collect();
        assert_eq!(Summary::of(&samples).unwrap().tail().unwrap().0, 99.0);
        assert_eq!(
            Summary::of(&samples[..1000]).unwrap().tail().unwrap().0,
            98.0
        );
        assert_eq!(Summary::of(&samples[..20]).unwrap().tail(), None);
    }

    #[test]
    fn beyond_counts_samples_strictly_past_the_rank() {
        assert_eq!(beyond(1000, 99.0), 9);
        assert_eq!(beyond(1100, 99.0), 10);
        assert_eq!(beyond(10, 50.0), 4);
        assert_eq!(beyond(0, 50.0), 0);
    }

    #[test]
    fn the_counting_allocator_tracks_the_live_peak_until_a_reset() {
        let block = vec![1u8; 64 << 20];
        let with_block = peak_heap_mb();
        assert!(with_block >= 64.0);
        drop(block);
        assert!(LIVE_BYTES.load(Ordering::Relaxed) < PEAK_BYTES.load(Ordering::Relaxed));
        reset_peak_heap();
        // Other tests allocate meanwhile, but far less than the freed block.
        assert!(peak_heap_mb() < with_block - 32.0, "{}", peak_heap_mb());
    }

    #[test]
    fn proc_status_reads_this_process() {
        assert!(proc_status("Threads").unwrap() >= 1);
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert_eq!(proc_status("NoSuchField"), None);
    }

    #[test]
    fn thread_sampler_sees_a_spawned_thread() {
        let (_, max) = with_thread_sampler(true, || {
            std::thread::scope(|scope| {
                scope.spawn(|| std::thread::sleep(Duration::from_millis(30)));
            });
        });
        assert!(max >= 2, "main and the spawned thread, got {max}");
        assert_eq!(with_thread_sampler(false, || 7), (7, 0));
    }

    #[test]
    fn host_probe_never_fails() {
        let host = Host::probe();
        assert!(host.nproc >= 1);
        assert!(!host.cpu_model.is_empty());
        assert!(host.to_string().contains("nproc="));
        let reference = reference_loop_ms();
        assert!(reference > 0.0 && reference.is_finite(), "{reference}");
    }
}
