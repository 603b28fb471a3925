//! The benchmark's clocks.
//!
//! The traced runs need a cheap clock for their spans. A span is two
//! clock reads around one call into the simulator, made millions of times
//! per run, so the read itself must be cheap: on x86_64 it is the
//! time-stamp counter (about a quarter of the cost of `Instant::now` on a
//! virtual machine), converted to nanoseconds by a calibration against
//! `Instant` over the whole traced run.
//!
//! The untraced runs time pieces of tens of milliseconds and more, in
//! reference seconds ([`RefClock`]), so that runs made while the host is
//! fast and runs made while it is slow can be compared.

use std::hint::black_box;
use std::time::Instant;

/// Reads the clock, in ticks.
#[inline(always)]
pub fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: RDTSC reads a counter register; it has no memory effects
    // and no preconditions, and every x86_64 processor implements it.
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Converts ticks to nanoseconds by timing a stretch of the run with both
/// clocks.
pub struct Calibration {
    start: Instant,
    start_ticks: u64,
}

impl Calibration {
    pub fn start() -> Self {
        Calibration { start: Instant::now(), start_ticks: ticks() }
    }

    /// Nanoseconds per tick over the stretch since [`Calibration::start`].
    pub fn ns_per_tick(&self) -> f64 {
        let ticks = ticks().saturating_sub(self.start_ticks).max(1);
        self.start.elapsed().as_nanos() as f64 / ticks as f64
    }
}

/// CPU time of this process, in seconds: host time the simulator ran,
/// without time the host gave to other tasks or other virtual machines
/// (steal time).
#[cfg(target_os = "linux")]
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(not(target_os = "linux"))]
pub fn cpu_seconds() -> f64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Host time of the untraced runs, in reference seconds.
///
/// The host's speed changes by a factor of two and more from one period
/// to the next (other virtual machines share its cores), so raw seconds of
/// two runs of the same code are not comparable. Each timed piece of work
/// is bracketed by runs of a fixed reference kernel, and its CPU time is
/// divided by how much slower than on an unloaded host the kernel ran
/// around it, raised to the work's elasticity `beta`:
///
/// `reference s = piece CPU s / (mean kernel CPU s / KERNEL_S) ^ beta`
///
/// `beta` is how many times more, on a log scale, the work slows than the
/// kernel does when the host slows (NOTES.md, "Host time"). On an unloaded
/// host a reference second is a CPU second.
pub struct RefClock {
    table: Vec<u64>,
    rng: u64,
    /// The last run of the kernel, in CPU seconds.
    last: f64,
    runs: Vec<f64>,
    /// CPU seconds and reference seconds of every piece timed so far.
    total: (f64, f64),
    piece: Piece,
}

/// CPU seconds of one kernel run on an unloaded host (one vCPU of an
/// Intel Xeon, Sapphire Rapids, TSC at 2.0 GHz).
const KERNEL_S: f64 = 1.0e-3;
/// Entries of the kernel's table (256 KiB: it stays in a core's L2).
const TABLE: usize = 1 << 15;
/// Steps of one kernel run.
const STEPS: u32 = 125_000;

/// The piece of work being timed.
#[derive(Default)]
struct Piece {
    /// CPU seconds at its start.
    start: f64,
    /// Kernel runs that bracket it or ran inside it, and their CPU seconds.
    runs: u32,
    sum: f64,
    /// CPU seconds of the kernel runs inside it.
    inside: f64,
}

impl RefClock {
    /// Bytes the clock holds: none of it is the simulator's.
    pub const BYTES: usize = TABLE * std::mem::size_of::<u64>();

    pub fn new() -> Self {
        let mut c = RefClock {
            table: vec![0; TABLE],
            rng: 1,
            last: 0.0,
            runs: Vec::new(),
            total: (0.0, 0.0),
            piece: Piece::default(),
        };
        c.run_kernel();
        c.last = c.run_kernel();
        c
    }

    /// One run of the reference kernel, in CPU seconds: a data-dependent
    /// walk over a table, with unpredictable branches. The table is
    /// brought back into the cache first, untimed, so the kernel does not
    /// depend on how much of the cache the simulator used.
    fn run_kernel(&mut self) -> f64 {
        black_box(self.table.iter().fold(0u64, |a, &v| a ^ v));
        let t = cpu_seconds();
        let mut x = self.rng;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x ^ acc) as usize & (TABLE - 1);
            let v = self.table[i];
            if v & 3 == 0 {
                self.table[i] = v.wrapping_add(x);
                acc = acc.wrapping_add(1);
            } else {
                self.table[i] = v ^ (x >> 3);
                acc ^= v;
            }
        }
        self.rng = black_box(x ^ acc) | 1;
        let s = cpu_seconds() - t;
        self.runs.push(s);
        s
    }

    /// Runs `f`, a piece of work of elasticity `beta`, and returns its
    /// result with its host time in reference seconds.
    pub fn time<T>(&mut self, beta: f64, f: impl FnOnce() -> T) -> (T, f64) {
        self.begin();
        let out = f();
        (out, self.end(beta))
    }

    /// Starts a piece of work; [`RefClock::end`] ends it.
    pub fn begin(&mut self) {
        self.piece = Piece { start: cpu_seconds(), runs: 1, sum: self.last, inside: 0.0 };
    }

    /// Runs the kernel in the middle of a piece of work, for pieces too
    /// long for the runs at their ends to tell how fast the host was
    /// during them. The run's own time is not counted in the piece.
    pub fn sample(&mut self) {
        let t = cpu_seconds();
        let s = self.run_kernel();
        self.piece.runs += 1;
        self.piece.sum += s;
        self.piece.inside += cpu_seconds() - t;
    }

    /// Ends the piece of work begun by [`RefClock::begin`], of elasticity
    /// `beta`, and returns its host time in reference seconds.
    pub fn end(&mut self, beta: f64) -> f64 {
        let s = cpu_seconds() - self.piece.start - self.piece.inside;
        self.last = self.run_kernel();
        let mean = (self.piece.sum + self.last) / f64::from(self.piece.runs + 1);
        let reference = s / (mean / KERNEL_S).powf(beta);
        self.total.0 += s;
        self.total.1 += reference;
        reference
    }

    /// Prints the kernel's CPU times and the pieces' totals, so a reader
    /// can see how fast the host was during the run.
    pub fn print(&self) {
        let [p10, p50, p90] =
            [0.1, 0.5, 0.9].map(|q| crate::report::percentile(&self.runs, q) * 1e3);
        println!(
            "reference kernel: {} runs, CPU ms p10 {p10:.4} p50 {p50:.4} p90 {p90:.4} (unloaded host {:.1}); timed pieces {:.4} CPU s = {:.4} reference s",
            self.runs.len(),
            KERNEL_S * 1e3,
            self.total.0,
            self.total.1
        );
    }
}
