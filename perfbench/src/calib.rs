//! Host-speed calibration. On a shared host the same code runs up to
//! half again slower for seconds at a time, and the hypervisor takes
//! (steals) the virtual CPUs away for stretches of up to a quarter of a
//! 20 s window. Each timed operation is therefore rescaled to a reference
//! host by a factor with two parts:
//!
//! * speed: recent runs of a fixed kernel that shares no code with the
//!   program, over [`NOMINAL_S`], the kernel's time on the reference
//!   host. The median of several runs, so a steal during one run does
//!   not count;
//! * steal: `1 / (1 - s)`, where `s` is the share of all CPU time that
//!   `/proc/stat` reports stolen over the operation, or over the last
//!   half second or so.
//!
//! A change to the program moves the rescaled time exactly as it moves
//! the raw time; a host slowdown that hits the kernel and the program
//! alike cancels.
//!
//! The kernel allocates and frees small boxes, which is much of what the
//! simulator and the query planner do. Among the kernels tried on a
//! shared 2-vCPU host (cache-resident integer work, floating point,
//! random reads of 8 MiB, a heap-driven event loop, string formatting,
//! small allocations), its slow stretches followed those of a cached
//! `suite@paper` answer most closely: averaged over 25 answers, the two
//! correlated at 0.98. The slow stretches belong to one virtual CPU at a
//! time, so the kernel runs on the thread whose operations it rescales:
//! run on a thread of its own, the same kernel correlated at 0.16.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::Samples;
use crate::trace::secs;

/// Reference duration of one kernel run, in seconds.
pub const NOMINAL_S: f64 = 0.000_5;

/// Kernel iterations: about [`NOMINAL_S`] on an unloaded 2-vCPU x86 host.
const ITERS: u64 = 25_000;

/// Probes the speed part takes the median of.
const WINDOW: usize = 5;

/// `/proc/stat` readings the steal part spans.
const STEAL_SPAN: usize = 10;

/// Stolen and total CPU time, in jiffies summed over every CPU.
#[derive(Clone, Copy, Debug, Default)]
pub struct Jiffies {
    steal: u64,
    total: u64,
}

impl Jiffies {
    /// Read `/proc/stat` (zeros where it is missing).
    pub fn now() -> Jiffies {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        Jiffies {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        }
    }

    /// Share of the CPU time since `earlier` that was stolen.
    pub fn steal_since(self, earlier: Jiffies) -> f64 {
        let total = self.total.saturating_sub(earlier.total).max(1);
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// The factor for kernel factor `speed` and stolen share `steal`.
pub fn host_factor(speed: f64, steal: f64) -> f64 {
    speed / (1.0 - steal.min(0.9))
}

/// One thread's calibration state.
pub struct Calibrator {
    recent: [f64; WINDOW],
    marks: [Jiffies; STEAL_SPAN],
    next: usize,
    last: Option<Instant>,
    /// Every kernel time measured.
    pub probes: Samples,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            recent: [NOMINAL_S; WINDOW],
            marks: [Jiffies::default(); STEAL_SPAN],
            next: 0,
            last: None,
            probes: Samples::default(),
        }
    }
}

/// The calibration kernel: a churn of 64 live small boxes.
fn kernel() {
    let mut live: Vec<Box<[u64; 4]>> = Vec::with_capacity(65);
    let mut x = 1u64;
    for _ in 0..ITERS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        live.push(Box::new([x; 4]));
        if live.len() > 64 {
            live.swap_remove((x >> 33) as usize % 64);
        }
    }
    black_box(live);
}

impl Calibrator {
    /// Run the kernel once and record its time and a `/proc/stat` reading.
    pub fn probe(&mut self) {
        let t = Instant::now();
        kernel();
        let dt = secs(t);
        self.recent[self.next % WINDOW] = dt;
        self.marks[self.next % STEAL_SPAN] = Jiffies::now();
        self.next += 1;
        self.last = Some(Instant::now());
        self.probes.push(dt);
    }

    /// Probe if the last probe is older than `max_age_s`; fill the speed
    /// window the first time.
    pub fn refresh(&mut self, max_age_s: f64) {
        match self.last {
            Some(t) if secs(t) < max_age_s => {}
            Some(_) => self.probe(),
            None => {
                self.speed_now();
            }
        }
    }

    /// The speed part: median of the last [`WINDOW`] kernel times over
    /// [`NOMINAL_S`].
    pub fn speed(&self) -> f64 {
        let mut r = self.recent;
        r.sort_by(f64::total_cmp);
        r[WINDOW / 2] / NOMINAL_S
    }

    /// Refill the speed window with new probes and return the speed part.
    pub fn speed_now(&mut self) -> f64 {
        for _ in 0..WINDOW {
            self.probe();
        }
        self.speed()
    }

    /// The factor now: the speed part, and the steal over the last
    /// [`STEAL_SPAN`] probes.
    pub fn factor(&self) -> f64 {
        let newest = self.marks[(self.next + STEAL_SPAN - 1) % STEAL_SPAN];
        let oldest = self.marks[self.next % STEAL_SPAN];
        let steal = if self.next >= STEAL_SPAN {
            newest.steal_since(oldest)
        } else {
            0.0
        };
        host_factor(self.speed(), steal)
    }

    /// Run `f`, returning its result, its seconds and its factor: the
    /// mean speed part probed before and after, and the steal between.
    pub fn bracket<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.speed_now();
        let j = Jiffies::now();
        let t = Instant::now();
        let out = f();
        let dt = secs(t);
        let steal = Jiffies::now().steal_since(j);
        let after = self.speed_now();
        (out, dt, host_factor((before + after) / 2.0, steal))
    }
}

/// One timing's samples, as measured and rescaled to the reference host.
#[derive(Clone, Debug, Default)]
pub struct Timing {
    /// Seconds as measured.
    pub raw: Samples,
    /// Seconds divided by the host factor measured with them.
    pub scaled: Samples,
}

impl Timing {
    /// Record `raw` seconds measured under host factor `factor`.
    pub fn push(&mut self, raw: f64, factor: f64) {
        self.raw.push(raw);
        self.scaled.push(raw / factor);
    }

    /// Append another timing's samples.
    pub fn extend(&mut self, o: &Timing) {
        self.raw.extend(&o.raw);
        self.scaled.extend(&o.scaled);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.raw.len()
    }
}
