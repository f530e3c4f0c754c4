//! Quantiles, processor clocks, process memory, and the metric list a run
//! reports.

/// Nearest-rank quantile of `values` (sorted in place); `NaN` when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of `values` (sorted in place): the mean of the two middle
/// values when there is an even number of them; `NaN` when empty.
pub fn median(values: &mut [f64]) -> f64 {
    let n = values.len();
    if n % 2 == 1 || n == 0 {
        return quantile(values, 0.5);
    }
    values.sort_by(f64::total_cmp);
    (values[n / 2 - 1] + values[n / 2]) / 2.0
}

/// `(stolen, total)` processor ticks of the whole machine so far, from
/// the first line of `/proc/stat`; `None` where it cannot be read.
/// `stolen` counts the ticks the hypervisor gave to other guests while
/// this one's processors were ready to run.
pub fn machine_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    // user nice system idle iowait irq softirq steal; guest time is
    // already counted in user.
    let ticks: Vec<u64> = line
        .split_whitespace()
        .take(8)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Share of the machine's processor time stolen between two
/// [`machine_ticks`] readings; `None` without both.
pub fn steal_share(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (from?, to?);
    let total = t1.checked_sub(t0).filter(|&n| n > 0)?;
    Some(s1.saturating_sub(s0) as f64 / total as f64)
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME: i32 = 2;

/// `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME: i32 = 3;

/// Reads a processor-time clock, ns.
///
/// These clocks count the time a thread ran on a processor. The kernel
/// leaves out of them the time the hypervisor ran other guests on that
/// processor (steal), and the time the thread waited for a lock, the
/// disk or the network; see `README.md`, "Steadiness".
fn cpu_clock_ns(clock: i32) -> Option<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole
    // call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// Processor time of this whole process so far (every thread, ended ones
/// included), ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME).expect("the process clock is always readable")
}

/// Processor time of thread `tid` of this process so far, ns; `None`
/// once the thread has ended.
pub fn thread_cpu_ns(tid: u32) -> Option<u64> {
    // The kernel's per-thread clock id, `MAKE_THREAD_CPUCLOCK(tid,
    // CPUCLOCK_SCHED)`, as `pthread_getcpuclockid` builds it.
    let clock = (!(tid as i32) << 3) | 0b110;
    cpu_clock_ns(clock)
}

/// Processor time of the calling thread so far, ns.
pub fn this_thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME).expect("the thread clock is always readable")
}

/// Elements the reference computation sorts.
const REFERENCE_LEN: usize = 1 << 15;

/// Processor time of one [`reference_ns`] on the reference machine (see
/// `README.md`) with its host quiet, ns: [`to_reference_speed`] scales
/// processor times to that machine's speed.
pub const REFERENCE_NOMINAL_NS: f64 = 850_000.0;

/// Times a fixed computation of about a millisecond on this thread
/// (fill a buffer from a SplitMix64 stream and sort it); returns its
/// processor time, ns. The same work takes longer while other tenants of
/// the host load the processor this thread runs on, so its time measures
/// the machine's speed at that moment.
pub fn reference_ns() -> u64 {
    let cpu = this_thread_cpu_ns();
    let mut z = 0x9e37_79b9_7f4a_7c15u64;
    let mut buf: Vec<u64> = (0..REFERENCE_LEN)
        .map(|_| {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        })
        .collect();
    buf.sort_unstable();
    std::hint::black_box(&buf);
    this_thread_cpu_ns() - cpu
}

/// The median of `reps` [`reference_ns`] timed back to back, ns.
pub fn reference_median_ns(reps: usize) -> f64 {
    let mut times: Vec<f64> = (0..reps).map(|_| reference_ns() as f64).collect();
    median(&mut times)
}

/// The factor that scales a processor time measured while the reference
/// computation took `reference_ns` to the reference machine's speed.
pub fn to_reference_speed(reference_ns: f64) -> f64 {
    REFERENCE_NOMINAL_NS / reference_ns
}

/// Thread ids of this process's threads named `<prefix><n>`, by `n`.
pub fn threads_named(prefix: &str) -> Vec<(u64, u32)> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out: Vec<(u64, u32)> = dir
        .filter_map(|entry| {
            let entry = entry.ok()?;
            let tid = entry.file_name().to_str()?.parse().ok()?;
            let comm = std::fs::read_to_string(entry.path().join("comm")).ok()?;
            let n = comm.trim_end().strip_prefix(prefix)?.parse().ok()?;
            Some((n, tid))
        })
        .collect();
    out.sort_unstable();
    out
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarises (1 for a single measurement).
    pub samples: usize,
}

/// An ordered metric list.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// The value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut [7.0], 0.99), 7.0);
        assert!(median(&mut []).is_nan());
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn steal_share_of_two_readings() {
        assert_eq!(steal_share(Some((10, 100)), Some((30, 200))), Some(0.2));
        assert_eq!(steal_share(Some((10, 100)), Some((10, 100))), None);
        assert_eq!(steal_share(None, Some((10, 100))), None);
    }

    /// The clocks read this thread's and a spawned thread's processor
    /// time; a thread's clock cannot be read once it has ended.
    #[test]
    fn processor_time_of_this_process_and_its_threads() {
        let spin = |ms: u64| {
            let until = std::time::Instant::now() + std::time::Duration::from_millis(ms);
            while std::time::Instant::now() < until {}
        };
        let before = process_cpu_ns();
        let (tx, rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::Builder::new()
            .name("cpu-test-7".into())
            .spawn(move || {
                spin(30);
                tx.send(()).unwrap();
                done_rx.recv().unwrap();
            })
            .unwrap();
        rx.recv().unwrap();
        let named = threads_named("cpu-test-");
        assert_eq!(named.len(), 1);
        assert_eq!(named[0].0, 7);
        let tid = named[0].1;
        let ran = thread_cpu_ns(tid).expect("live thread");
        assert!((20_000_000..2_000_000_000).contains(&ran), "{ran}");
        done_tx.send(()).unwrap();
        worker.join().unwrap();
        assert!(process_cpu_ns() - before >= ran);
        assert_eq!(thread_cpu_ns(tid), None);
    }
}
