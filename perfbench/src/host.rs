//! Readings of this process and of the host from `/proc`: memory high
//! water mark, thread count, CPU time, and the hypervisor's steal time.
//! They are the noise figures printed beside every run and the memory
//! metric; none of them needs more than a read of a text file.

use std::fs;

/// A `kB` field of `/proc/self/status` (e.g. `VmHWM`), in MiB.
fn status_mib(field: &str) -> Option<f64> {
    let text = fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:").unwrap_or(f64::NAN)
}

/// Current resident set of this process (`VmRSS`), MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:").unwrap_or(f64::NAN)
}

/// Threads of this process right now.
pub fn threads() -> usize {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Online CPUs, as `nproc` reports them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn clock_ticks_per_s() -> f64 {
    // USER_HZ is 100 on every Linux ABI this runs on.
    100.0
}

/// `utime + stime` of a `stat` file (process or thread), seconds.
fn stat_cpu_s(path: &str) -> Option<f64> {
    let text = fs::read_to_string(path).ok()?;
    // The command name may hold spaces; fields resume after its `)`.
    let rest = &text[text.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 and 15 of stat(5) are the 12th and 13th after the name.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / clock_ticks_per_s())
}

/// CPU seconds this process has used (all threads).
pub fn process_cpu_s() -> f64 {
    stat_cpu_s("/proc/self/stat").unwrap_or(f64::NAN)
}

/// CPU seconds one thread of this process has used.
pub fn thread_cpu_s(tid: u32) -> f64 {
    stat_cpu_s(&format!("/proc/self/task/{tid}/stat")).unwrap_or(f64::NAN)
}

/// Thread ids of this process.
pub fn thread_ids() -> Vec<u32> {
    let mut ids: Vec<u32> = fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    ids.sort_unstable();
    ids
}

/// Steal seconds summed over all CPUs since boot (`/proc/stat`).
pub fn steal_s() -> f64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| {
            let cpu = t.lines().find(|l| l.starts_with("cpu "))?;
            // cpu user nice system idle iowait irq softirq steal ...
            let steal: f64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
            Some(steal / clock_ticks_per_s())
        })
        .unwrap_or(f64::NAN)
}

/// Host-noise readings over one timed window: steal on the host and CPU
/// used by this process. Printed with every run, never gated.
pub struct NoiseWindow {
    steal0: f64,
    cpu0: f64,
}

impl NoiseWindow {
    /// Starts the window.
    pub fn start() -> NoiseWindow {
        NoiseWindow {
            steal0: steal_s(),
            cpu0: process_cpu_s(),
        }
    }

    /// Ends the window: `(steal_s, cpu_s)`.
    pub fn finish(self) -> (f64, f64) {
        (steal_s() - self.steal0, process_cpu_s() - self.cpu0)
    }
}

/// Scheduler state letter of one thread (`R` running or runnable).
fn thread_state(tid: u32) -> Option<char> {
    let text = fs::read_to_string(format!("/proc/self/task/{tid}/stat")).ok()?;
    text[text.rfind(')')? + 2..].chars().next()
}

/// Samples this process's threads every `PERIOD` from a thread of its
/// own until `finish`: the most threads there were at once, and the most
/// that were running or runnable at once. The sampler, asleep between
/// samples, counts in neither.
pub struct ThreadSampler {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<(usize, usize)>,
}

impl ThreadSampler {
    const PERIOD: std::time::Duration = std::time::Duration::from_millis(25);

    pub fn start() -> ThreadSampler {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            // `/proc/thread-self` links to `<pid>/task/<tid>`.
            let me: Option<u32> = fs::read_link("/proc/thread-self")
                .ok()
                .and_then(|p| p.file_name()?.to_str()?.parse().ok());
            let (mut threads, mut busy) = (0, 0);
            while !flag.load(Ordering::Relaxed) {
                let others: Vec<u32> = thread_ids()
                    .into_iter()
                    .filter(|&t| Some(t) != me)
                    .collect();
                let running = others
                    .iter()
                    .filter(|&&t| thread_state(t) == Some('R'))
                    .count();
                threads = threads.max(others.len());
                busy = busy.max(running);
                std::thread::sleep(Self::PERIOD);
            }
            (threads, busy)
        });
        ThreadSampler { stop, handle }
    }

    /// Stops sampling: `(most threads, most running or runnable threads)`.
    pub fn finish(self) -> (usize, usize) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        self.handle.join().expect("thread sampler")
    }
}
