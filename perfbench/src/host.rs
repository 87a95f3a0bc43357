//! What the benchmark reads about its own process and the host, from
//! `/proc`: resident memory and its high-water mark, CPU time and steal. Plus a fixed reference
//! loop, timed between repetitions, that shows how fast the host runs
//! at the moment without involving the program.

use std::time::Instant;

/// The `field` line of the text of `/proc/<pid>/status` (`VmRSS`,
/// `VmHWM`, ...), in bytes.
pub fn parse_status_bytes(status: &str, field: &str) -> Option<u64> {
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

fn status_bytes(field: &str) -> Option<u64> {
    parse_status_bytes(&std::fs::read_to_string("/proc/self/status").ok()?, field)
}

/// Resident memory of this process, in bytes.
pub fn rss_bytes() -> Option<u64> {
    status_bytes("VmRSS")
}

/// Highest resident memory of this process since it started or since
/// the last [`reset_peak_rss`], in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    status_bytes("VmHWM")
}

/// Lowers the process's resident high-water mark to its current
/// resident size (`5` written to `/proc/self/clear_refs`, Linux 4.0+).
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// CPU time from the text of `/proc/<pid>/schedstat` (its first
/// field), in nanoseconds.
pub fn parse_cpu_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// CPU time the calling thread has run, in nanoseconds. The benchmark
/// drives the program from one thread.
pub fn cpu_ns() -> Option<u64> {
    parse_cpu_ns(&std::fs::read_to_string("/proc/thread-self/schedstat").ok()?)
}

/// Host-wide CPU time, in jiffies, from the text of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuTimes {
    /// Time stolen by the hypervisor.
    pub steal: u64,
    /// All time: user, nice, system, idle, iowait, irq, softirq, steal.
    pub total: u64,
}

/// The aggregate `cpu` line of `/proc/stat`.
pub fn parse_cpu_times(stat: &str) -> Option<CpuTimes> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    let steal = *fields.get(7)?;
    Some(CpuTimes {
        steal,
        total: fields.iter().sum(),
    })
}

/// Host-wide CPU times now.
pub fn cpu_times() -> Option<CpuTimes> {
    parse_cpu_times(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// Share of host CPU time stolen between two readings.
pub fn steal_frac(from: CpuTimes, to: CpuTimes) -> f64 {
    let total = to.total.saturating_sub(from.total);
    if total == 0 {
        0.0
    } else {
        to.steal.saturating_sub(from.steal) as f64 / total as f64
    }
}

/// Words in the reference loop's table: 16 MB, more than a core's
/// private caches, so the loop also feels contention for the shared
/// cache and memory.
const REF_TABLE_WORDS: usize = 1 << 21;
/// Table reads per reference loop: a few ms on a 2020s server core.
const REF_READS: u64 = 1 << 18;

/// The fixed reference loop: [`REF_READS`] hashed, independent reads
/// from a table of [`REF_TABLE_WORDS`] words, which exercise the
/// arithmetic units, the caches and memory the way a hash-table probe
/// does.
#[derive(Debug)]
pub struct ReferenceLoop {
    table: Vec<u64>,
}

impl Default for ReferenceLoop {
    fn default() -> ReferenceLoop {
        ReferenceLoop::new()
    }
}

impl ReferenceLoop {
    /// Allocates and fills the table.
    pub fn new() -> ReferenceLoop {
        ReferenceLoop {
            table: (0..REF_TABLE_WORDS as u64).map(mix).collect(),
        }
    }

    /// Runs the loop and returns its wall time in ms.
    pub fn run_ms(&self) -> f64 {
        let mask = self.table.len() as u64 - 1;
        let t = Instant::now();
        let mut sum = 0u64;
        for i in 0..std::hint::black_box(REF_READS) {
            let slot = (mix(i) & mask) as usize;
            sum = sum.wrapping_add(self.table.get(slot).copied().unwrap_or(0));
        }
        std::hint::black_box(sum);
        t.elapsed().as_secs_f64() * 1e3
    }
}

fn mix(x: u64) -> u64 {
    let x = (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_texts() {
        let status = "Name:\tperfbench\nVmHWM:\t  9000 kB\nVmRSS:\t    1744 kB\nThreads:\t1\n";
        assert_eq!(parse_status_bytes(status, "VmRSS"), Some(1744 * 1024));
        assert_eq!(parse_status_bytes(status, "VmHWM"), Some(9000 * 1024));
        assert_eq!(parse_status_bytes(status, "VmPeak"), None);
        assert_eq!(parse_status_bytes("Name:\tx\n", "VmRSS"), None);
        assert_eq!(parse_status_bytes("VmRSS:\t12 MB\n", "VmRSS"), None);

        assert_eq!(parse_cpu_ns("81670 0 2\n"), Some(81_670));
        assert_eq!(parse_cpu_ns(""), None);

        let stat = "cpu  1395721 610 95753 1925053 8765 0 2662 40636 0 0\n\
                    cpu0 1 2 3 4 5 6 7 8 0 0\nintr 1 2\n";
        let t = parse_cpu_times(stat).unwrap();
        assert_eq!(t.steal, 40_636);
        assert_eq!(
            t.total,
            1_395_721 + 610 + 95_753 + 1_925_053 + 8_765 + 2_662 + 40_636
        );
        assert_eq!(parse_cpu_times("cpu  1 2 3\n"), None);
        let later = CpuTimes {
            steal: t.steal + 10,
            total: t.total + 100,
        };
        assert!((steal_frac(t, later) - 0.1).abs() < 1e-12);
        assert_eq!(steal_frac(t, t), 0.0);
    }

    #[test]
    fn reads_this_process() {
        let rss = rss_bytes().expect("/proc/self/status has VmRSS");
        assert!(rss > 0);
        // A transient allocation raises the high-water mark, and the
        // reset brings it back down to the resident size. Other tests
        // run beside this one, so only this test's own 64 MB is certain.
        let big = vec![1u8; 64 << 20];
        let with_big = rss_bytes().unwrap();
        assert!(with_big >= 64 << 20);
        drop(std::hint::black_box(big));
        let peak = peak_rss_bytes().expect("/proc/self/status has VmHWM");
        // The kernel's resident counters lag by per-CPU batches of pages.
        assert!(peak + (4 << 20) >= with_big);
        reset_peak_rss().expect("/proc/self/clear_refs is writable");
        assert!(peak_rss_bytes().unwrap() < peak);
        let before = cpu_ns().expect("/proc/thread-self/schedstat is readable");
        let ms = ReferenceLoop::new().run_ms();
        assert!(ms > 0.0);
        // The scheduler updates the figure at its own ticks.
        assert!(cpu_ns().unwrap() >= before);
        let t = cpu_times().expect("/proc/stat has a cpu line");
        assert!(t.total > 0);
    }
}
