//! Host probe: on-CPU time, runqueue wait, steal, wall time and peak RSS
//! of this process, read from the kernel's own accounting.
//!
//! On-CPU time is the scheduler's `sum_exec_runtime`. On a kernel with
//! paravirtual steal accounting it advances only while a thread really
//! runs, so hypervisor steal does not inflate it the way it inflates
//! wall time. Two views of the counter are read:
//!
//! * [`cpu_s`] reads it through `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`,
//!   which brings the running thread's share up to date first, so short
//!   intervals are measured to the nanosecond;
//! * [`Sample`] sums field 1 of `/proc/self/task/*/schedstat`, which is
//!   the same counter as of the last scheduler tick (4 ms at HZ=250),
//!   together with field 2, the time threads waited on a runqueue.

use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the host probe reads Linux /proc and a 64-bit struct timespec");

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// On-CPU seconds consumed by every thread of this process so far.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on x86-64 and aarch64 Linux) and the clock id is a constant
    // the kernel always supports; the call writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Fields 1 and 2 of a `schedstat` line: nanoseconds on CPU and
/// nanoseconds spent waiting on a runqueue.
pub fn parse_schedstat(line: &str) -> Option<(u64, u64)> {
    let mut fields = line.split_whitespace();
    let run = fields.next()?.parse().ok()?;
    let wait = fields.next()?.parse().ok()?;
    Some((run, wait))
}

/// The `steal` column (8th value) of the aggregate `cpu` line of
/// `/proc/stat`, in USER_HZ ticks.
pub fn parse_steal_ticks(proc_stat: &str) -> Option<u64> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// `VmHWM` (peak resident set) of a `/proc/<pid>/status` file, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// USER_HZ, the unit of `/proc/stat` (100 on every Linux ABI).
const USER_HZ: f64 = 100.0;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// Σ schedstat (on-CPU ns, runqueue-wait ns) over this process's threads.
fn schedstat_totals() -> (u64, u64) {
    let mut run = 0;
    let mut wait = 0;
    let tasks = std::fs::read_dir("/proc/self/task").expect("listing /proc/self/task");
    for task in tasks {
        let path = task.expect("task entry").path().join("schedstat");
        // A thread may exit between the listing and the read.
        if let Ok(line) = std::fs::read_to_string(&path) {
            let (r, w) = parse_schedstat(&line)
                .unwrap_or_else(|| panic!("malformed {}: {line:?}", path.display()));
            run += r;
            wait += w;
        }
    }
    (run, wait)
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let kib = parse_vm_hwm_kib(&read("/proc/self/status")).expect("VmHWM in /proc/self/status");
    kib as f64 / 1024.0
}

/// CPUs the standard library sees.
pub fn detected_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One reading of every host clock, for differencing.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    wall: Instant,
    sched_run_ns: u64,
    sched_wait_ns: u64,
    steal_ticks: u64,
}

/// What the host did between two [`Sample`]s.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub wall_s: f64,
    /// On-CPU seconds per schedstat (tick resolution).
    pub sched_cpu_s: f64,
    pub runq_wait_s: f64,
    /// Machine-wide steal over the interval, summed over CPUs.
    pub steal_s: f64,
}

impl Sample {
    pub fn now() -> Sample {
        let (sched_run_ns, sched_wait_ns) = schedstat_totals();
        let steal_ticks = parse_steal_ticks(&read("/proc/stat")).expect("steal in /proc/stat");
        Sample {
            wall: Instant::now(),
            sched_run_ns,
            sched_wait_ns,
            steal_ticks,
        }
    }

    pub fn since(&self, start: &Sample) -> Usage {
        Usage {
            wall_s: self.wall.duration_since(start.wall).as_secs_f64(),
            sched_cpu_s: self.sched_run_ns.saturating_sub(start.sched_run_ns) as f64 * 1e-9,
            runq_wait_s: self.sched_wait_ns.saturating_sub(start.sched_wait_ns) as f64 * 1e-9,
            steal_s: self.steal_ticks.saturating_sub(start.steal_ticks) as f64 / USER_HZ,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_fields() {
        assert_eq!(
            parse_schedstat("1523000411 83654 17\n"),
            Some((1_523_000_411, 83_654))
        );
        assert_eq!(parse_schedstat("12"), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn steal_column() {
        let stat = "cpu  65822 0 3400 155975 295 0 152 8809 0 0\n\
                    cpu0 32911 0 1700 77987 147 0 76 4404 0 0\n\
                    intr 1 2 3\n";
        assert_eq!(parse_steal_ticks(stat), Some(8809));
        assert_eq!(parse_steal_ticks("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_steal_ticks("cpu  1 2 3\n"), None);
    }

    #[test]
    fn vm_hwm() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  120000 kB\nVmHWM:\t   34816 kB\nVmRSS:\t 30000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(34_816));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1 kB\n"), None);
    }

    #[test]
    fn clocks_advance() {
        let s0 = Sample::now();
        let c0 = cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        let used = cpu_s() - c0;
        let u = Sample::now().since(&s0);
        assert!(used > 0.0 && u.wall_s > 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
