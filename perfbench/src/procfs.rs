//! Readers for the process counters the benchmark samples around each
//! timed call: CPU clocks, the user/system split (`/proc/self/stat`), I/O
//! syscalls (`/proc/self/io`), TCP segments (`/proc/self/net/snmp`) and
//! memory (`/proc/self/status`). The parsers take the file text so they
//! can be tested on fixed input.

use std::fs;
use std::time::Duration;

/// `/proc` reports CPU time in clock ticks of `USER_HZ`, which the Linux
/// ABI fixes at 100 per second.
const USER_HZ: u64 = 100;

/// Process CPU time: user plus system, all threads, living and reaped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuTimes {
    /// Clock ticks in user mode (`utime`).
    pub utime: u64,
    /// Clock ticks in kernel mode (`stime`).
    pub stime: u64,
}

impl CpuTimes {
    /// User and system CPU used between `earlier` and `self`.
    #[must_use]
    pub fn since(self, earlier: CpuTimes) -> (Duration, Duration) {
        let ms = |ticks: u64| Duration::from_millis(ticks * 1000 / USER_HZ);
        (
            ms(self.utime.saturating_sub(earlier.utime)),
            ms(self.stime.saturating_sub(earlier.stime)),
        )
    }
}

/// Parses `utime` and `stime` (fields 14 and 15) out of `/proc/<pid>/stat`.
/// The command name (field 2) is parenthesised and may hold spaces or
/// parentheses itself, so fields are counted from the last `)`.
#[must_use]
pub fn parse_stat(text: &str) -> Option<CpuTimes> {
    let rest = &text[text.rfind(')')? + 1..];
    // `rest` starts at field 3 (state), so field k is at index k - 3.
    let mut fields = rest.split_whitespace().skip(14 - 3);
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some(CpuTimes { utime, stime })
}

/// I/O counters of `/proc/<pid>/io`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoCounters {
    /// Bytes passed to `write`-family syscalls (sockets and files).
    pub wchar: u64,
    /// Read-family syscalls issued.
    pub syscr: u64,
    /// Write-family syscalls issued.
    pub syscw: u64,
}

impl IoCounters {
    /// Counters accrued between `earlier` and `self`.
    #[must_use]
    pub fn since(self, earlier: IoCounters) -> IoCounters {
        IoCounters {
            wchar: self.wchar.saturating_sub(earlier.wchar),
            syscr: self.syscr.saturating_sub(earlier.syscr),
            syscw: self.syscw.saturating_sub(earlier.syscw),
        }
    }
}

/// Parses `/proc/<pid>/io`. Every field the benchmark uses must be there.
#[must_use]
pub fn parse_io(text: &str) -> Option<IoCounters> {
    Some(IoCounters {
        wchar: field(text, "wchar:")?,
        syscr: field(text, "syscr:")?,
        syscw: field(text, "syscw:")?,
    })
}

/// Memory figures of `/proc/<pid>/status`, in KiB.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Memory {
    /// Resident set size now (`VmRSS`).
    pub rss_kib: u64,
    /// Peak resident set size (`VmHWM`) since start or the last reset.
    pub hwm_kib: u64,
}

/// Parses `VmRSS` and `VmHWM` out of `/proc/<pid>/status`.
#[must_use]
pub fn parse_status(text: &str) -> Option<Memory> {
    Some(Memory {
        rss_kib: field(text, "VmRSS:")?,
        hwm_kib: field(text, "VmHWM:")?,
    })
}

/// Parses the TCP `OutSegs` counter out of `/proc/<pid>/net/snmp`, where
/// a `Tcp:` header line names the columns of the `Tcp:` line after it.
#[must_use]
pub fn parse_tcp_out_segs(text: &str) -> Option<u64> {
    let mut tcp = text.lines().filter(|l| l.starts_with("Tcp:"));
    let (header, values) = (tcp.next()?, tcp.next()?);
    let column = header.split_whitespace().position(|c| c == "OutSegs")?;
    values.split_whitespace().nth(column)?.parse().ok()
}

/// The first number after the line starting with `key`.
fn field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn read<T: Default>(path: &str, parse: fn(&str) -> Option<T>) -> T {
    fs::read_to_string(path)
        .ok()
        .and_then(|t| parse(&t))
        .unwrap_or_default()
}

/// A snapshot of this process's resource counters (zero where `/proc` is
/// unreadable).
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    cpu_ns: u64,
    times: CpuTimes,
    io: IoCounters,
    tcp_out_segs: u64,
}

/// Resources used between two probes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// Process CPU, all threads, at nanosecond resolution.
    pub cpu: Duration,
    /// User-mode share of it, at clock-tick resolution.
    pub user: Duration,
    /// Kernel-mode share of it, at clock-tick resolution.
    pub sys: Duration,
    /// I/O syscalls and bytes.
    pub io: IoCounters,
    /// TCP segments sent from this network namespace.
    pub tcp_out_segs: u64,
}

impl Probe {
    /// Samples the counters now.
    #[must_use]
    pub fn now() -> Probe {
        Probe {
            cpu_ns: clock_ns(CLOCK_PROCESS_CPUTIME_ID),
            times: read("/proc/self/stat", parse_stat),
            io: read("/proc/self/io", parse_io),
            tcp_out_segs: read("/proc/self/net/snmp", parse_tcp_out_segs),
        }
    }

    /// What was used since `earlier`.
    #[must_use]
    pub fn since(self, earlier: Probe) -> Usage {
        let (user, sys) = self.times.since(earlier.times);
        Usage {
            cpu: Duration::from_nanos(self.cpu_ns.saturating_sub(earlier.cpu_ns)),
            user,
            sys,
            io: self.io.since(earlier.io),
            tcp_out_segs: self.tcp_out_segs.saturating_sub(earlier.tcp_out_segs),
        }
    }
}

/// This process's memory figures (zero if `/proc` is unreadable).
#[must_use]
pub fn memory() -> Memory {
    read("/proc/self/status", parse_status)
}

/// Resets `VmHWM` to the current RSS, so the next reading is the peak of
/// what follows. Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: CPU of every thread of the process,
/// including threads that have exited.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has used, in nanoseconds (zero if the
/// clock is unavailable). Used around calls that may block on I/O, where
/// wall time would count the wait as work.
#[must_use]
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

fn clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on) for the
    // whole call, and the clock id is one of the kernel constants above;
    // `clock_gettime` writes only into `ts`.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    if rc != 0 {
        return 0;
    }
    (ts.tv_sec as u64) * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_paren() {
        let text = "4242 (a (weird) name) S 1 4242 4242 0 -1 4194560 500 0 0 0 \
                    731 142 0 0 20 0 3 0 100 1000 200 18446744073709551615";
        assert_eq!(
            parse_stat(text),
            Some(CpuTimes {
                utime: 731,
                stime: 142
            })
        );
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn cpu_delta_converts_ticks_to_time() {
        let a = CpuTimes {
            utime: 10,
            stime: 5,
        };
        let b = CpuTimes {
            utime: 130,
            stime: 35,
        };
        assert_eq!(
            b.since(a),
            (Duration::from_millis(1200), Duration::from_millis(300))
        );
        assert_eq!(a.since(b), (Duration::ZERO, Duration::ZERO));
    }

    #[test]
    fn io_counters_parse_and_subtract() {
        let text = "rchar: 3980\nwchar: 120\nsyscr: 9\nsyscw: 4\nread_bytes: 0\n\
                    write_bytes: 4096\ncancelled_write_bytes: 0\n";
        let io = parse_io(text).expect("complete io text");
        assert_eq!(
            io,
            IoCounters {
                wchar: 120,
                syscr: 9,
                syscw: 4
            }
        );
        let later = IoCounters {
            wchar: 200,
            syscr: 19,
            syscw: 5,
        };
        assert_eq!(
            later.since(io),
            IoCounters {
                wchar: 80,
                syscr: 10,
                syscw: 1
            }
        );
        assert_eq!(parse_io("rchar: 1\nwchar: 2\n"), None);
    }

    #[test]
    fn snmp_out_segs_by_column_name() {
        let text = "Ip: Forwarding DefaultTTL\nIp: 1 64\n\
                    Tcp: RtoAlgorithm RtoMin InSegs OutSegs RetransSegs\n\
                    Tcp: 1 200 7406845 7406848 7\n\
                    Udp: InDatagrams\nUdp: 5\n";
        assert_eq!(parse_tcp_out_segs(text), Some(7_406_848));
        assert_eq!(parse_tcp_out_segs("Tcp: OutSegs\n"), None);
    }

    #[test]
    fn status_memory_lines() {
        let text = "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t    1836 kB\n\
                    VmRSS:\t    1700 kB\nThreads:\t1\n";
        assert_eq!(
            parse_status(text),
            Some(Memory {
                rss_kib: 1700,
                hwm_kib: 1836
            })
        );
        assert_eq!(parse_status("VmRSS:\t1 kB\n"), None);
    }

    #[test]
    fn live_readers_see_this_process() {
        assert!(memory().rss_kib > 0);
        assert!(thread_cpu_ns() > 0);
        let a = Probe::now();
        let t = std::time::Instant::now();
        while t.elapsed() < Duration::from_millis(30) {
            std::hint::spin_loop();
        }
        let used = Probe::now().since(a);
        assert!(used.cpu >= Duration::from_millis(20), "{used:?}");
    }
}
