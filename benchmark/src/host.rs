//! What the benchmark reads about its own process and host: CPU time and
//! memory from `/proc`, and the host stamp attached to every result.

use crate::entry::Value;
use std::process::Command;

/// Kernel clock ticks per second for the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, 100 on every Linux ABI).
const TICKS_PER_SEC: f64 = 100.0;

/// The CPU-time fields of `/proc/<pid>/stat`, in clock ticks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuTicks {
    /// utime + stime: this process, all threads.
    pub own: u64,
    /// cutime + cstime: children that were waited for.
    pub children: u64,
}

/// Parses one `/proc/<pid>/stat` line. The command name (field 2) may
/// contain spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat(stat: &str) -> Option<CpuTicks> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime..cstime are fields 14..17.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut next = || fields.next()?.parse::<u64>().ok();
    let (utime, stime, cutime, cstime) = (next()?, next()?, next()?, next()?);
    Some(CpuTicks {
        own: utime + stime,
        children: cutime + cstime,
    })
}

/// CPU ticks of this process so far.
pub fn cpu_ticks() -> CpuTicks {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .unwrap_or(CpuTicks {
            own: 0,
            children: 0,
        })
}

/// Seconds for a tick count.
pub fn ticks_to_secs(ticks: u64) -> f64 {
    ticks as f64 / TICKS_PER_SEC
}

/// Parses a `kB` field (`VmHWM`, `VmRSS`) out of `/proc/<pid>/status` text.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(field)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// A `kB` field of this process's `/proc/self/status`, in MiB.
pub fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, field))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Threads the host offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The host stamp: enough to tell whether two results are comparable.
pub fn stamp(stream_epoch: u32) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_ascii_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(-1.0);
    let unknown = || "unknown".to_string();
    Value::object()
        .with("nproc", nproc() as u64)
        .with("cpu_model", cpu_model)
        .with(
            "rustc",
            command_line("rustc", &["-V"]).unwrap_or_else(unknown),
        )
        .with(
            "git_rev",
            command_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(unknown),
        )
        .with("stream_epoch", stream_epoch)
        .with("loadavg_1m_at_start", loadavg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let line = "4242 (ms) play) er) S 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    250 50 30 20 20 0 3 0 12345 1000000 200 18446744073709551615";
        assert_eq!(
            parse_stat(line),
            Some(CpuTicks {
                own: 300,
                children: 50
            })
        );
        assert_eq!(parse_stat("no paren here"), None);
        assert_eq!(parse_stat("1 (x) S 1 2 3"), None);
    }

    #[test]
    fn own_stat_line_parses() {
        let stat = std::fs::read_to_string("/proc/self/stat").expect("linux procfs");
        assert!(parse_stat(&stat).is_some());
    }

    #[test]
    fn status_fields_parse_in_kb() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(2048));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1024));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        assert!(status_mib("VmHWM") > 0.0);
    }
}
