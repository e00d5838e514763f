//! What the operating system says about this process: CPU time split
//! into user and system, and the resident-set high-water mark. Read
//! from `/proc/self`, so Linux only — like the container the
//! benchmark's reference numbers come from.

use std::fs;

/// Kernel clock ticks per second in `/proc/self/stat`. `USER_HZ` is 100
/// on every Linux ABI; there is no libc here to ask `sysconf`.
const TICKS_PER_S: f64 = 100.0;

/// `(user_s, sys_s)` consumed by all threads of this process so far.
pub fn cpu_times() -> (f64, f64) {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may itself
    // contain spaces: state is field 3, utime 14, stime 15.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let mut fields = after.split_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    let (user, sys) = (tick(), tick());
    (user / TICKS_PER_S, sys / TICKS_PER_S)
}

/// Peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The tag results are filed under: OS, architecture and CPU count —
/// what decides whether two sets of wall-clock numbers are comparable.
pub fn tag() -> String {
    format!("{}-{}-{}cpu", std::env::consts::OS, std::env::consts::ARCH, nproc())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        let (user, sys) = cpu_times();
        assert!(user >= 0.0 && sys >= 0.0);
        assert!(peak_rss_mib() > 0.0, "VmHWM must parse on Linux");
        assert!(tag().ends_with("cpu"));
    }
}
