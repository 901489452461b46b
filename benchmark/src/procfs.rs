//! What Linux reports about this process and this machine. The
//! parsers take the file's text so the tests can feed them captured
//! fixtures; the readers return `None` where `/proc` is absent.

use std::fs;

/// Kernel clock ticks per second in `/proc/*/stat`. `USER_HZ` is 100
/// on every Linux ABI; without libc there is no `sysconf` to ask.
const TICKS_PER_SECOND: f64 = 100.0;

/// A `kB` field of `/proc/<pid>/status`, e.g. `VmHWM`.
#[must_use]
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// `utime + stime` of `/proc/<pid>/stat`, in clock ticks. The command
/// name (field 2) may itself contain spaces and parentheses, so fields
/// are counted from the last `)`.
#[must_use]
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); utime and stime are 14, 15.
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `(all ticks, steal ticks)` of the aggregate `cpu` line of
/// `/proc/stat`.
#[must_use]
pub fn parse_stat_steal(proc_stat: &str) -> Option<(u64, u64)> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already counted inside user and nice.
    let steal = *ticks.get(7)?;
    Some((ticks.iter().take(8).sum(), steal))
}

/// The first `model name` of `/proc/cpuinfo`.
#[must_use]
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_string())
    })
}

/// Peak resident set of this process, in MB.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_status_kb(&status, "VmHWM")? as f64 / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used.
#[must_use]
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    Some(parse_stat_cpu_ticks(&stat)? as f64 / TICKS_PER_SECOND)
}

/// `(all ticks, steal ticks)` of the machine so far.
#[must_use]
pub fn steal_ticks() -> Option<(u64, u64)> {
    parse_stat_steal(&fs::read_to_string("/proc/stat").ok()?)
}

/// CPU model name, if the kernel reports one.
#[must_use]
pub fn cpu_model() -> Option<String> {
    parse_cpu_model(&fs::read_to_string("/proc/cpuinfo").ok()?)
}

/// Frequency governor of CPU 0, if cpufreq is exposed.
#[must_use]
pub fn governor() -> Option<String> {
    fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .ok()
        .map(|s| s.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured on a 2-vCPU Firecracker guest (Linux 6.18) from a
    // `sparse_2shard` run of this harness, cut to the lines around the
    // ones read. In STAT the command name is edited, to the worst one
    // a process can give itself.
    const STATUS: &str = "Name:\tstat4-benchmark\nUmask:\t0022\nState:\tS (sleeping)\n\
        VmPeak:\t  243256 kB\nVmSize:\t  243240 kB\nVmLck:\t       0 kB\n\
        VmHWM:\t   41508 kB\nVmRSS:\t   41508 kB\nThreads:\t3\n";
    const STAT: &str =
        "10003 (stat4 (bench) x) R 9999 10003 9999 0 -1 4194304 9787 0 2 0 238 58 0 0 \
        20 0 3 0 3784721 249077760 10351 18446744073709551615 94576895043344 94576896387424 \
        140734053695648 0 0 0 0 4096 1088 0 0 0 17 0 0 0 0 0 0 94576896434064 94576896436576 \
        94577732362240 140734053696854 140734053696953 140734053696953 140734053699533 0";
    const PROC_STAT: &str = "cpu  2298453 0 297932 3849261 33024 0 11892 95839 0 0\n\
        cpu0 1120482 0 154081 1940116 20226 0 4670 47886 0 0\n\
        cpu1 1177970 0 143851 1909145 12798 0 7221 47953 0 0\nintr 124216749 0 0\nctxt 408117292\n";
    const CPUINFO: &str = "processor\t: 0\nvendor_id\t: GenuineIntel\ncpu family\t: 6\n\
        model\t\t: 207\nmodel name\t: Intel(R) Xeon(R) Processor @ 2.10GHz\nstepping\t: 2\n\
        microcode\t: 0x1\ncpu MHz\t\t: 2100.000\n";

    #[test]
    fn status_fields() {
        assert_eq!(parse_status_kb(STATUS, "VmHWM"), Some(41_508));
        assert_eq!(parse_status_kb(STATUS, "VmPeak"), Some(243_256));
        assert_eq!(parse_status_kb(STATUS, "VmSize"), Some(243_240));
        // `Vm` is a prefix of several keys but names none.
        assert_eq!(parse_status_kb(STATUS, "Vm"), None);
        assert_eq!(parse_status_kb(STATUS, "Threads"), None, "not a kB field");
        assert_eq!(parse_status_kb("", "VmHWM"), None);
    }

    #[test]
    fn stat_cpu_ticks_survive_a_hostile_comm() {
        assert_eq!(parse_stat_cpu_ticks(STAT), Some(238 + 58));
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn steal_share_of_the_aggregate_line() {
        let (all, steal) = parse_stat_steal(PROC_STAT).unwrap();
        assert_eq!(steal, 95_839);
        assert_eq!(
            all,
            2_298_453 + 297_932 + 3_849_261 + 33_024 + 11_892 + 95_839
        );
        assert_eq!(parse_stat_steal("cpu0 1 2 3\n"), None);
        assert_eq!(
            parse_stat_steal("cpu  1 2 3\n"),
            None,
            "pre-2.6.11 layout has no steal"
        );
    }

    #[test]
    fn cpu_model_is_the_first_one() {
        assert_eq!(
            parse_cpu_model(CPUINFO).as_deref(),
            Some("Intel(R) Xeon(R) Processor @ 2.10GHz")
        );
        assert_eq!(parse_cpu_model("processor : 0\n"), None);
    }
}
