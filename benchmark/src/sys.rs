//! What the operating system knows about this process: peak resident set
//! and CPU time, read from `/proc` (the benchmark links no libc crate).

/// Peak resident set size (`VmHWM`) of this process in MB; 0 where
/// `/proc` does not provide it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds from a `/proc/.../stat` file (fields 14
/// and 15, in clock ticks; Linux fixes the tick exposed here at 100 Hz).
fn cpu_seconds(stat_path: &str) -> f64 {
    std::fs::read_to_string(stat_path)
        .ok()
        .and_then(|s| {
            // The command name (field 2) may hold spaces; count from its
            // closing parenthesis.
            let rest = &s[s.rfind(')')? + 1..];
            let mut fields = rest.split_ascii_whitespace().skip(11);
            let utime = fields.next()?.parse::<f64>().ok()?;
            let stime = fields.next()?.parse::<f64>().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// CPU seconds this process (all threads) has used.
pub fn process_cpu_seconds() -> f64 {
    cpu_seconds("/proc/self/stat")
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu_seconds() -> f64 {
    cpu_seconds("/proc/thread-self/stat")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        assert!(peak_rss_mb() > 0.5, "a running test has a resident set");
        let before = process_cpu_seconds();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(
            process_cpu_seconds() >= before + 0.03,
            "60 ms of spinning shows"
        );
        assert!(thread_cpu_seconds() >= 0.03);
    }
}
