//! The process's own memory counters, read from `/proc/self/status`.

/// A `kB` field of a `/proc/<pid>/status` document, in MB (2^20 bytes).
pub fn status_mb(status: &str, field: &str) -> Option<f64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        let kb = rest.trim().strip_suffix("kB")?.trim().parse::<u64>().ok()?;
        Some(kb as f64 / 1024.0)
    })
}

fn own(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_mb(&s, field))
        .unwrap_or(0.0)
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    own("VmHWM")
}

/// Current resident set size (`VmRSS`), in MB.
pub fn rss_mb() -> f64 {
    own("VmRSS")
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tdyno-perfbench\nVmPeak:\t  912340 kB\n\
                          VmHWM:\t  614400 kB\nVmRSS:\t   20480 kB\nThreads:\t1\n";

    #[test]
    fn parses_hwm_and_rss_in_mb() {
        assert_eq!(status_mb(STATUS, "VmHWM"), Some(600.0));
        assert_eq!(status_mb(STATUS, "VmRSS"), Some(20.0));
    }

    #[test]
    fn missing_or_malformed_fields_are_none() {
        assert_eq!(status_mb(STATUS, "VmSwap"), None);
        assert_eq!(status_mb(STATUS, "Threads"), None);
        assert_eq!(status_mb("VmHWM:\tlots kB\n", "VmHWM"), None);
        // A field name that is only a prefix of another must not match.
        assert_eq!(status_mb("VmHWMx:\t1 kB\n", "VmHWM"), None);
    }

    #[test]
    fn own_status_is_readable() {
        // Read the current size first: other tests allocate concurrently,
        // and the high-water mark can only have grown since.
        let rss = rss_mb();
        assert!(rss > 0.0);
        assert!(peak_rss_mb() >= rss);
    }
}
