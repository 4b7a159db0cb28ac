//! Peak resident memory of this process.

/// `struct rusage` of 64-bit Linux: two `struct timeval`s, then
/// fourteen `long`s starting with `ru_maxrss` (KiB).
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Peak resident set size of this process so far, in MiB.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn peak_mib() -> std::io::Result<f64> {
    let mut usage = RUsage {
        times: [0; 4],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` for this
    // target (the layout above), and `RUSAGE_SELF` is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(usage.maxrss_kib as f64 / 1024.0)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads peak RSS through getrusage on 64-bit Linux");

#[cfg(test)]
mod tests {
    #[test]
    fn peak_rss_grows_with_a_touched_allocation() {
        let before = super::peak_mib().unwrap();
        assert!(before > 0.0);
        let big = std::hint::black_box(vec![1u8; 64 << 20]);
        let after = super::peak_mib().unwrap();
        assert!(after >= before + 32.0, "{before} -> {after}");
        drop(big);
    }
}
