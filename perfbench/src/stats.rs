//! Order statistics and the host facts reported beside every result.

/// The `q`-quantile (0..=1) of `values` by the nearest-rank method on a
/// sorted copy. `f64::INFINITY` entries (requests that failed, were shed or
/// timed out) sort last, so they count as missing every latency limit.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Seconds elapsed while running `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = std::time::Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64(), out)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// The ISA level the workspace's multiversioned kernels dispatch to, in the
/// same order of preference as `coane_nn`'s dispatch.
pub fn isa_level() -> (&'static str, f64) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return ("avx512f", 2.0);
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return ("avx2", 1.0);
        }
    }
    ("scalar", 0.0)
}

/// 64-bit FNV-1a over the f32 bit patterns of an embedding.
pub fn embed_hash(values: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &x in values {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// CPU model, core count, ISA level, rustc version and source commit.
pub fn host_fingerprint() -> serde::Value {
    use serde::Value;
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    let mut obj = std::collections::BTreeMap::new();
    obj.insert("cpu".into(), Value::String(cpu));
    obj.insert("nproc".into(), Value::Number(nproc as f64));
    obj.insert("isa".into(), Value::String(isa_level().0.into()));
    obj.insert("rustc".into(), Value::String(rustc));
    obj.insert("commit".into(), Value::String(git_commit()));
    Value::Object(obj)
}

/// The checked-out commit, read from `.git` when the checkout has one.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| format!("unresolved {r}"), |s| s.trim().to_string()),
        None => head,
    }
}
