//! Per-layer accumulators and the process counters the benchmark reads.
//!
//! Every number here is taken from outside the program: a span is the
//! wall time of one call into a layer's public function, made by the
//! benchmark itself.

use std::collections::BTreeMap;
use std::time::Instant;

/// Named per-layer values, summed over every span or count recorded under
/// the same name.
#[derive(Debug, Default)]
pub struct Ledger {
    values: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Runs `f`, adding its wall time in seconds under `key`.
    pub fn time<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(key, start.elapsed().as_secs_f64());
        out
    }

    /// Adds `v` to the value under `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.values.entry(key).or_insert(0.0) += v;
    }

    /// Replaces the value under `key`.
    pub fn set(&mut self, key: &'static str, v: f64) {
        self.values.insert(key, v);
    }

    /// The value under `key`, 0 if nothing was recorded.
    #[must_use]
    pub fn get(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }

    /// Folds another ledger into this one (values under the same name add).
    pub fn merge(&mut self, other: Ledger) {
        for (k, v) in other.values {
            self.add(k, v);
        }
    }

    /// Adds the rates and ratios derived from the raw spans and counts.
    pub fn derive(&mut self) {
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let v = |k: &str| self.get(k);
        let derived = [
            ("gen.ns_per_edge", ratio(v("gen.s") * 1e9, v("gen.edges"))),
            (
                "rounds.ns_per_node_round",
                ratio((v("rounds.luby_s") + v("rounds.matching_s")) * 1e9, v("rounds.node_rounds")),
            ),
            ("views.ns_per_node", ratio(v("views.linial_s") * 1e9, v("views.nodes"))),
            ("snapshot.write_mb_per_s", ratio(v("snapshot.bytes") / 1e6, v("snapshot.write_s"))),
            ("snapshot.load_mb_per_s", ratio(v("snapshot.load_bytes") / 1e6, v("snapshot.load_s"))),
        ];
        for (k, x) in derived {
            self.set(k, x);
        }
    }

    /// The ledger as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let fields: Vec<String> =
            self.values.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_num(*v))).collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// A JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number (non-finite values, which JSON cannot hold, read as 0).
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds consumed by every thread of this process
/// (`/proc/self/stat`, in clock ticks of 1/100 s).
#[must_use]
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Median of a sample (0 for an empty one).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of a sample by linear interpolation (0 if empty).
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    #[allow(clippy::cast_precision_loss)]
    let pos = q * (v.len() - 1) as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    #[allow(clippy::cast_precision_loss)]
    let frac = pos - lo as f64;
    v[lo] + (v[hi] - v[lo]) * frac
}

/// Total size in bytes of the regular files under `dir` (recursively).
#[must_use]
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// FNV-1a 64 over a byte string: the rows digest.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}
