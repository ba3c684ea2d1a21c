//! Snapshot exporters: Prometheus text exposition and a JSON dump,
//! both rendered deterministically and written atomically.
//!
//! Rendering is a pure function of the [`Snapshot`] — series iterate
//! in sorted name order and floats format through Rust's shortest
//! round-trip `Display` — so identical snapshots produce byte-identical
//! files and the snapshot-determinism tests can compare raw bytes.
//! Files land via the same temp+rename discipline release files use:
//! a scraper (or a crash) sees the previous complete snapshot or the
//! new one, never a torn mix.

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

use crate::histogram::HistogramSnapshot;
use crate::registry::{SnapValue, Snapshot};

/// Format a float the way both exporters do: Rust's shortest
/// round-trip representation, with non-finite values spelled the
/// Prometheus way (`NaN`, `+Inf`, `-Inf`).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 {
            "+Inf".to_string()
        } else {
            "-Inf".to_string()
        }
    } else {
        format!("{v}")
    }
}

/// The family name of a series (the part before any label suffix).
fn family(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Render a snapshot in the Prometheus text exposition format, with
/// one `# TYPE` line per family and histograms expanded into
/// cumulative `_bucket{le=...}` / `_sum` / `_count` series.
pub fn prometheus_text(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_family = String::new();
    for (name, value) in &snapshot.values {
        let fam = family(name);
        let type_name = match value {
            SnapValue::Counter(_) => "counter",
            SnapValue::Gauge(_) => "gauge",
            SnapValue::Histogram(_) => "histogram",
        };
        if fam != last_family {
            out.push_str(&format!("# TYPE {fam} {type_name}\n"));
            last_family = fam.to_string();
        }
        match value {
            SnapValue::Counter(v) => out.push_str(&format!("{name} {v}\n")),
            SnapValue::Gauge(v) => out.push_str(&format!("{name} {}\n", fmt_f64(*v))),
            SnapValue::Histogram(h) => {
                let mut cumulative = 0u64;
                for (bound, count) in h.bounds.iter().zip(&h.buckets) {
                    cumulative += count;
                    out.push_str(&format!(
                        "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                        fmt_f64(*bound)
                    ));
                }
                out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
                out.push_str(&format!("{name}_sum {}\n", fmt_f64(h.sum)));
                out.push_str(&format!("{name}_count {}\n", h.count));
            }
        }
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_f64(v: f64) -> String {
    // JSON has no NaN/Inf literals; null keeps the document valid.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), json_f64)
}

fn json_histogram(h: &HistogramSnapshot) -> String {
    let buckets: Vec<String> = h
        .bounds
        .iter()
        .zip(&h.buckets)
        .map(|(b, c)| format!("{{\"le\":{},\"count\":{c}}}", json_f64(*b)))
        .chain(std::iter::once(format!(
            "{{\"le\":null,\"count\":{}}}",
            h.buckets.last().copied().unwrap_or(0)
        )))
        .collect();
    format!(
        "{{\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{},\"exact\":{},\"buckets\":[{}]}}",
        h.count,
        json_f64(h.sum),
        json_opt(h.p50()),
        json_opt(h.p99()),
        h.is_exact(),
        buckets.join(",")
    )
}

/// Render a snapshot as a JSON document:
/// `{"counters": {...}, "gauges": {...}, "histograms": {...}}` with
/// series in sorted name order and per-histogram exact p50/p99.
pub fn json_text(snapshot: &Snapshot) -> String {
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    for (name, value) in &snapshot.values {
        let key = json_escape(name);
        match value {
            SnapValue::Counter(v) => counters.push(format!("\"{key}\":{v}")),
            SnapValue::Gauge(v) => gauges.push(format!("\"{key}\":{}", json_f64(*v))),
            SnapValue::Histogram(h) => histograms.push(format!("\"{key}\":{}", json_histogram(h))),
        }
    }
    format!(
        "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}\n",
        counters.join(","),
        gauges.join(","),
        histograms.join(",")
    )
}

/// Write `contents` to `path` atomically: temp file in the same
/// directory, flush to stable storage, then rename over the target. A
/// reader polling the file never observes a partial snapshot.
pub fn write_atomic(path: &Path, contents: &[u8]) -> io::Result<()> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(contents)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, path)
}

/// Snapshot → Prometheus text → atomic write, in one call.
pub fn write_prometheus(path: &Path, snapshot: &Snapshot) -> io::Result<()> {
    write_atomic(path, prometheus_text(snapshot).as_bytes())
}

/// Snapshot → JSON dump → atomic write, in one call.
pub fn write_json(path: &Path, snapshot: &Snapshot) -> io::Result<()> {
    write_atomic(path, json_text(snapshot).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("dpsan_releases_total").add(3);
        r.counter_with("dpsan_solves_total", "path", "cold_primal").add(2);
        r.counter_with("dpsan_solves_total", "path", "cold_primal_sparse").inc();
        r.gauge("dpsan_budget_epsilon_spent").set(1.5);
        let h = r.histogram("dpsan_wal_fsync_seconds", vec![0.001, 0.01]);
        h.record(0.0005);
        h.record(0.0005);
        h.record(0.02);
        r
    }

    #[test]
    fn prometheus_text_renders_all_types() {
        let text = prometheus_text(&sample_registry().snapshot());
        let expected = "\
# TYPE dpsan_budget_epsilon_spent gauge
dpsan_budget_epsilon_spent 1.5
# TYPE dpsan_releases_total counter
dpsan_releases_total 3
# TYPE dpsan_solves_total counter
dpsan_solves_total{path=\"cold_primal\"} 2
dpsan_solves_total{path=\"cold_primal_sparse\"} 1
# TYPE dpsan_wal_fsync_seconds histogram
dpsan_wal_fsync_seconds_bucket{le=\"0.001\"} 2
dpsan_wal_fsync_seconds_bucket{le=\"0.01\"} 2
dpsan_wal_fsync_seconds_bucket{le=\"+Inf\"} 3
dpsan_wal_fsync_seconds_sum 0.021
dpsan_wal_fsync_seconds_count 3
";
        assert_eq!(text, expected);
    }

    #[test]
    fn type_line_appears_once_per_family() {
        let text = prometheus_text(&sample_registry().snapshot());
        assert_eq!(text.matches("# TYPE dpsan_solves_total").count(), 1);
    }

    #[test]
    fn json_dump_is_valid_enough_and_deterministic() {
        let r = sample_registry();
        let a = json_text(&r.snapshot());
        let b = json_text(&r.snapshot());
        assert_eq!(a, b, "no activity between snapshots — identical dumps");
        assert!(a.starts_with('{') && a.ends_with("}\n"));
        assert!(a.contains("\"dpsan_releases_total\":3"));
        assert!(a.contains("\"dpsan_solves_total{path=\\\"cold_primal\\\"}\":2"));
        assert!(a.contains("\"p50\":0.0005"));
        assert!(a.contains("\"exact\":true"));
        // Balanced braces/quotes as a cheap well-formedness check.
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('"').count() % 2, 0);
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("dpsan-obs-export-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("metrics.prom");
        write_atomic(&p, b"one").unwrap();
        write_atomic(&p, b"two").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"two");
        assert!(!p.with_file_name("metrics.prom.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_finite_floats_render_the_prometheus_way() {
        assert_eq!(fmt_f64(f64::NAN), "NaN");
        assert_eq!(fmt_f64(f64::INFINITY), "+Inf");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "-Inf");
        assert_eq!(json_f64(f64::NAN), "null");
    }
}
