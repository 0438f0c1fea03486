//! Shared helpers for the per-figure/per-table benchmark harness.
//!
//! Each `[[bench]]` target of this crate regenerates one table or figure of
//! the paper and prints it as an ASCII table. By default the performance
//! figures run in *quick mode* (scaled-down instruction counts, a
//! representative subset of workloads, a shortened refresh window); set
//! `SRS_BENCH_FULL=1` to sweep every workload at full length — roughly the
//! cost the paper quotes for its own artifact (hours of CPU time).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use srs_core::DefenseKind;
use srs_sim::spec::Preset;
use srs_sim::Experiment;
use srs_workloads::{all_workloads, NamedWorkload};

/// Whether the harness should run the full (slow) configuration.
#[must_use]
pub fn full_mode() -> bool {
    std::env::var("SRS_BENCH_FULL")
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        .unwrap_or(false)
}

/// The workloads a performance figure sweeps: every workload in full mode, a
/// representative subset (the hot-row workloads the paper details plus a few
/// streaming/light ones) in quick mode.
#[must_use]
pub fn figure_workloads() -> Vec<NamedWorkload> {
    let all = all_workloads();
    if full_mode() {
        return all;
    }
    let keep = [
        "gups",
        "gcc",
        "hmmer",
        "bzip2",
        "zeusmp",
        "astar",
        "sphinx3",
        "xz_17",
        "libquantum",
        "mcf",
        "blackscholes",
        "mix2",
    ];
    all.into_iter().filter(|w| keep.contains(&w.name)).collect()
}

/// The configuration preset a performance figure uses: the paper's
/// full-size Table III configuration in full mode, the scaled-down quick
/// configuration otherwise.
#[must_use]
pub fn figure_preset() -> Preset {
    if full_mode() {
        Preset::Paper
    } else {
        Preset::ScaledForSpeed
    }
}

/// The scenario grid a performance figure sweeps: the given defenses and
/// thresholds over [`figure_workloads`], with the mode-appropriate
/// [`figure_preset`] (the engine's default worker-thread budget applies).
/// Figures add further axes (e.g. a tracker) with the [`Experiment`]
/// builder methods.
#[must_use]
pub fn figure_experiment(defenses: Vec<DefenseKind>, thresholds: Vec<u64>) -> Experiment {
    Experiment::new()
        .with_defenses(defenses)
        .with_thresholds(thresholds)
        .with_workloads(figure_workloads())
        .with_preset(figure_preset())
}

/// Print a table with a title, header row and data rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>width$}", width = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!("{}", "-".repeat(header_line.join("  ").len()));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Format a time-to-break in days the way the figures label it.
#[must_use]
pub fn format_days(days: f64) -> String {
    if !days.is_finite() {
        ">10^6".to_string()
    } else if days >= 365.0 {
        format!("{:.1}y", days / 365.0)
    } else if days >= 1.0 {
        format!("{days:.1}d")
    } else if days * 24.0 >= 1.0 {
        format!("{:.1}h", days * 24.0)
    } else {
        format!("{:.1}s", days * 86_400.0)
    }
}

/// Format a normalized-performance value.
#[must_use]
pub fn format_norm(value: f64) -> String {
    format!("{value:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_workloads_are_a_subset() {
        let quick = figure_workloads();
        assert!(!quick.is_empty());
        assert!(quick.len() <= all_workloads().len());
    }

    #[test]
    fn format_days_covers_ranges() {
        assert_eq!(format_days(f64::INFINITY), ">10^6");
        assert!(format_days(730.0).ends_with('y'));
        assert!(format_days(5.0).ends_with('d'));
        assert!(format_days(0.2).ends_with('h'));
        assert!(format_days(0.0001).ends_with('s'));
    }

    #[test]
    fn figure_preset_defaults_to_quick_mode() {
        // CI and tests run without SRS_BENCH_FULL, so the grid builder must
        // produce the scaled-down configuration there.
        if !full_mode() {
            assert_eq!(figure_preset(), Preset::ScaledForSpeed);
        }
        let experiment = figure_experiment(vec![DefenseKind::Srs], vec![1200]);
        assert_eq!(experiment.scenarios()[0].t_rh, 1200);
    }
}
