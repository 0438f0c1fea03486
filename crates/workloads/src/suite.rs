//! The benchmark suites of the paper's evaluation, mapped onto synthetic
//! workload generators.
//!
//! The paper evaluates 78 workloads drawn from SPEC2006, SPEC2017, GAP,
//! COMMERCIAL, PARSEC, BIOBENCH, six random mixes and GUPS. The original Pin
//! traces are not redistributable, so each named workload is assigned a
//! synthetic profile (memory intensity, footprint, and hot-row behaviour)
//! that reproduces the property driving the paper's results: whether the
//! workload contains rows that cross the swap threshold within a refresh
//! window. Workloads the paper singles out as RRS-hostile (gcc, hmmer,
//! bzip2, zeusmp, astar, sphinx3, xz_17, GUPS) get hot-row-heavy profiles.

use crate::synth::{AccessPattern, WorkloadSpec};

/// The benchmark suites of the evaluation (Figure 14's x-axis groups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// The GUPS random-access kernel.
    Gups,
    /// SPEC CPU2006 (29 workloads).
    Spec2006,
    /// SPEC CPU2017 (22 workloads).
    Spec2017,
    /// The GAP graph benchmarks (6 workloads).
    Gap,
    /// Commercial server traces from the USIMM distribution (5 workloads).
    Commercial,
    /// PARSEC multithreaded benchmarks (7 workloads).
    Parsec,
    /// BIOBENCH bioinformatics benchmarks (2 workloads).
    Biobench,
    /// Random multi-programmed mixes (6 workloads).
    Mix,
}

impl Suite {
    /// All suites in the order the paper plots them.
    #[must_use]
    pub fn all() -> &'static [Suite] {
        &[
            Suite::Gups,
            Suite::Spec2006,
            Suite::Spec2017,
            Suite::Gap,
            Suite::Commercial,
            Suite::Parsec,
            Suite::Biobench,
            Suite::Mix,
        ]
    }

    /// Display label used in the figures (e.g. `SPEC2K6(29)`).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Suite::Gups => "GUPS",
            Suite::Spec2006 => "SPEC2K6(29)",
            Suite::Spec2017 => "SPEC2K17(22)",
            Suite::Gap => "GAP(6)",
            Suite::Commercial => "COMMERCIAL(5)",
            Suite::Parsec => "PARSEC(7)",
            Suite::Biobench => "BIOBENCH(2)",
            Suite::Mix => "MIX(6)",
        }
    }
}

/// How aggressive a workload's row-activation behaviour is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Profile {
    /// Hot rows cross the swap threshold many times per window.
    HotRowHeavy,
    /// Some hot rows, moderate intensity.
    Moderate,
    /// Streaming / row-buffer friendly, few swaps.
    Streaming,
    /// Cache-resident, little memory traffic.
    Light,
    /// Uniformly random, very memory intensive (GUPS).
    Random,
}

/// Identity of the trace a [`NamedWorkload`] generates: two workloads with
/// equal keys produce identical records from
/// `spec().generate(records, seed)` for every `(records, seed)`, and
/// workloads with different keys do not. Today the key is the synthetic
/// profile, because the generator reads only the profile's parameters and
/// the seed — never the workload name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceKey(Profile);

/// A named workload belonging to a suite.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedWorkload {
    /// Workload name as used in the paper's figures.
    pub name: &'static str,
    /// The suite it belongs to.
    pub suite: Suite,
    profile: Profile,
}

impl NamedWorkload {
    /// The identity of this workload's generated trace (see [`TraceKey`]).
    /// Cells whose workloads share a key simulate the same records, so
    /// the grid executor may run them on one shared trunk.
    #[must_use]
    pub fn trace_key(&self) -> TraceKey {
        TraceKey(self.profile)
    }

    /// Build the synthetic generator specification for this workload.
    #[must_use]
    pub fn spec(&self) -> WorkloadSpec {
        let (read_fraction, mean_gap, footprint, pattern) = match self.profile {
            Profile::HotRowHeavy => {
                (0.7, 3, 1u64 << 28, AccessPattern::HotRows { hot_rows: 6, hot_fraction: 0.55 })
            }
            Profile::Moderate => {
                (0.7, 8, 1u64 << 29, AccessPattern::HotRows { hot_rows: 16, hot_fraction: 0.25 })
            }
            Profile::Streaming => (0.75, 6, 1u64 << 30, AccessPattern::Streaming { stride: 64 }),
            Profile::Light => (0.8, 40, 1u64 << 22, AccessPattern::RowBurst { burst: 16 }),
            Profile::Random => (0.5, 2, 1u64 << 30, AccessPattern::Uniform),
        };
        WorkloadSpec {
            name: self.name.to_string(),
            footprint_bytes: footprint,
            base_addr: 0,
            read_fraction,
            mean_gap,
            pattern,
        }
    }

    /// Whether this workload is expected to contain rows crossing 800
    /// activations per refresh window (the subset the paper details).
    #[must_use]
    pub fn is_hot_row_workload(&self) -> bool {
        matches!(self.profile, Profile::HotRowHeavy | Profile::Random)
    }
}

macro_rules! workload {
    ($name:literal, $suite:expr, $profile:expr) => {
        NamedWorkload { name: $name, suite: $suite, profile: $profile }
    };
}

/// The full 78-workload list of the evaluation.
#[must_use]
pub fn all_workloads() -> Vec<NamedWorkload> {
    use Profile::*;
    use Suite::*;
    let mut v = vec![workload!("gups", Gups, Random)];
    // SPEC CPU2006 (29).
    let spec06: &[(&'static str, Profile)] = &[
        ("perlbench", Light),
        ("bzip2", HotRowHeavy),
        ("gcc", HotRowHeavy),
        ("bwaves", Streaming),
        ("gamess", Light),
        ("mcf", Moderate),
        ("milc", Streaming),
        ("zeusmp", HotRowHeavy),
        ("gromacs", Light),
        ("cactusADM", Streaming),
        ("leslie3d", Streaming),
        ("namd", Light),
        ("gobmk", Light),
        ("dealII", Light),
        ("soplex", Moderate),
        ("povray", Light),
        ("calculix", Light),
        ("hmmer", HotRowHeavy),
        ("sjeng", Light),
        ("GemsFDTD", Streaming),
        ("libquantum", Streaming),
        ("h264ref", Light),
        ("tonto", Light),
        ("lbm", Streaming),
        ("omnetpp", Moderate),
        ("astar", HotRowHeavy),
        ("wrf", Streaming),
        ("sphinx3", HotRowHeavy),
        ("xalancbmk", Moderate),
    ];
    v.extend(spec06.iter().map(|(n, p)| NamedWorkload { name: n, suite: Spec2006, profile: *p }));
    // SPEC CPU2017 (22).
    let spec17: &[(&'static str, Profile)] = &[
        ("perlbench_17", Light),
        ("gcc_17", Moderate),
        ("bwaves_17", Streaming),
        ("mcf_17", Moderate),
        ("cactuBSSN_17", Streaming),
        ("namd_17", Light),
        ("parest_17", Light),
        ("povray_17", Light),
        ("lbm_17", Streaming),
        ("omnetpp_17", Moderate),
        ("wrf_17", Streaming),
        ("xalancbmk_17", Moderate),
        ("x264_17", Light),
        ("blender_17", Light),
        ("cam4_17", Moderate),
        ("deepsjeng_17", Light),
        ("imagick_17", Light),
        ("leela_17", Light),
        ("nab_17", Light),
        ("exchange2_17", Light),
        ("fotonik3d_17", Streaming),
        ("xz_17", HotRowHeavy),
    ];
    v.extend(spec17.iter().map(|(n, p)| NamedWorkload { name: n, suite: Spec2017, profile: *p }));
    // GAP (6).
    let gap: &[(&'static str, Profile)] = &[
        ("bc", Moderate),
        ("bfs", Moderate),
        ("cc", Moderate),
        ("pr", Moderate),
        ("sssp", Moderate),
        ("tc", Moderate),
    ];
    v.extend(gap.iter().map(|(n, p)| NamedWorkload { name: n, suite: Gap, profile: *p }));
    // COMMERCIAL (5).
    let comm: &[(&'static str, Profile)] = &[
        ("comm1", Moderate),
        ("comm2", Moderate),
        ("comm3", HotRowHeavy),
        ("comm4", Moderate),
        ("comm5", Moderate),
    ];
    v.extend(comm.iter().map(|(n, p)| NamedWorkload { name: n, suite: Commercial, profile: *p }));
    // PARSEC (7).
    let parsec: &[(&'static str, Profile)] = &[
        ("blackscholes", Light),
        ("bodytrack", Light),
        ("canneal", Moderate),
        ("facesim", Streaming),
        ("ferret", Moderate),
        ("fluidanimate", Streaming),
        ("freqmine", Light),
    ];
    v.extend(parsec.iter().map(|(n, p)| NamedWorkload { name: n, suite: Parsec, profile: *p }));
    // BIOBENCH (2).
    let bio: &[(&'static str, Profile)] = &[("mummer", Moderate), ("tigr", HotRowHeavy)];
    v.extend(bio.iter().map(|(n, p)| NamedWorkload { name: n, suite: Biobench, profile: *p }));
    // MIX (6).
    let mix: &[(&'static str, Profile)] = &[
        ("mix1", Moderate),
        ("mix2", HotRowHeavy),
        ("mix3", Moderate),
        ("mix4", Light),
        ("mix5", HotRowHeavy),
        ("mix6", Moderate),
    ];
    v.extend(mix.iter().map(|(n, p)| NamedWorkload { name: n, suite: Mix, profile: *p }));
    v
}

/// The workloads belonging to one suite.
#[must_use]
pub fn workloads_in(suite: Suite) -> Vec<NamedWorkload> {
    all_workloads().into_iter().filter(|w| w.suite == suite).collect()
}

/// The subset of workloads the paper details: those expected to have at
/// least one row with 800+ activations per refresh window.
#[must_use]
pub fn hot_row_workloads() -> Vec<NamedWorkload> {
    all_workloads().into_iter().filter(NamedWorkload::is_hot_row_workload).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_78_workloads() {
        assert_eq!(all_workloads().len(), 78);
    }

    #[test]
    fn suite_sizes_match_the_paper() {
        assert_eq!(workloads_in(Suite::Spec2006).len(), 29);
        assert_eq!(workloads_in(Suite::Spec2017).len(), 22);
        assert_eq!(workloads_in(Suite::Gap).len(), 6);
        assert_eq!(workloads_in(Suite::Commercial).len(), 5);
        assert_eq!(workloads_in(Suite::Parsec).len(), 7);
        assert_eq!(workloads_in(Suite::Biobench).len(), 2);
        assert_eq!(workloads_in(Suite::Mix).len(), 6);
        assert_eq!(workloads_in(Suite::Gups).len(), 1);
    }

    #[test]
    fn names_are_unique() {
        let all = all_workloads();
        let mut names: Vec<_> = all.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn paper_hostile_workloads_are_hot_row_heavy() {
        let all = all_workloads();
        for name in ["gcc", "hmmer", "bzip2", "zeusmp", "astar", "sphinx3", "xz_17", "gups"] {
            let w = all.iter().find(|w| w.name == name).expect(name);
            assert!(w.is_hot_row_workload(), "{name} should be a hot-row workload");
        }
    }

    #[test]
    fn specs_are_generatable() {
        for w in all_workloads().iter().take(5) {
            let trace = w.spec().generate(100, 1);
            assert_eq!(trace.len(), 100);
            assert_eq!(trace.name, w.name);
        }
    }

    /// The grid executor merges cells whose workloads share a trace key
    /// onto one simulation, so the key must track the generator exactly:
    /// if a trace ever depended on something the key leaves out (the
    /// workload name, say), this fails before the planner can merge
    /// different traces.
    #[test]
    fn trace_key_is_equal_exactly_when_generated_records_are() {
        let all = all_workloads();
        for seed in [1, 20_230_225, u64::MAX] {
            let traces: Vec<_> = all.iter().map(|w| w.spec().generate(600, seed)).collect();
            for (a, ta) in all.iter().zip(&traces) {
                for (b, tb) in all.iter().zip(&traces) {
                    assert_eq!(
                        a.trace_key() == b.trace_key(),
                        ta.records == tb.records,
                        "{} and {} at seed {seed}: trace key disagrees with the records",
                        a.name,
                        b.name
                    );
                }
            }
        }
        let mut keys: Vec<TraceKey> = Vec::new();
        for w in &all {
            if !keys.contains(&w.trace_key()) {
                keys.push(w.trace_key());
            }
        }
        assert_eq!(keys.len(), 5, "the registry maps its 78 workloads onto 5 profiles");
    }

    #[test]
    fn suite_labels_match_figure_axis() {
        assert_eq!(Suite::Spec2006.label(), "SPEC2K6(29)");
        assert_eq!(Suite::all().len(), 8);
    }
}
