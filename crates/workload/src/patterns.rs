//! The paper's workload patterns (§V, Fig. 5 caption and Table I).

use std::fmt;
use std::ops::Range;

/// The three workload patterns distinguished in every experiment of §V.
///
/// Names follow the paper's inequality between base demand and spike size:
/// `R_b = R_e` is a "normal" spike, `R_b > R_e` a small spike, `R_b < R_e`
/// a large spike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadPattern {
    /// `R_b = R_e`: normal spike size. Fig. 5(a): both drawn from `[2, 20]`.
    EqualSpike,
    /// `R_b > R_e`: small spike. Fig. 5(b): `R_b ∈ [12, 20]`, `R_e ∈ [2, 10]`.
    SmallSpike,
    /// `R_b < R_e`: large spike. Fig. 5(c): `R_b ∈ [2, 10]`, `R_e ∈ [12, 20]`.
    LargeSpike,
}

impl WorkloadPattern {
    /// All three patterns, in the paper's presentation order.
    pub const ALL: [WorkloadPattern; 3] = [
        WorkloadPattern::EqualSpike,
        WorkloadPattern::SmallSpike,
        WorkloadPattern::LargeSpike,
    ];

    /// The `R_b` sampling range used in the Fig.-5 packing experiments.
    pub(crate) fn r_b_range(self) -> Range<f64> {
        match self {
            WorkloadPattern::EqualSpike => 2.0..20.0,
            WorkloadPattern::SmallSpike => 12.0..20.0,
            WorkloadPattern::LargeSpike => 2.0..10.0,
        }
    }

    /// The `R_e` sampling range used in the Fig.-5 packing experiments.
    pub(crate) fn r_e_range(self) -> Range<f64> {
        match self {
            WorkloadPattern::EqualSpike => 2.0..20.0,
            WorkloadPattern::SmallSpike => 2.0..10.0,
            WorkloadPattern::LargeSpike => 12.0..20.0,
        }
    }

    /// The paper's compact label (`R_b = R_e` etc.).
    pub fn label(self) -> &'static str {
        match self {
            WorkloadPattern::EqualSpike => "Rb = Re",
            WorkloadPattern::SmallSpike => "Rb > Re",
            WorkloadPattern::LargeSpike => "Rb < Re",
        }
    }
}

impl fmt::Display for WorkloadPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Table I's size classes for the §V-D live-migration experiments.
///
/// Each class accommodates a fixed user population; demand is quantified by
/// the request rate that population generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SizeClass {
    /// 400 users.
    Small,
    /// 800 users.
    Medium,
    /// 1600 users.
    Large,
}

impl SizeClass {
    /// The user population this class accommodates (Table I).
    pub fn users(self) -> u32 {
        match self {
            SizeClass::Small => 400,
            SizeClass::Medium => 800,
            SizeClass::Large => 1600,
        }
    }

    /// Nominal resource units for this class. Users map linearly onto the
    /// abstract resource scale used by the Fig.-5 experiments
    /// (400 users ≙ 5 units), so both experiment families share PM sizing.
    pub fn resource_units(self) -> f64 {
        self.users() as f64 / 80.0
    }
}

impl fmt::Display for SizeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SizeClass::Small => "small",
            SizeClass::Medium => "medium",
            SizeClass::Large => "large",
        };
        f.write_str(s)
    }
}

/// One row of Table I: a `(pattern, R_b class, R_e class)` combination with
/// its normal/peak user capability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableIRow {
    /// Which of the three workload patterns the row belongs to.
    pub pattern: WorkloadPattern,
    /// Size class of the base demand `R_b`.
    pub r_b: SizeClass,
    /// Size class of the spike `R_e`.
    pub r_e: SizeClass,
}

impl TableIRow {
    /// Users accommodated at the normal workload level (Table I column 4).
    pub fn normal_capability(&self) -> u32 {
        self.r_b.users()
    }

    /// Users accommodated at the peak workload level (Table I column 5).
    pub fn peak_capability(&self) -> u32 {
        self.r_b.users() + self.r_e.users()
    }
}

/// The seven rows of Table I, in the paper's order.
pub const TABLE_I: [TableIRow; 7] = [
    TableIRow {
        pattern: WorkloadPattern::EqualSpike,
        r_b: SizeClass::Small,
        r_e: SizeClass::Small,
    },
    TableIRow {
        pattern: WorkloadPattern::EqualSpike,
        r_b: SizeClass::Medium,
        r_e: SizeClass::Medium,
    },
    TableIRow {
        pattern: WorkloadPattern::EqualSpike,
        r_b: SizeClass::Large,
        r_e: SizeClass::Large,
    },
    TableIRow {
        pattern: WorkloadPattern::SmallSpike,
        r_b: SizeClass::Medium,
        r_e: SizeClass::Small,
    },
    TableIRow {
        pattern: WorkloadPattern::SmallSpike,
        r_b: SizeClass::Large,
        r_e: SizeClass::Medium,
    },
    TableIRow {
        pattern: WorkloadPattern::LargeSpike,
        r_b: SizeClass::Small,
        r_e: SizeClass::Medium,
    },
    TableIRow {
        pattern: WorkloadPattern::LargeSpike,
        r_b: SizeClass::Medium,
        r_e: SizeClass::Large,
    },
];

/// The paper's default experiment parameters (Fig. 5/9 captions).
pub mod defaults {
    /// CVR bound `ρ`.
    pub const RHO: f64 = 0.01;
    /// Max VMs per PM, `d`.
    pub const MAX_VMS_PER_PM: usize = 16;
    /// Spike frequency `p_on`.
    pub const P_ON: f64 = 0.01;
    /// Reciprocal spike duration `p_off`.
    pub const P_OFF: f64 = 0.09;
    /// PM capacity range `C_j ∈ [80, 100]`.
    pub const PM_CAPACITY_RANGE: std::ops::Range<f64> = 80.0..100.0;
    /// RB-EX reservation fraction `δ`.
    pub const DELTA: f64 = 0.3;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_ranges_respect_their_inequality() {
        // SmallSpike: every possible R_b exceeds every possible R_e? Not
        // quite (12 > 10 holds at the boundaries) — the ranges guarantee
        // R_b > R_e for all draws.
        let p = WorkloadPattern::SmallSpike;
        assert!(p.r_b_range().start >= p.r_e_range().end);
        let p = WorkloadPattern::LargeSpike;
        assert!(p.r_e_range().start >= p.r_b_range().end);
        let p = WorkloadPattern::EqualSpike;
        assert_eq!(p.r_b_range(), p.r_e_range());
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(WorkloadPattern::EqualSpike.to_string(), "Rb = Re");
        assert_eq!(WorkloadPattern::SmallSpike.to_string(), "Rb > Re");
        assert_eq!(WorkloadPattern::LargeSpike.to_string(), "Rb < Re");
    }

    #[test]
    fn size_class_users_match_table() {
        assert_eq!(SizeClass::Small.users(), 400);
        assert_eq!(SizeClass::Medium.users(), 800);
        assert_eq!(SizeClass::Large.users(), 1600);
    }

    #[test]
    fn table_i_capabilities_match_paper() {
        // Row order: (400,800), (800,1600), (1600,3200), (800,1200),
        // (1600,2400), (400,1200), (800,2400).
        let expect = [
            (400, 800),
            (800, 1600),
            (1600, 3200),
            (800, 1200),
            (1600, 2400),
            (400, 1200),
            (800, 2400),
        ];
        for (row, &(n, p)) in TABLE_I.iter().zip(&expect) {
            assert_eq!(row.normal_capability(), n, "{row:?}");
            assert_eq!(row.peak_capability(), p, "{row:?}");
        }
    }

    #[test]
    fn table_i_covers_all_patterns() {
        for pattern in WorkloadPattern::ALL {
            assert!(TABLE_I.iter().any(|r| r.pattern == pattern));
        }
    }

    #[test]
    fn resource_units_scale_linearly() {
        assert_eq!(SizeClass::Small.resource_units(), 5.0);
        assert_eq!(SizeClass::Medium.resource_units(), 10.0);
        assert_eq!(SizeClass::Large.resource_units(), 20.0);
    }

    #[test]
    fn defaults_match_figure_captions() {
        assert_eq!(defaults::RHO, 0.01);
        assert_eq!(defaults::MAX_VMS_PER_PM, 16);
        assert_eq!(defaults::P_ON, 0.01);
        assert_eq!(defaults::P_OFF, 0.09);
        assert_eq!(defaults::DELTA, 0.3);
    }
}
