//! The high-level consolidation API: pick a scheme, place, simulate.

use bursty_obs::durable::FsStore;
use bursty_obs::{Counter, Gauge, NoopRecorder, Recorder};
use bursty_placement::{
    first_fit_batch_with, BaseStrategy, PackError, PeakStrategy, Placement, PlacementState,
    QueueStrategy, ReserveStrategy, Strategy,
};
use bursty_sim::{
    CheckpointConfig, CheckpointError, CheckpointedRun, ObservedPolicy, PeakPolicy, QueuePolicy,
    RecoveryReport, RuntimePolicy, SimConfig, SimOutcome, Simulator,
};
use bursty_workload::patterns::defaults;
use bursty_workload::{PmSpec, VmSpec};

/// The four consolidation schemes the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// The paper's burstiness-aware QueuingFFD (Algorithm 2) with Eq.-17
    /// runtime admission.
    Queue,
    /// FFD by peak demand — provisioning for peak workload.
    Rp,
    /// FFD by normal demand — provisioning for normal workload.
    Rb,
    /// FFD by normal demand with a fixed per-PM reserve fraction
    /// `δ = 0.3`.
    RbEx,
}

impl Scheme {
    /// The paper's label for the scheme.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::Queue => "QUEUE",
            Scheme::Rp => "RP",
            Scheme::Rb => "RB",
            Scheme::RbEx => "RB-EX",
        }
    }
}

/// Configuration + scheme bundle with the paper's defaults
/// (`ρ = 0.01`, `d = 16`, `p_on = 0.01`, `p_off = 0.09`).
///
/// The switch probabilities are QUEUE's *floor*: packing and the runtime
/// policy price each PM at the hottest chain it hosts, and never below
/// this pair's `π = p_on/(p_on + p_off)` (see
/// [`bursty_placement::QueueStrategy`]). A plan from fitted specs carries
/// its margin for fit error in the specs themselves: `bursty plan` fits
/// each VM at its own Wilson bounds
/// ([`bursty_workload::FittedModel::to_bounded_spec`]) and floors at the
/// coldest bounded spec's pair, which never binds.
///
/// Every fleet is placed by one First Fit, the batch packer's class-run
/// placer (see [`Consolidator::place`]); no census picks a packer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Consolidator {
    scheme: Scheme,
    /// CVR bound `ρ`.
    pub rho: f64,
    /// Maximum VMs per PM (`d`) for the queue scheme.
    pub d: usize,
    /// Uniform OFF→ON probability.
    pub p_on: f64,
    /// Uniform ON→OFF probability.
    pub p_off: f64,
}

impl Consolidator {
    /// Creates a consolidator with the paper's default parameters.
    pub fn new(scheme: Scheme) -> Self {
        Self {
            scheme,
            rho: defaults::RHO,
            d: defaults::MAX_VMS_PER_PM,
            p_on: defaults::P_ON,
            p_off: defaults::P_OFF,
        }
    }

    /// Overrides the CVR bound.
    pub fn with_rho(mut self, rho: f64) -> Self {
        assert!(rho > 0.0 && rho < 1.0, "rho must be in (0,1)");
        self.rho = rho;
        self
    }

    /// Overrides the per-PM VM cap.
    pub fn with_d(mut self, d: usize) -> Self {
        assert!(d >= 1, "d must be at least 1");
        self.d = d;
        self
    }

    /// Overrides the switch probabilities of QUEUE's floor pair (see
    /// [`Consolidator`]). Both must lie in `(0, 1]` — a zero probability
    /// degenerates the ON-OFF chain (a VM that can never switch), and
    /// anything outside `[0, 1]` is not a probability.
    pub fn with_probabilities(mut self, p_on: f64, p_off: f64) -> Self {
        assert!(
            p_on > 0.0 && p_on <= 1.0,
            "p_on must be in (0,1], got {p_on}"
        );
        assert!(
            p_off > 0.0 && p_off <= 1.0,
            "p_off must be in (0,1], got {p_off}"
        );
        self.p_on = p_on;
        self.p_off = p_off;
        self
    }

    /// Builds the packing strategy for the scheme.
    pub fn strategy(&self) -> Box<dyn Strategy> {
        match self.scheme {
            Scheme::Queue => Box::new(QueueStrategy::build(
                self.d, self.p_on, self.p_off, self.rho,
            )),
            Scheme::Rp => Box::new(PeakStrategy),
            Scheme::Rb => Box::new(BaseStrategy),
            Scheme::RbEx => Box::new(ReserveStrategy),
        }
    }

    /// Builds the runtime (migration-target) admission policy matching the
    /// scheme's knowledge model. QUEUE's is [`Consolidator::strategy`]'s
    /// rule and floor, pricing through the same process-wide
    /// `π`-threshold table of `(d, ρ)`, so packing and migration targeting
    /// charge every load the same blocks.
    pub fn policy(&self) -> Box<dyn RuntimePolicy> {
        match self.scheme {
            Scheme::Queue => Box::new(QueuePolicy::new(QueueStrategy::build(
                self.d, self.p_on, self.p_off, self.rho,
            ))),
            Scheme::Rp => Box::new(PeakPolicy::default()),
            Scheme::Rb => Box::new(ObservedPolicy::rb()),
            Scheme::RbEx => Box::new(ObservedPolicy::rb_ex()),
        }
    }

    /// Whether [`Consolidator::place`] takes the batch packer
    /// ([`bursty_placement::first_fit_batch`]) for this fleet: always
    /// `true`, since `place` packs every fleet there. It reads nothing and
    /// stays only for the benchmark harness, which still reports it; the
    /// benchmark change that drops that report deletes it.
    pub fn uses_batch(&self, _vms: &[VmSpec]) -> bool {
        true
    }

    /// Consolidates `vms` onto `pms` (paper Algorithm 2 for
    /// [`Scheme::Queue`], plain FFD otherwise) with the batch packer
    /// ([`bursty_placement::first_fit_batch`]): whole classes as single
    /// runs when the fleet collapses to at most 96 classes without a
    /// cross-class key tie, the per-VM FFD order in class runs otherwise.
    /// The placement is byte-identical to the per-VM
    /// [`bursty_placement::first_fit`] on every input.
    ///
    /// # Errors
    /// [`PackError`] if some VM fits nowhere.
    pub fn place(&self, vms: &[VmSpec], pms: &[PmSpec]) -> Result<Placement, PackError> {
        self.place_recorded(vms, pms, &mut NoopRecorder)
    }

    /// [`Consolidator::place`] with packing counters/gauges flowing into
    /// `rec`: the packer's candidate PMs and rejections
    /// ([`Counter::PackProbes`], [`Counter::PackRejectedProbes`], one per
    /// (class run, candidate PM), booked on failure too), then on success
    /// every VM under [`Counter::BatchPlacedVms`] and the
    /// [`Gauge::PmsUsedAtPack`] gauge. Nothing is recorded inside the
    /// run-placement loop. With [`bursty_obs::NoopRecorder`] this is
    /// exactly `place`.
    ///
    /// # Errors
    /// [`PackError`] if some VM fits nowhere.
    pub fn place_recorded<R: Recorder>(
        &self,
        vms: &[VmSpec],
        pms: &[PmSpec],
        rec: &mut R,
    ) -> Result<Placement, PackError> {
        let mut state = PlacementState::new();
        let packed = first_fit_batch_with(&mut state, vms, pms, self.strategy().as_ref());
        let pack = state.last_pack();
        rec.counter_add(Counter::PackProbes, pack.probes);
        rec.counter_add(Counter::PackRejectedProbes, pack.rejected_probes);
        let placement = packed?;
        rec.counter_add(Counter::BatchPlacedVms, vms.len() as u64);
        if R::ENABLED {
            rec.gauge_set(Gauge::PmsUsedAtPack, placement.pms_used() as f64);
        }
        Ok(placement)
    }

    /// Simulates a placed cluster under this scheme's runtime policy.
    pub fn simulate(
        &self,
        vms: &[VmSpec],
        pms: &[PmSpec],
        placement: &Placement,
        config: SimConfig,
    ) -> SimOutcome {
        self.simulate_recorded(vms, pms, placement, config, &mut NoopRecorder)
    }

    /// [`Consolidator::simulate`] with runtime counters, the event journal
    /// and CVR sampling flowing into `rec`. Outcomes are bit-identical to
    /// `simulate` for any recorder (see `Simulator::run_recorded`).
    pub fn simulate_recorded<R: Recorder>(
        &self,
        vms: &[VmSpec],
        pms: &[PmSpec],
        placement: &Placement,
        config: SimConfig,
        rec: &mut R,
    ) -> SimOutcome {
        let policy = self.policy();
        Simulator::new(vms, pms, policy.as_ref(), config).run_recorded(placement, rec)
    }

    /// [`Consolidator::simulate_recorded`] with crash-safe checkpoints
    /// written to `ckpt.dir` every `ckpt.every` steps (atomic temp +
    /// fsync + rename writes, newest `ckpt.keep` retained). The outcome
    /// is bit-identical to an uncheckpointed run; snapshot-write
    /// failures never abort the simulation — they surface in
    /// [`bursty_sim::CheckpointedRun::save_errors`].
    ///
    /// # Errors
    /// `io::Error` if the checkpoint directory cannot be opened.
    pub fn simulate_checkpointed<R: Recorder>(
        &self,
        vms: &[VmSpec],
        pms: &[PmSpec],
        placement: &Placement,
        config: SimConfig,
        ckpt: &CheckpointConfig,
        rec: &mut R,
    ) -> std::io::Result<CheckpointedRun> {
        let store = FsStore::open(&ckpt.dir)?;
        let policy = self.policy();
        Ok(Simulator::new(vms, pms, policy.as_ref(), config)
            .run_with_checkpoints(placement, ckpt, store, rec))
    }

    /// Resumes an interrupted [`Consolidator::simulate_checkpointed`]
    /// run from the newest verifying snapshot in `ckpt.dir` and carries
    /// it to completion (checkpointing continues from where the loaded
    /// snapshot left off). The caller must pass the same fleet, scheme
    /// parameters and `config` the snapshots were written under — a
    /// fingerprint over all of them (except the thread count, which
    /// never changes results) rejects mismatches with
    /// [`CheckpointError::FingerprintMismatch`].
    ///
    /// # Errors
    /// [`CheckpointError`] if the store is unreadable, every retained
    /// snapshot fails verification, or the fingerprint mismatches.
    pub fn resume_checkpointed<R: Recorder>(
        &self,
        vms: &[VmSpec],
        pms: &[PmSpec],
        config: SimConfig,
        ckpt: &CheckpointConfig,
        rec: &mut R,
    ) -> Result<(CheckpointedRun, RecoveryReport), CheckpointError> {
        let store = FsStore::open(&ckpt.dir).map_err(CheckpointError::Io)?;
        let policy = self.policy();
        Simulator::new(vms, pms, policy.as_ref(), config).resume_with_checkpoints(ckpt, store, rec)
    }

    /// Place-then-simulate in one call.
    ///
    /// # Errors
    /// Propagates packing failures.
    pub fn evaluate(
        &self,
        vms: &[VmSpec],
        pms: &[PmSpec],
        config: SimConfig,
    ) -> Result<(Placement, SimOutcome), PackError> {
        self.evaluate_recorded(vms, pms, config, &mut NoopRecorder)
    }

    /// Place-then-simulate with one recorder observing both phases.
    ///
    /// # Errors
    /// Propagates packing failures.
    pub(crate) fn evaluate_recorded<R: Recorder>(
        &self,
        vms: &[VmSpec],
        pms: &[PmSpec],
        config: SimConfig,
        rec: &mut R,
    ) -> Result<(Placement, SimOutcome), PackError> {
        let placement = self.place_recorded(vms, pms, rec)?;
        let outcome = self.simulate_recorded(vms, pms, &placement, config, rec);
        Ok((placement, outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bursty_workload::{FleetGenerator, WorkloadPattern};

    fn fleet(n: usize, seed: u64) -> (Vec<VmSpec>, Vec<PmSpec>) {
        let mut g = FleetGenerator::new(seed);
        let vms = g.vms(n, WorkloadPattern::EqualSpike);
        let pms = g.pms(2 * n);
        (vms, pms)
    }

    #[test]
    fn defaults_match_paper() {
        let c = Consolidator::new(Scheme::Queue);
        assert_eq!(c.rho, 0.01);
        assert_eq!(c.d, 16);
        assert_eq!(c.p_on, 0.01);
        assert_eq!(c.p_off, 0.09);
    }

    #[test]
    fn labels() {
        assert_eq!(Scheme::Queue.label(), "QUEUE");
        assert_eq!(Scheme::Rp.label(), "RP");
        assert_eq!(Scheme::Rb.label(), "RB");
        assert_eq!(Scheme::RbEx.label(), "RB-EX");
    }

    #[test]
    fn queue_beats_peak_on_paper_workload() {
        let (vms, pms) = fleet(120, 1);
        let queue = Consolidator::new(Scheme::Queue).place(&vms, &pms).unwrap();
        let peak = Consolidator::new(Scheme::Rp).place(&vms, &pms).unwrap();
        let base = Consolidator::new(Scheme::Rb).place(&vms, &pms).unwrap();
        assert!(queue.pms_used() < peak.pms_used());
        assert!(base.pms_used() <= queue.pms_used());
    }

    #[test]
    fn evaluate_round_trip_honors_constraint() {
        let (vms, pms) = fleet(60, 2);
        let cfg = SimConfig {
            steps: 3000,
            seed: 3,
            migrations_enabled: false,
            ..Default::default()
        };
        let (_, out) = Consolidator::new(Scheme::Queue)
            .evaluate(&vms, &pms, cfg)
            .unwrap();
        assert!(out.mean_cvr() <= 0.02, "mean CVR {}", out.mean_cvr());
    }

    #[test]
    fn batch_modes_agree_on_placements() {
        use bursty_placement::{first_fit, first_fit_batch};
        let mut g = FleetGenerator::new(9);
        // Duplicate-heavy Table-I fleet: the collapsed route.
        let vms = g.vms_table_i(300, WorkloadPattern::EqualSpike);
        // Duplicate-heavy too, but past the packer's tracked-class table
        // (120 classes, five copies each): the ordered route, by the
        // strategy's own sort.
        let many = fleet_of_classes(600, 120);
        let pms = g.pms(250);
        for vms in [&vms, &many] {
            for scheme in [Scheme::Queue, Scheme::Rp, Scheme::Rb, Scheme::RbEx] {
                let c = Consolidator::new(scheme);
                let placed = c.place(vms, &pms).unwrap();
                let strategy = c.strategy();
                let per_vm = first_fit(vms, &pms, strategy.as_ref()).unwrap();
                let batch = first_fit_batch(vms, &pms, strategy.as_ref()).unwrap();
                assert_eq!(placed, per_vm, "{}", scheme.label());
                assert_eq!(placed, batch, "{}", scheme.label());
            }
        }
    }

    /// `n` VMs over `k` classes, class by class round-robin.
    fn fleet_of_classes(n: usize, k: usize) -> Vec<VmSpec> {
        (0..n)
            .map(|i| VmSpec::new(i, 0.01, 0.09, 2.0 + (i % k) as f64 * 0.05, 3.0))
            .collect()
    }

    /// `place_recorded` on `vms` over a farm of `pms`, held to the per-VM
    /// `first_fit`: the same result, every VM booked under
    /// `BatchPlacedVms` and none under the per-VM counter, and the
    /// candidate counts balanced — every candidate either admitted a fill
    /// or was rejected, and each used PM took at least one fill.
    fn assert_place_matches_first_fit(c: &Consolidator, vms: &[VmSpec], pms: &[PmSpec]) {
        use bursty_obs::MemoryRecorder;
        let mut rec = MemoryRecorder::new(0);
        let placed = c.place_recorded(vms, pms, &mut rec).unwrap();
        let strategy = c.strategy();
        let reference = bursty_placement::first_fit(vms, pms, strategy.as_ref()).unwrap();
        let label = format!("{} n={}", c.scheme.label(), vms.len());
        assert_eq!(placed, reference, "{label}");
        assert_eq!(
            rec.counter(Counter::BatchPlacedVms),
            vms.len() as u64,
            "{label}"
        );
        assert_eq!(rec.counter(Counter::PackPlacedVms), 0, "{label}");
        let fills = rec.counter(Counter::PackProbes) - rec.counter(Counter::PackRejectedProbes);
        assert!(
            placed.pms_used() as u64 <= fills && fills <= vms.len() as u64,
            "{label}: {fills} fills"
        );
    }

    #[test]
    fn place_matches_first_fit_at_every_class_count() {
        // (n, k) on both sides of 2k = n, below, at and past the
        // 96-class table the collapsed route tracks, the empty fleet, and
        // a 4 000-VM all-distinct fleet (uniform draws, one run per VM on
        // the ordered route).
        let cases = [
            (6, 3),
            (5, 3),
            (50, 50),
            (191, 191),
            (192, 96),
            (191, 96),
            (300, 96),
            (194, 97),
            (193, 97),
            (300, 97),
            (400, 200),
            (399, 200),
        ];
        let (distinct, distinct_pms) = fleet(4000, 4);
        for scheme in [Scheme::Queue, Scheme::Rp, Scheme::Rb, Scheme::RbEx] {
            let c = Consolidator::new(scheme);
            for (n, k) in cases {
                let vms = fleet_of_classes(n, k);
                let pms: Vec<PmSpec> = (0..n).map(|j| PmSpec::new(j, 100.0)).collect();
                assert_place_matches_first_fit(&c, &vms, &pms);
            }
            assert_place_matches_first_fit(&c, &[], &[PmSpec::new(0, 100.0)]);
            assert_place_matches_first_fit(&c, &distinct, &distinct_pms);
        }
    }

    #[test]
    fn builders_validate() {
        let c = Consolidator::new(Scheme::Queue)
            .with_rho(0.05)
            .with_d(8)
            .with_probabilities(0.02, 0.2);
        assert_eq!(c.rho, 0.05);
        assert_eq!(c.d, 8);
        assert_eq!((c.p_on, c.p_off), (0.02, 0.2));
    }

    #[test]
    #[should_panic(expected = "rho")]
    fn rho_builder_rejects_bad_value() {
        let _ = Consolidator::new(Scheme::Queue).with_rho(0.0);
    }

    #[test]
    #[should_panic(expected = "p_on must be in (0,1]")]
    fn probabilities_builder_rejects_zero_p_on() {
        let _ = Consolidator::new(Scheme::Queue).with_probabilities(0.0, 0.09);
    }

    #[test]
    #[should_panic(expected = "p_off must be in (0,1]")]
    fn probabilities_builder_rejects_out_of_range_p_off() {
        let _ = Consolidator::new(Scheme::Queue).with_probabilities(0.01, 1.5);
    }

    #[test]
    fn checkpointed_simulation_round_trips_on_disk() {
        let (vms, pms) = fleet(40, 6);
        let c = Consolidator::new(Scheme::Queue);
        let placement = c.place(&vms, &pms).unwrap();
        let cfg = SimConfig {
            steps: 50,
            seed: 11,
            ..Default::default()
        };
        let dir = std::env::temp_dir().join(format!("bckp-consolidator-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let ckpt = CheckpointConfig {
            every: 10,
            keep: 2,
            dir: dir.clone(),
        };

        let baseline = c.simulate(&vms, &pms, &placement, cfg);
        let run = c
            .simulate_checkpointed(&vms, &pms, &placement, cfg, &ckpt, &mut NoopRecorder)
            .unwrap();
        assert!(run.save_errors.is_empty());
        assert_eq!(
            baseline.energy_joules.to_bits(),
            run.outcome.energy_joules.to_bits()
        );

        // The snapshots are still on disk: resuming re-runs the tail from
        // step 40 (the newest retained boundary) to the same result.
        let (resumed, report) = c
            .resume_checkpointed(&vms, &pms, cfg, &ckpt, &mut NoopRecorder)
            .unwrap();
        assert_eq!(report.step, 40);
        assert!(report.discarded.is_empty());
        assert_eq!(
            baseline.energy_joules.to_bits(),
            resumed.outcome.energy_joules.to_bits()
        );
        assert_eq!(
            baseline.mean_cvr().to_bits(),
            resumed.outcome.mean_cvr().to_bits()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strategy_and_policy_share_one_mapping_table() {
        use bursty_placement::{MappingTable, PmLoad, QueueStrategy};
        // The packing strategy and the runtime policy `policy()` builds
        // price a load at the floor pair by Algorithm 1's `mapping(k)`, at
        // every k up to the d cap.
        let c = Consolidator::new(Scheme::Queue);
        let strategy = c.strategy();
        let policy = QueuePolicy::new(QueueStrategy::build(c.d, c.p_on, c.p_off, c.rho));
        let mapping = MappingTable::build(c.d, c.p_on, c.p_off, c.rho);
        let vms: Vec<VmSpec> = (0..c.d)
            .map(|i| VmSpec::new(i, c.p_on, c.p_off, 1.0, 2.0))
            .collect();
        for k in 1..=c.d {
            let load = PmLoad::rebuild(&vms[..k]);
            let price = 2.0 * mapping.blocks_for(k) as f64 + k as f64;
            assert_eq!(strategy.need(&load), price, "k {k}");
            assert_eq!(policy.strategy().need(&load), price, "k {k}");
        }
    }

    #[test]
    fn policies_and_strategies_share_labels() {
        for scheme in [Scheme::Queue, Scheme::Rp, Scheme::Rb, Scheme::RbEx] {
            let c = Consolidator::new(scheme);
            assert_eq!(c.strategy().name(), scheme.label());
            assert_eq!(c.policy().name(), scheme.label());
        }
    }
}
