//! The four workloads: scenario knobs, sizes, and seed derivation.
//!
//! Every scenario a run executes is a pure function of the workload, the
//! `--seed` argument, and the scenario's index in the run, so the same
//! seed replays the same inputs and a different seed draws fresh ones.

use gossip_core::Rng;
use gossip_experiments::{Grid, Scenario, ScenarioBuilder, SchedulerSpec};

/// Worker threads per scenario (and the pool's core budget on the sweep).
pub const THREADS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SyncGridUniform,
    AsyncRggAdvert,
    ChurnMembership,
    SweepSmall,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SyncGridUniform,
        Workload::AsyncRggAdvert,
        Workload::ChurnMembership,
        Workload::SweepSmall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SyncGridUniform => "sync-grid-uniform",
            Workload::AsyncRggAdvert => "async-rgg-advert",
            Workload::ChurnMembership => "churn-membership",
            Workload::SweepSmall => "sweep-small",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Does this workload run a grid through the pool (rather than one
    /// scenario at a time through `Scenario::run`)?
    pub fn is_sweep(self) -> bool {
        self == Workload::SweepSmall
    }

    /// Nodes per scenario at full size and in tiny mode.
    pub fn nodes(self, tiny: bool) -> usize {
        match (self, tiny) {
            (Workload::SyncGridUniform, false) => 40_000,
            (Workload::AsyncRggAdvert | Workload::ChurnMembership, false) => 20_000,
            (Workload::SweepSmall, false) => 1_000,
            (Workload::SweepSmall, true) => 100,
            (_, true) => 400,
        }
    }

    /// Seeds per grid cell on the sweep.
    pub fn sweep_seeds(tiny: bool) -> usize {
        if tiny {
            3
        } else {
            20
        }
    }

    /// The first scenario seed of a run: the workload seed, salted per
    /// workload and mixed, so neighbouring `--seed` values share nothing.
    fn base_seed(self, seed: u64) -> u64 {
        let salt = match self {
            Workload::SyncGridUniform => 0x5917_c0de,
            Workload::AsyncRggAdvert => 0xa511_c0de,
            Workload::ChurnMembership => 0xc4a7_c0de,
            Workload::SweepSmall => 0x5eeb_c0de,
        };
        Rng::new(seed ^ salt).next_u64() >> 16
    }

    fn base(self, tiny: bool) -> ScenarioBuilder {
        let threads = THREADS.to_string();
        let knobs: &[(&str, &str)] = match self {
            Workload::SyncGridUniform => &[
                ("topology", "grid"),
                ("protocol", "uniform"),
                ("messages", "1"),
                ("scheduler", "sync"),
                ("threads", &threads),
            ],
            Workload::AsyncRggAdvert => &[
                ("topology", "rgg"),
                ("protocol", "advert"),
                ("messages", "16"),
                ("scheduler", "async"),
                ("threads", &threads),
            ],
            Workload::ChurnMembership => &[
                ("topology", "rgg"),
                ("protocol", "advert"),
                ("messages", "4"),
                ("scheduler", "sync"),
                ("threads", &threads),
                ("churn-rate", "0.1"),
                ("rejoin", "keep"),
                ("membership", "hyparview"),
            ],
            // Cell axes come from `grid`; cells run single-threaded and
            // the pool supplies the parallelism.
            Workload::SweepSmall => &[("messages", "1")],
        };
        let mut b = ScenarioBuilder::new();
        b.set("nodes", &self.nodes(tiny).to_string());
        for (key, value) in knobs {
            b.set(key, value);
        }
        if self.is_sweep() {
            b.set("seeds", &Workload::sweep_seeds(tiny).to_string());
        }
        b
    }

    /// Scenario `index` of a single-scenario workload's run.
    pub fn scenario(self, seed: u64, index: u64, tiny: bool) -> Scenario {
        assert!(!self.is_sweep(), "the sweep runs grids, not scenarios");
        let mut b = self.base(tiny);
        b.set(
            "seed",
            &self.base_seed(seed).wrapping_add(index).to_string(),
        );
        b.finish().expect("workload knobs are valid")
    }

    /// Grid `index` of the sweep's run: 8 cells (topology × protocol ×
    /// scheduler), each sweeping its own block of consecutive seeds.
    pub fn grid(self, seed: u64, index: u64, tiny: bool) -> Vec<Scenario> {
        assert!(self.is_sweep(), "only the sweep runs grids");
        let mut base = self.base(tiny);
        let first = self
            .base_seed(seed)
            .wrapping_add(index * Workload::sweep_seeds(tiny) as u64);
        base.set("seed", &first.to_string());
        Grid::new(base)
            .axis("topology", ["grid", "rgg"])
            .axis("protocol", ["uniform", "advert"])
            .axis("scheduler", ["sync", "async"])
            .expand()
            .expect("sweep axes are valid")
    }
}

/// `scenario` with its engine sharded over `threads` workers (results
/// are identical at any thread count; only the run time changes).
pub fn with_threads(scenario: &Scenario, threads: usize) -> Scenario {
    let mut s = scenario.clone();
    s.scheduler = match s.scheduler {
        SchedulerSpec::Sync { .. } => SchedulerSpec::Sync { threads },
        SchedulerSpec::Async { timing, .. } => SchedulerSpec::Async { timing, threads },
    };
    s
}

/// The pool's core budget on the sweep, clamped to the machine like the
/// engines' thread counts are.
pub fn pool_cores() -> usize {
    THREADS.min(crate::stats::available_parallelism())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_a_function_of_the_seed() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            if w.is_sweep() {
                let g = w.grid(3, 1, true);
                assert_eq!(g.len(), 8);
                assert_eq!(g, w.grid(3, 1, true));
                assert_ne!(g[0].seed, w.grid(4, 1, true)[0].seed);
                assert_eq!(g[0].seeds, Workload::sweep_seeds(true));
            } else {
                let s = w.scenario(3, 2, false);
                assert_eq!(s, w.scenario(3, 2, false));
                assert_ne!(s.seed, w.scenario(4, 2, false).seed);
                assert_eq!(s.nodes, w.nodes(false));
            }
        }
        let churn = Workload::ChurnMembership.scenario(1, 0, false);
        assert!(churn.is_dynamic() && !churn.membership.is_full());
    }
}
