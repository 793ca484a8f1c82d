//! A scenario's set-up, as the separate public calls `Scenario::run`
//! makes before the engine starts, each timed on its own.

use std::time::Instant;

use gossip_core::{NodeId, RggGeometry, Topology};
use gossip_dynamics::DynamicsModel;
use gossip_experiments::Scenario;
use gossip_membership::Membership;
use gossip_protocols::GossipProtocol;

/// Span names of the set-up calls, in call order.
pub const SETUP_CALLS: [&str; 5] = [
    "core.topology_build",
    "protocols.build",
    "experiments.sources",
    "dynamics.build",
    "membership.new",
];

/// Everything the engine call needs.
pub struct Parts {
    pub topology: Topology,
    pub protocol: Box<dyn GossipProtocol>,
    pub sources: Vec<NodeId>,
    pub dynamics: Option<Box<dyn DynamicsModel>>,
    /// Built only to time it: the engine makes its own overlay.
    _membership: Option<Membership>,
    /// Kept so the embedding is dropped after the timed calls, not inside.
    _geometry: Option<RggGeometry>,
}

/// Run the set-up calls for `scenario`, returning their products and
/// each call's `(start, end)` in [`SETUP_CALLS`] order.
pub fn setup(scenario: &Scenario) -> (Parts, [(Instant, Instant); 5]) {
    let t0 = Instant::now();
    let (topology, geometry) = scenario.topology.build(scenario.nodes, scenario.seed);
    let t1 = Instant::now();
    let protocol = scenario.protocol.build();
    let t2 = Instant::now();
    let sources = scenario.sources();
    let t3 = Instant::now();
    let dynamics = scenario.dynamics.build(geometry.as_ref());
    let t4 = Instant::now();
    let membership = scenario
        .membership
        .to_config()
        .map(|cfg| Membership::new(scenario.nodes, cfg));
    let t5 = Instant::now();
    let parts = Parts {
        topology,
        protocol,
        sources,
        dynamics,
        _membership: membership,
        _geometry: geometry,
    };
    (parts, [(t0, t1), (t1, t2), (t2, t3), (t3, t4), (t4, t5)])
}

/// Seconds the set-up calls of one scenario took together.
pub fn setup_secs(calls: &[(Instant, Instant); 5]) -> f64 {
    calls.iter().map(|(s, e)| (*e - *s).as_secs_f64()).sum()
}
