//! # wsn-netsim
//!
//! A discrete-event wireless sensor network simulator — the substrate that
//! replaces the SENSE simulator used in *In-Network Outlier Detection in
//! Wireless Sensor Networks* (Branch et al., ICDCS 2006). See DESIGN.md §4
//! for the substitution rationale.
//!
//! The simulator reproduces the modelling choices the paper states in §7.1:
//!
//! * free-space (unit-disc) signal propagation with a uniform transmission
//!   range of ≈6.77 m ([`radio`]),
//! * broadcast transmission with promiscuous listening for the distributed
//!   algorithms, unicast forwarding for the centralized baseline ([`mac`],
//!   [`sim`]),
//! * the Crossbow-mote energy model — 0.0159 W transmit, 0.021 W receive,
//!   3 µW idle at 3 V ([`energy`]),
//! * an AODV-style multi-hop routing layer with end-to-end acknowledgements
//!   for the centralized baseline ([`routing`]),
//! * optional packet loss, i.i.d. or bursty ([`radio::LossModel`]),
//! * scheduled node churn and radio duty-cycling ([`fault`]), and
//! * per-node energy / traffic statistics ([`stats`]).
//!
//! Protocols are written against the [`sim::Application`] trait: the
//! simulator owns one application instance per sensor, delivers timer and
//! message events to it, and charges every transmission and reception to the
//! energy model.
//!
//! # Example
//!
//! ```
//! use wsn_data::lab::{LabDeployment, PAPER_TRANSMISSION_RANGE_M};
//! use wsn_netsim::topology::Topology;
//!
//! let deployment = LabDeployment::standard(7);
//! let topo = Topology::from_deployment(&deployment, PAPER_TRANSMISSION_RANGE_M);
//! assert!(topo.is_connected());
//! assert!(topo.diameter() > 1, "the lab network is multi-hop");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod energy;
pub mod event;
pub mod fault;
pub mod mac;
pub mod packet;
pub mod radio;
pub mod region;
pub mod routing;
pub mod sim;
pub mod stats;
pub mod topology;

pub use energy::{EnergyModel, EnergyReport};
pub use event::{EventKey, EventQueue};
pub use fault::{DutyCycle, FaultAction, FaultEvent, FaultPlan};
pub use radio::{LossModel, RadioConfig};
pub use region::{Partition, PartitionedSimulator, SimBackend};
pub use sim::{Application, NodeContext, SimConfig, Simulator};
pub use stats::{NetworkStats, NodeStats};
pub use topology::Topology;
