//! # topo-model — topologies, the star generator, and the topology verifier
//!
//! Implements the "network generator" and "topology verifier" of the
//! paper's second use case:
//!
//! * [`Topology`] — a machine-readable (JSON, via the dependency-free
//!   reader/writer in [`json`]) description of
//!   routers, interfaces, links, BGP sessions and announced networks; the
//!   "JSON dictionary" of Section 4.1.
//! * [`star()`](star::star) — the Figure 4 generator: one hub router facing a CUSTOMER
//!   stub, `n` edge routers each facing an ISP stub, all edges connected
//!   to the hub. "The network generator therefore only needs the number
//!   of routers as input. It has two outputs: 1) a textual description
//!   and 2) a JSON dictionary."
//! * [`describe`] — the Modularizer's textual output: whole-network and
//!   per-router natural-language topology descriptions used as prompts.
//! * [`verifier`] — the topology verifier: compares a parsed config
//!   against the JSON dictionary and reports the seven inconsistency
//!   types of Table 3. The checks are structural, not star-specific:
//!   they hold on any [`Topology`], generated or hand-built.
//! * [`builder`] — a general topology builder with automatic addressing,
//!   used by the `scenario-gen` families (chain, ring, mesh, fat-tree
//!   pod, multi-homed stub) that go beyond the paper's star.
//! * [`scenario`] — a [`scenario::Scenario`]: topology +
//!   per-router policy intents + whole-network expectations, the
//!   generalized input the VPP loop runs on.

pub mod builder;
pub mod describe;
pub mod json;
pub mod scenario;
pub mod star;
pub mod topology;
pub mod verifier;

pub use builder::TopologyBuilder;
pub use describe::{describe_network, describe_router};
pub use scenario::{Expectation, RouterPolicy, Scenario, StubSet};
pub use star::{star, StarRoles};
pub use topology::{IfaceSpec, NeighborSpec, RouterRole, RouterSpec, Topology};
pub use verifier::{verify_router, TopologyFinding};
