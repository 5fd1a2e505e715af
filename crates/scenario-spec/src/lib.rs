//! Declarative scenario specifications for the TSAJS MEC reproduction.
//!
//! A [`ScenarioSpec`] is a versioned, validated, serializable description
//! of everything a simulation run needs: topology, radio, population,
//! churn, admission, SLAs, a timeline of injected events, and optional
//! golden `expect` assertions. Specs load from TOML or JSON, validate
//! with field-path diagnostics ([`SpecError`]), and materialize into the
//! concrete [`mec_system::Scenario`] / online-engine objects:
//!
//! ```text
//! ScenarioSpec::from_toml_str(..)? .validate()? .materialize(seed)?
//! ```
//!
//! The fluent [`ScenarioBuilder`] constructs specs programmatically; the
//! named corpus under `scenarios/` in the repository root exercises the
//! schema end to end.
//!
//! # Example
//!
//! ```
//! use mec_scenario_spec::ScenarioSpec;
//!
//! let spec = ScenarioSpec::from_toml_str(
//!     r#"
//!     schema_version = 1
//!     name = "doc-example"
//!
//!     [topology]
//!     servers = 4
//!
//!     [population]
//!     users = 6
//!     "#,
//! )
//! .unwrap();
//! spec.validate().unwrap();
//! let scenario = spec.materialize(7).unwrap();
//! assert_eq!(scenario.num_users(), 6);
//! assert_eq!(scenario.num_servers(), 4);
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod corpus;
pub mod decode;
pub mod error;
pub mod expect;
pub mod materialize;
pub mod schema;
pub mod toml;

pub use builder::ScenarioBuilder;
pub use corpus::{load_spec, run_corpus, CorpusOutcome, CorpusReport};
pub use error::SpecError;
pub use expect::{check_expectations, ExpectReport, OnlineOutcome};
pub use materialize::OnlinePlan;
pub use schema::{
    AdmissionSpec, ChurnSpec, ComputeSpec, DownlinkSpec, EffortSpec, ExpectSpec, ExplicitSpec,
    ExplicitUser, GeneratedSpec, OnlineSpec, PlacementSpec, PopulationSpec, ProvenanceSpec,
    RadioSpec, ScenarioSpec, SpecMode, TopologySpec, UserTemplate, SCHEMA_VERSION,
};
