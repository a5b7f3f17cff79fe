//! # pwm-montage — workload generators
//!
//! The workloads of the paper's evaluation and of the ablation benches:
//!
//! * [`montage`] — the Montage astronomy workflow (the paper's benchmark),
//!   sized so the no-clustering plan has exactly the paper's **89 data
//!   staging jobs**, with the augmentation knob that adds one extra
//!   WAN-staged file (10 MB – 1 GB in the experiments) per staging job;
//! * [`synthetic`] — pipelines and fork-joins for tests and secondary
//!   experiments;
//! * [`workloads`] — CyberShake-like (sharing-heavy) and Epigenomics-like
//!   (pipeline-parallel) shapes for cross-workload studies.

#![warn(missing_docs)]

pub mod montage;
pub mod synthetic;
pub mod workloads;

pub use montage::{montage_one_degree, montage_replicas, montage_workflow, MontageConfig};
pub use synthetic::{chain, fork_join, single_source_replicas};
pub use workloads::{cybershake_like, epigenomics_like, CyberShakeConfig, EpigenomicsConfig};
