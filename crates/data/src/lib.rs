//! # snn-data
//!
//! Synthetic, class-conditional image datasets standing in for the SVHN,
//! CIFAR-10 and CIFAR-100 datasets the paper evaluates on.
//!
//! The real datasets are not available in this environment, and the paper's
//! hardware results depend on the *activation statistics* of the trained
//! network (spike counts per layer) rather than on the semantic content of
//! the images. The generators here therefore produce images that are
//!
//! * the right shape (3 × 32 × 32, or a scaled-down variant for fast tests),
//! * class-structured (each class has a smooth random prototype; samples are
//!   noisy, shifted renditions of their prototype) so that a network can
//!   actually learn to separate them, and
//! * ordered in difficulty like the real datasets (SVHN easiest, CIFAR-100
//!   hardest) via the noise level and class count.

pub mod dataset;
pub mod synthetic;

pub use dataset::{Dataset, Sample, Split};
pub use synthetic::{SyntheticConfig, SyntheticDataset};
