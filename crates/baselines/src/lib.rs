//! # baselines
//!
//! Baseline cache covert channels implemented on the same simulator substrate
//! as the WB channel, so that the comparisons drawn in the paper — Table I's
//! classification, Figure 8's noise robustness, Table VI's sender footprint —
//! can be reproduced head-to-head:
//!
//! * [`prime_probe::PrimeProbe`] — Prime+Probe (Hit+Miss, contention-based).
//! * [`lru_channel::LruChannel`] — the LRU-state channel of Xiong & Szefer,
//!   the closest prior work.
//! * [`comparison`] — the classification table, the Figure 8 noise-robustness
//!   experiment and Table VI load estimates.
//!
//! Table I also classifies the reuse-based channels (Flush+Reload,
//! Flush+Flush, Evict+Reload); they need shared memory, so no scenario runs
//! them, and [`comparison::classification_table`] lists them as literal rows.
//!
//! Both channels share one inherent interface: `name`, `transmit` and
//! `transmit_with_noise`, each returning a [`common::BaselineReport`].
//!
//! ## Example
//!
//! ```rust
//! use baselines::prime_probe::PrimeProbe;
//!
//! # fn main() -> Result<(), wb_channel::Error> {
//! let mut channel = PrimeProbe::new(7);
//! let report = channel.transmit(&[true, false, true, false])?;
//! assert_eq!(report.channel, channel.name());
//! assert!(report.bit_error_rate <= 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod common;
pub mod comparison;
pub mod lru_channel;
pub mod prime_probe;

pub use common::{BaselineReport, NoiseSpec};
pub use comparison::{classification_table, noise_robustness_comparison};
pub use lru_channel::LruChannel;
pub use prime_probe::PrimeProbe;
