//! Cache-line ownership.
//!
//! [`crate::cache::Cache`] stores line state in structure-of-arrays form:
//! contiguous tag and owner arrays plus per-set packed valid/dirty/locked
//! masks. Each line's owner is a [`DomainId`].

/// The protection/attribution domain a line belongs to.
///
/// In the covert-channel experiments domain 1 is the receiver, domain 2 the
/// sender and domain 3 the noise process; domain 0 is the default context,
/// and the stealth experiments run a benign co-runner as domain 4. Defenses
/// such as DAWG use the domain to decide way visibility.
pub type DomainId = u16;
