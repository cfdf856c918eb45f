//! Checked environment/config parsing for the fabric boundary.
//!
//! Every knob the runtime reads from the environment (`RHPL_MAILBOX`,
//! `RHPL_MAILBOX_CAP`, `RHPL_TRANSPORT`, `RHPL_KERNEL`, `RHPL_ELEMENT`)
//! parses through this module, so an invalid value surfaces as a typed
//! [`ConfigError`] carrying the offending text and what was expected —
//! never a silent fallback to a default that would make a benchmark
//! unattributable, and never a bare parse panic.
//!
//! The CLI calls [`validate_env`] before doing any work and turns an error
//! into a clean exit; library entry points that cannot return an error
//! (fabric construction, kernel resolution) fail fast with the same
//! message.

use crate::fabric::MailboxSel;
use crate::transport::TransportSel;
use hpl_blas::{ElementSel, KernelSel};

/// An environment/config value that does not parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The variable (or flag) that held the bad value.
    pub var: &'static str,
    /// The offending value, verbatim.
    pub value: String,
    /// What would have been accepted.
    pub expected: &'static str,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {}={:?}: expected {}",
            self.var, self.value, self.expected
        )
    }
}

impl std::error::Error for ConfigError {}

/// Parses a `RHPL_MAILBOX` value (`auto` | `mutex` | `lockfree`).
pub fn parse_mailbox(value: &str) -> Result<MailboxSel, ConfigError> {
    value.parse().map_err(|()| ConfigError {
        var: "RHPL_MAILBOX",
        value: value.to_owned(),
        expected: "one of auto, mutex, lockfree",
    })
}

/// Parses a `RHPL_MAILBOX_CAP` value (a positive ring capacity).
pub fn parse_mailbox_cap(value: &str) -> Result<usize, ConfigError> {
    value
        .parse::<usize>()
        .ok()
        .filter(|&c| c > 0)
        .ok_or_else(|| ConfigError {
            var: "RHPL_MAILBOX_CAP",
            value: value.to_owned(),
            expected: "a positive integer ring capacity",
        })
}

/// Parses a `RHPL_TRANSPORT` value (`inproc` | `tcp`).
pub fn parse_transport(value: &str) -> Result<TransportSel, ConfigError> {
    value.parse().map_err(|()| ConfigError {
        var: "RHPL_TRANSPORT",
        value: value.to_owned(),
        expected: "one of inproc, tcp",
    })
}

/// Parses a `RHPL_KERNEL` value (`auto` | `scalar` | `simd`).
pub fn parse_kernel(value: &str) -> Result<KernelSel, ConfigError> {
    value.parse().map_err(|()| ConfigError {
        var: "RHPL_KERNEL",
        value: value.to_owned(),
        expected: "one of auto, scalar, simd",
    })
}

/// Parses a `RHPL_ELEMENT` value (`f64` | `f32`).
pub fn parse_element(value: &str) -> Result<ElementSel, ConfigError> {
    value.parse().map_err(|()| ConfigError {
        var: "RHPL_ELEMENT",
        value: value.to_owned(),
        expected: "one of f64, f32",
    })
}

/// `RHPL_MAILBOX` from the environment; unset means [`MailboxSel::Auto`].
pub fn env_mailbox() -> Result<MailboxSel, ConfigError> {
    match std::env::var("RHPL_MAILBOX") {
        Ok(v) => parse_mailbox(&v),
        Err(_) => Ok(MailboxSel::Auto),
    }
}

/// `RHPL_MAILBOX_CAP` from the environment; unset means the built-in
/// default capacity.
pub fn env_mailbox_cap() -> Result<Option<usize>, ConfigError> {
    match std::env::var("RHPL_MAILBOX_CAP") {
        Ok(v) => parse_mailbox_cap(&v).map(Some),
        Err(_) => Ok(None),
    }
}

/// `RHPL_TRANSPORT` from the environment; unset means
/// [`TransportSel::Inproc`].
pub fn env_transport() -> Result<TransportSel, ConfigError> {
    match std::env::var("RHPL_TRANSPORT") {
        Ok(v) => parse_transport(&v),
        Err(_) => Ok(TransportSel::Inproc),
    }
}

/// `RHPL_KERNEL` from the environment; unset means [`KernelSel::Auto`].
pub fn env_kernel() -> Result<KernelSel, ConfigError> {
    match std::env::var("RHPL_KERNEL") {
        Ok(v) => parse_kernel(&v),
        Err(_) => Ok(KernelSel::Auto),
    }
}

/// `RHPL_ELEMENT` from the environment; unset means [`ElementSel::F64`].
pub fn env_element() -> Result<ElementSel, ConfigError> {
    match std::env::var("RHPL_ELEMENT") {
        Ok(v) => parse_element(&v),
        Err(_) => Ok(ElementSel::F64),
    }
}

/// Validates every runtime environment knob at once — the CLI's pre-flight
/// check, so a typo'd variable fails the run before any process spawns.
pub fn validate_env() -> Result<(), ConfigError> {
    env_mailbox()?;
    env_mailbox_cap()?;
    env_transport()?;
    env_kernel()?;
    env_element()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mailbox_values_parse_and_bad_ones_carry_the_offender() {
        assert_eq!(parse_mailbox("mutex"), Ok(MailboxSel::Mutex));
        assert_eq!(parse_mailbox("Lockfree"), Ok(MailboxSel::Lockfree));
        let err = parse_mailbox("spinlock").unwrap_err();
        assert_eq!(err.var, "RHPL_MAILBOX");
        assert_eq!(err.value, "spinlock");
        let shown = err.to_string();
        assert!(
            shown.contains("RHPL_MAILBOX"),
            "names the variable: {shown}"
        );
        assert!(shown.contains("spinlock"), "names the value: {shown}");
        assert!(
            shown.contains("lockfree"),
            "names the accepted set: {shown}"
        );
    }

    #[test]
    fn mailbox_cap_rejects_zero_negative_and_garbage() {
        assert_eq!(parse_mailbox_cap("64"), Ok(64));
        assert_eq!(parse_mailbox_cap("1"), Ok(1));
        for bad in ["0", "-3", "lots", "", "4.5"] {
            let err = parse_mailbox_cap(bad).unwrap_err();
            assert_eq!(err.var, "RHPL_MAILBOX_CAP");
            assert_eq!(err.value, bad);
        }
    }

    #[test]
    fn kernel_values_parse_and_bad_ones_are_typed() {
        assert_eq!(parse_kernel("auto"), Ok(KernelSel::Auto));
        assert_eq!(parse_kernel("scalar"), Ok(KernelSel::Scalar));
        assert_eq!(parse_kernel("simd"), Ok(KernelSel::Simd));
        let err = parse_kernel("avx512").unwrap_err();
        assert_eq!(err.var, "RHPL_KERNEL");
        assert_eq!(err.value, "avx512");
        let shown = err.to_string();
        assert!(shown.contains("avx512"), "names the value: {shown}");
        assert!(shown.contains("auto, scalar, simd"));
    }

    #[test]
    fn element_values_parse_and_bad_ones_are_typed() {
        assert_eq!(parse_element("f64"), Ok(ElementSel::F64));
        assert_eq!(parse_element("f32"), Ok(ElementSel::F32));
        for bad in ["f16", "double", "single", ""] {
            let err = parse_element(bad).unwrap_err();
            assert_eq!(err.var, "RHPL_ELEMENT");
            assert_eq!(err.value, bad);
            assert!(err.to_string().contains("f64, f32"));
        }
    }

    #[test]
    fn transport_values_parse_and_bad_ones_are_typed() {
        assert_eq!(parse_transport("TCP"), Ok(TransportSel::Tcp));
        assert_eq!(parse_transport("inproc"), Ok(TransportSel::Inproc));
        for bad in ["mpi", "shm"] {
            let err = parse_transport(bad).unwrap_err();
            assert_eq!(err.var, "RHPL_TRANSPORT");
            assert_eq!(err.value, bad);
            assert!(err.to_string().contains("inproc, tcp"));
        }
    }
}
