//! Checked parsing of the runtime's `RHPL_*` environment knobs.
//!
//! Every variable the runtime reads is one row of a table — [`MAILBOX`],
//! [`MAILBOX_CAP`], [`TRANSPORT`], [`KERNEL`], [`ELEMENT`] and
//! [`COMM_TIMEOUT`] — and [`EnvConfig::read`] reads them all through one
//! lookup function. An invalid value surfaces as a typed [`ConfigError`]
//! carrying the offending text and what was expected: never a silent
//! fallback to a default that would make a benchmark unattributable, and
//! never a bare parse panic.
//!
//! The CLI reads the table once, at its edge, and passes the resolved
//! values down explicitly. Library entry points that take no options
//! (`Universe::run`, `Fabric::new`) read the environment afresh when they
//! build a fabric — nothing is cached per process — and fail fast with
//! the same message on an invalid value.

use std::time::Duration;

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

/// One row of the knob table: a variable, the values it accepts, and the
/// parser shared by the variable and its command-line flag.
pub struct Var<T> {
    /// The environment variable.
    pub name: &'static str,
    /// The accepted values, as shown in error messages.
    pub expected: &'static str,
    parse: fn(&str) -> Option<T>,
}

impl<T> Var<T> {
    /// Parses `value` as this knob's setting.
    pub fn parse(&self, value: &str) -> Result<T, ConfigError> {
        (self.parse)(value).ok_or_else(|| ConfigError {
            var: self.name,
            value: value.to_owned(),
            expected: self.expected,
        })
    }

    /// Reads this knob through `lookup`; `Ok(None)` when it is unset.
    pub fn read(&self, lookup: &dyn Fn(&str) -> Option<String>) -> Result<Option<T>, ConfigError> {
        lookup(self.name).map(|v| self.parse(&v)).transpose()
    }
}

/// `RHPL_MAILBOX`: `auto` | `mutex` | `lockfree` (`auto` is `lockfree`).
pub const MAILBOX: Var<MailboxSel> = Var {
    name: "RHPL_MAILBOX",
    expected: "one of auto, mutex, lockfree",
    parse: |s| match s.parse() {
        Ok(MailboxSel::Mutex) => Some(MailboxSel::Mutex),
        Ok(_) => Some(MailboxSel::Lockfree),
        Err(()) => None,
    },
};

/// `RHPL_MAILBOX_CAP`: a positive SPSC ring capacity.
pub const MAILBOX_CAP: Var<usize> = Var {
    name: "RHPL_MAILBOX_CAP",
    expected: "a positive integer ring capacity",
    parse: |s| s.parse().ok().filter(|&c| c > 0),
};

/// `RHPL_TRANSPORT`: `inproc` | `tcp`.
pub const TRANSPORT: Var<TransportSel> = Var {
    name: "RHPL_TRANSPORT",
    expected: "one of inproc, tcp",
    parse: |s| s.parse().ok(),
};

/// `RHPL_KERNEL`: `auto` | `scalar` | `simd`.
pub const KERNEL: Var<KernelSel> = Var {
    name: "RHPL_KERNEL",
    expected: "one of auto, scalar, simd",
    parse: |s| s.parse().ok(),
};

/// `RHPL_ELEMENT`: `f64` | `f32`.
pub const ELEMENT: Var<ElementSel> = Var {
    name: "RHPL_ELEMENT",
    expected: "one of f64, f32",
    parse: |s| s.parse().ok(),
};

/// `RHPL_COMM_TIMEOUT`: whole seconds, clamped to at least 1 s (a shorter
/// timeout would race the fabric's 100 ms poison-poll step).
pub const COMM_TIMEOUT: Var<Duration> = Var {
    name: "RHPL_COMM_TIMEOUT",
    expected: "a whole number of seconds",
    parse: |s| {
        s.parse()
            .ok()
            .map(|secs: u64| Duration::from_secs(secs.max(1)))
    },
};

/// Every `RHPL_*` knob, parsed; `None` where the variable is unset.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EnvConfig {
    /// `RHPL_MAILBOX` (never `Auto`: `auto` parses as `Lockfree`).
    pub mailbox: Option<MailboxSel>,
    /// `RHPL_MAILBOX_CAP`.
    pub mailbox_cap: Option<usize>,
    /// `RHPL_TRANSPORT`.
    pub transport: Option<TransportSel>,
    /// `RHPL_KERNEL`.
    pub kernel: Option<KernelSel>,
    /// `RHPL_ELEMENT`.
    pub element: Option<ElementSel>,
    /// `RHPL_COMM_TIMEOUT`.
    pub comm_timeout: Option<Duration>,
}

impl EnvConfig {
    /// Reads the whole table through `lookup` (the process environment is
    /// [`process_env`]; tests inject a map). The first invalid value wins.
    pub fn read(lookup: &dyn Fn(&str) -> Option<String>) -> Result<Self, ConfigError> {
        Ok(Self {
            mailbox: MAILBOX.read(lookup)?,
            mailbox_cap: MAILBOX_CAP.read(lookup)?,
            transport: TRANSPORT.read(lookup)?,
            kernel: KERNEL.read(lookup)?,
            element: ELEMENT.read(lookup)?,
            comm_timeout: COMM_TIMEOUT.read(lookup)?,
        })
    }
}

/// Looks `var` up in the process environment (unset or non-UTF-8: `None`).
pub fn process_env(var: &str) -> Option<String> {
    std::env::var(var).ok()
}

/// Validates every runtime environment knob at once — a pre-flight check,
/// so a typo'd variable fails the run before any process spawns.
pub fn validate_env() -> Result<(), ConfigError> {
    EnvConfig::read(&process_env).map(drop)
}

/// The process environment as library entry points see it: read afresh on
/// every call. An invalid value fails fast rather than silently falling
/// back — the CLI reports the same error as a clean exit before any fabric
/// is built.
pub(crate) fn env() -> EnvConfig {
    EnvConfig::read(&process_env).unwrap_or_else(|e| {
        // xtask-allow: no-panic, error-taxonomy — config fail-fast
        panic!("{e}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mailbox_values_parse_and_bad_ones_carry_the_offender() {
        assert_eq!(MAILBOX.parse("mutex"), Ok(MailboxSel::Mutex));
        assert_eq!(MAILBOX.parse("Lockfree"), Ok(MailboxSel::Lockfree));
        assert_eq!(MAILBOX.parse("auto"), Ok(MailboxSel::Lockfree));
        let err = MAILBOX.parse("spinlock").unwrap_err();
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
        assert_eq!(MAILBOX_CAP.parse("64"), Ok(64));
        assert_eq!(MAILBOX_CAP.parse("1"), Ok(1));
        for bad in ["0", "-3", "lots", "", "4.5"] {
            let err = MAILBOX_CAP.parse(bad).unwrap_err();
            assert_eq!(err.var, "RHPL_MAILBOX_CAP");
            assert_eq!(err.value, bad);
        }
    }

    #[test]
    fn kernel_values_parse_and_bad_ones_are_typed() {
        assert_eq!(KERNEL.parse("auto"), Ok(KernelSel::Auto));
        assert_eq!(KERNEL.parse("scalar"), Ok(KernelSel::Scalar));
        assert_eq!(KERNEL.parse("simd"), Ok(KernelSel::Simd));
        let err = KERNEL.parse("avx512").unwrap_err();
        assert_eq!(err.var, "RHPL_KERNEL");
        assert_eq!(err.value, "avx512");
        let shown = err.to_string();
        assert!(shown.contains("avx512"), "names the value: {shown}");
        assert!(shown.contains("auto, scalar, simd"));
    }

    #[test]
    fn element_values_parse_and_bad_ones_are_typed() {
        assert_eq!(ELEMENT.parse("f64"), Ok(ElementSel::F64));
        assert_eq!(ELEMENT.parse("f32"), Ok(ElementSel::F32));
        for bad in ["f16", "double", "single", ""] {
            let err = ELEMENT.parse(bad).unwrap_err();
            assert_eq!(err.var, "RHPL_ELEMENT");
            assert_eq!(err.value, bad);
            assert!(err.to_string().contains("f64, f32"));
        }
    }

    #[test]
    fn transport_values_parse_and_bad_ones_are_typed() {
        assert_eq!(TRANSPORT.parse("TCP"), Ok(TransportSel::Tcp));
        assert_eq!(TRANSPORT.parse("inproc"), Ok(TransportSel::Inproc));
        for bad in ["mpi", "shm"] {
            let err = TRANSPORT.parse(bad).unwrap_err();
            assert_eq!(err.var, "RHPL_TRANSPORT");
            assert_eq!(err.value, bad);
            assert!(err.to_string().contains("inproc, tcp"));
        }
    }

    #[test]
    fn comm_timeout_is_whole_seconds_clamped_to_one() {
        assert_eq!(COMM_TIMEOUT.parse("30"), Ok(Duration::from_secs(30)));
        assert_eq!(COMM_TIMEOUT.parse("0"), Ok(Duration::from_secs(1)));
        for bad in ["soon", "1s", "-1", "", "2.5"] {
            let err = COMM_TIMEOUT.parse(bad).unwrap_err();
            assert_eq!(err.var, "RHPL_COMM_TIMEOUT");
            assert_eq!(err.value, bad);
        }
    }

    #[test]
    fn read_takes_every_row_through_one_lookup() {
        let env = |k: &str| match k {
            "RHPL_MAILBOX" => Some("mutex".to_string()),
            "RHPL_COMM_TIMEOUT" => Some("7".to_string()),
            _ => None,
        };
        let cfg = EnvConfig::read(&env).expect("valid");
        assert_eq!(cfg.mailbox, Some(MailboxSel::Mutex));
        assert_eq!(cfg.comm_timeout, Some(Duration::from_secs(7)));
        assert_eq!(cfg.transport, None);
        let bad = |k: &str| (k == "RHPL_COMM_TIMEOUT").then(|| "soon".to_string());
        assert_eq!(EnvConfig::read(&bad).unwrap_err().var, "RHPL_COMM_TIMEOUT");
    }
}
