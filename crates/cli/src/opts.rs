//! The `rhpl` command line, parsed once.
//!
//! [`RunOpts::parse`] is the only parser behind all three entry points —
//! `rhpl [HPL.dat]`, `rhpl launch` and the internal `rhpl _rank` child —
//! and it reads every `RHPL_*` variable through the [`hpl_comm::config`]
//! table in the same pass. Each setting is resolved exactly once (flag,
//! then environment, then default) into one typed value that the rest of
//! the CLI receives explicitly. Nothing is silently ignored: an unknown
//! flag or an unparsable flag value is a usage error (exit 1), an invalid
//! variable a configuration error (exit 2).
//!
//! A launch supervisor hands each child the same settings as flags
//! ([`RunOpts::child_argv`]), so a `_rank` process parses exactly what the
//! supervisor resolved.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

use hpl_blas::{ElementSel, KernelSel};
use hpl_comm::config::{self, ConfigError, EnvConfig, Var};
use hpl_comm::fabric::DEFAULT_RING_CAP;
use hpl_comm::{FabricOpts, MailboxSel, TransportSel, DEFAULT_TIMEOUT};
use hpl_faults::FaultPlan;

/// `rhpl --help`: every flag and variable.
pub const USAGE: &str = "\
usage: rhpl [HPL.dat] [FLAG]...          run the sweep the input file describes
       rhpl launch [HPL.dat] --ranks N [FLAG]...
                            run its first combination as one OS process per
                            rank, supervised: rendezvous, heartbeats, rank-death
                            detection, respawn + resume under --ckpt-every
       rhpl --sample        print a ready-to-edit sample HPL.dat
  --split-frac F      split-update fraction in [0, 1] (0 = look-ahead only; 0.5)
  --threads T         FACT threads per rank (1)
  --seed S            matrix generator seed (42)
  --kernel K          DGEMM microkernel auto|scalar|simd [RHPL_KERNEL]
  --element E         pipeline element f64|f32, gated at its own accuracy
                      [RHPL_ELEMENT]; launch needs --mxp for f32 factors
  --mxp               HPL-MxP: f32 factorization, f64 refinement sweeps
  --transport T       inproc|tcp (inproc; tcp under launch) [RHPL_TRANSPORT]
  --comm-timeout S    per-receive timeout, whole seconds (120) [RHPL_COMM_TIMEOUT]
  --trace-json PATH   write the per-iteration phase trace (not under launch)
  --fault SPEC        arm a fault (repeatable): kind[:param]@rank[:site][:nth][:sticky]
  --fault-seed S      fault plan seed (alone: a random plan from the seed)
  --ckpt-every K      checkpoint every K panel iterations (0 = off)
  --ckpt-dir PATH     keep checkpoints on disk under PATH
A flag wins over its [variable]. RHPL_MAILBOX=auto|mutex|lockfree and
RHPL_MAILBOX_CAP=N (ring capacity) have no flag.
";

/// Which entry point the command line selects.
#[derive(Clone, Debug, PartialEq)]
pub enum Mode {
    /// `rhpl [HPL.dat]`: run the sweep in this process.
    Run,
    /// `rhpl --sample`: print a ready-to-edit `HPL.dat`.
    Sample,
    /// `rhpl --help`.
    Help,
    /// `rhpl launch`: supervise one OS process per rank.
    Launch,
    /// `rhpl _rank`: one rank of a launched job, spawned by the supervisor.
    Rank {
        /// This process's rank.
        rank: usize,
        /// The supervisor's control-plane address.
        ctrl: SocketAddr,
        /// A restart attempt: one-shot faults already fired.
        disarm: bool,
    },
}

/// Every setting of one `rhpl` invocation, resolved.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOpts {
    /// Entry point.
    pub mode: Mode,
    /// The `HPL.dat` input (default `HPL.dat`).
    pub path: String,
    /// Split-update fraction (`--split-frac`, 0 = look-ahead only).
    pub split_frac: f64,
    /// FACT threads per rank (`--threads`).
    pub threads: usize,
    /// Matrix generator seed (`--seed`).
    pub seed: u64,
    /// DGEMM microkernel request (`--kernel`, `RHPL_KERNEL`).
    pub kernel: KernelSel,
    /// Pipeline element type (`--element`, `RHPL_ELEMENT`).
    pub element: ElementSel,
    /// Run the HPL-MxP benchmark (`--mxp`).
    pub mxp: bool,
    /// Where to write the phase trace (`--trace-json`).
    pub trace_json: Option<String>,
    /// Armed fault specs (`--fault`, repeatable).
    pub faults: Vec<String>,
    /// Fault plan seed (`--fault-seed`).
    pub fault_seed: Option<u64>,
    /// Checkpoint cadence in panel iterations, 0 = off (`--ckpt-every`).
    pub ckpt_every: usize,
    /// On-disk checkpoint directory (`--ckpt-dir`; a launch with
    /// checkpoints defaults it to a per-supervisor temp directory).
    pub ckpt_dir: Option<PathBuf>,
    /// World size of a launched job (`--ranks`).
    pub ranks: Option<usize>,
    /// Transport (`--transport`, `RHPL_TRANSPORT`; default `inproc`, or
    /// `tcp` under `launch`).
    pub transport: TransportSel,
    /// Mailbox implementation (`RHPL_MAILBOX`; never `Auto`).
    pub mailbox: MailboxSel,
    /// SPSC ring capacity (`RHPL_MAILBOX_CAP`).
    pub mailbox_cap: usize,
    /// Per-receive timeout (`--comm-timeout`, `RHPL_COMM_TIMEOUT`).
    pub comm_timeout: Duration,
}

/// Why a command line was refused.
#[derive(Clone, Debug, PartialEq)]
pub enum OptsError {
    /// A bad flag, flag value or argument (exit 1).
    Usage(String),
    /// A bad `RHPL_*` variable (exit 2).
    Config(ConfigError),
}

impl OptsError {
    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> u8 {
        match self {
            OptsError::Usage(_) => 1,
            OptsError::Config(_) => 2,
        }
    }
}

impl std::fmt::Display for OptsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptsError::Usage(msg) => f.write_str(msg),
            OptsError::Config(e) => write!(f, "configuration error: {e}"),
        }
    }
}

const POSITIVE: &str = "a positive integer";
const UNSIGNED: &str = "an unsigned integer";

fn usage(msg: impl Into<String>) -> OptsError {
    OptsError::Usage(msg.into())
}

fn bad_value(flag: &str, v: &str, expected: &str) -> OptsError {
    usage(format!("{flag}: invalid value {v:?} (expected {expected})"))
}

/// Parses one flag value that must satisfy `ok`.
fn value<T: FromStr>(
    flag: &str,
    v: &str,
    expected: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<T, OptsError> {
    (v.parse().ok())
        .filter(|x| ok(x))
        .ok_or_else(|| bad_value(flag, v, expected))
}

/// Parses a flag that shares its values with an `RHPL_*` variable.
fn knob<T>(flag: &str, v: &str, var: &Var<T>) -> Result<T, OptsError> {
    var.parse(v).map_err(|e| bad_value(flag, v, e.expected))
}

impl RunOpts {
    /// Parses `args` (without the program name) and the `RHPL_*` variables
    /// `env` returns (the process environment is
    /// [`hpl_comm::config::process_env`]). Variables are checked first, so
    /// a bad one is reported even when the command line is also wrong.
    pub fn parse(args: &[String], env: &dyn Fn(&str) -> Option<String>) -> Result<Self, OptsError> {
        let env = EnvConfig::read(env).map_err(OptsError::Config)?;
        let sub = args.first().map(String::as_str);
        let child = sub == Some("_rank");
        let launched = child || sub == Some("launch");
        let rest = if launched { &args[1..] } else { args };
        let mut opts = RunOpts {
            mode: Mode::Run,
            path: "HPL.dat".to_string(),
            split_frac: 0.5,
            threads: 1,
            seed: 42,
            kernel: env.kernel.unwrap_or_default(),
            element: env.element.unwrap_or_default(),
            mxp: false,
            trace_json: None,
            faults: Vec::new(),
            fault_seed: None,
            ckpt_every: 0,
            ckpt_dir: None,
            ranks: None,
            transport: env.transport.unwrap_or(if launched {
                TransportSel::Tcp
            } else {
                TransportSel::Inproc
            }),
            mailbox: env.mailbox.unwrap_or(MailboxSel::Lockfree),
            mailbox_cap: env.mailbox_cap.unwrap_or(DEFAULT_RING_CAP),
            comm_timeout: env.comm_timeout.unwrap_or(DEFAULT_TIMEOUT),
        };
        let (mut path, mut rank, mut ctrl) = (None, None, None);
        let (mut disarm, mut element_flag, mut sample, mut help) = (false, false, false, false);
        let mut it = rest.iter();
        while let Some(arg) = it.next() {
            let flag = arg.as_str();
            let mut next = || {
                it.next()
                    .map(String::as_str)
                    .ok_or_else(|| usage(format!("{flag} needs a value")))
            };
            match flag {
                "--split-frac" => {
                    let in_unit = |f: &f64| (0.0..=1.0).contains(f);
                    opts.split_frac = value(flag, next()?, "a fraction in [0, 1]", in_unit)?
                }
                "--threads" => opts.threads = value(flag, next()?, POSITIVE, |&t| t > 0)?,
                "--seed" => opts.seed = value(flag, next()?, UNSIGNED, |_| true)?,
                "--kernel" => opts.kernel = knob(flag, next()?, &config::KERNEL)?,
                "--element" => {
                    opts.element = knob(flag, next()?, &config::ELEMENT)?;
                    element_flag = true;
                }
                "--transport" => opts.transport = knob(flag, next()?, &config::TRANSPORT)?,
                "--comm-timeout" => opts.comm_timeout = knob(flag, next()?, &config::COMM_TIMEOUT)?,
                "--mxp" => opts.mxp = true,
                "--trace-json" => opts.trace_json = Some(next()?.to_string()),
                "--fault" => opts.faults.push(next()?.to_string()),
                "--fault-seed" => opts.fault_seed = Some(value(flag, next()?, UNSIGNED, |_| true)?),
                "--ckpt-every" => opts.ckpt_every = value(flag, next()?, UNSIGNED, |_| true)?,
                "--ckpt-dir" => opts.ckpt_dir = Some(PathBuf::from(next()?)),
                // Launch-only flags, and the internal ones only a supervisor
                // passes to its `_rank` children; elsewhere they are unknown.
                "--ranks" if launched => {
                    opts.ranks = Some(value(flag, next()?, POSITIVE, |&n| n > 0)?)
                }
                "--rank" if child => rank = Some(value(flag, next()?, UNSIGNED, |_| true)?),
                "--ctrl" if child => {
                    ctrl = Some(value(flag, next()?, "a socket address", |_| true)?)
                }
                "--disarm" if child => disarm = true,
                "--sample" => sample = true,
                "--help" | "-h" => help = true,
                _ if !flag.starts_with('-') && path.is_none() => path = Some(flag.to_string()),
                _ => {
                    return Err(usage(format!(
                        "unknown argument {flag:?} (see rhpl --help)"
                    )))
                }
            }
        }
        if let Some(p) = path {
            opts.path = p;
        }
        if help || sample {
            opts.mode = if help { Mode::Help } else { Mode::Sample };
            return Ok(opts);
        }
        opts.mode = match (sub, rank, ctrl) {
            (Some("_rank"), Some(rank), Some(ctrl)) => Mode::Rank { rank, ctrl, disarm },
            (Some("_rank"), ..) => return Err(usage("_rank needs --rank R and --ctrl ADDR")),
            (Some("launch"), ..) => Mode::Launch,
            _ => Mode::Run,
        };
        if opts.mxp && opts.faulted() {
            return Err(usage(
                "--mxp does not combine with --fault (fault soak runs the f64 pipeline)",
            ));
        }
        if !launched {
            return Ok(opts);
        }
        if opts.ranks.is_none() {
            return Err(usage("launch needs --ranks N"));
        }
        if opts.trace_json.is_some() {
            return Err(usage("rhpl launch does not write --trace-json yet"));
        }
        if opts.element == ElementSel::F32 && !opts.mxp {
            return Err(if element_flag {
                usage("rhpl launch runs the f64 pipeline: --element f32 is unsupported; use --mxp for f32 factors")
            } else {
                OptsError::Config(ConfigError {
                    var: config::ELEMENT.name,
                    value: "f32".to_string(),
                    expected: "f64 under rhpl launch (use --mxp for f32 factors)",
                })
            });
        }
        if opts.mode == Mode::Launch && opts.ckpt_every > 0 && opts.ckpt_dir.is_none() {
            // The recovery protocol needs checkpoints that outlive the rank
            // processes: on disk, private to this supervisor.
            let dir = format!("rhpl-launch-ckpt-{}", std::process::id());
            opts.ckpt_dir = Some(std::env::temp_dir().join(dir));
        }
        Ok(opts)
    }

    /// Whether a fault flag is present: the run arms a fault plan and
    /// reports the `HPLOK`/`HPLERROR` protocol instead of the classic table.
    pub fn faulted(&self) -> bool {
        !self.faults.is_empty() || self.fault_seed.is_some()
    }

    /// The plan a faulted run arms on `ranks` ranks: the `--fault` specs,
    /// or a random plan from `--fault-seed` alone. A restart attempt
    /// (`disarm`) keeps only sticky specs — a one-shot fault fired on
    /// hardware that has since been replaced.
    pub fn fault_plan(&self, ranks: usize, disarm: bool) -> Result<FaultPlan, String> {
        let seed = self.fault_seed.unwrap_or(1);
        // The spec grammar puts `sticky` only in the trailing flag position.
        let specs: Vec<String> = (self.faults.iter())
            .filter(|s| !disarm || s.ends_with(":sticky"))
            .cloned()
            .collect();
        match (specs.is_empty(), disarm) {
            (false, _) => {
                FaultPlan::parse(seed, &specs).map_err(|e| format!("bad --fault spec: {e}"))
            }
            (true, false) => Ok(FaultPlan::from_seed(seed, ranks)),
            (true, true) => Ok(FaultPlan::new(seed)),
        }
    }

    /// The fabric options every universe of this run is built with: the
    /// resolved mailbox, ring capacity and receive timeout.
    pub fn fabric(&self) -> FabricOpts {
        FabricOpts {
            timeout: Some(self.comm_timeout),
            mailbox: self.mailbox,
            mailbox_cap: Some(self.mailbox_cap),
            ..FabricOpts::default()
        }
    }

    /// The argv a launch supervisor spawns rank `rank`'s `_rank` process
    /// with: every setting of this launch, spelled as flags, so the child
    /// parses what the supervisor resolved. (`RHPL_MAILBOX` and
    /// `RHPL_MAILBOX_CAP` have no flag; the child inherits them.)
    pub fn child_argv(&self, rank: usize, ctrl: SocketAddr, disarm: bool) -> Vec<String> {
        let mut argv: Vec<String> = vec!["_rank".into(), self.path.clone()];
        let mut flag = |k: &str, v: String| argv.extend([k.to_string(), v]);
        flag("--rank", rank.to_string());
        flag("--ctrl", ctrl.to_string());
        if let Some(ranks) = self.ranks {
            flag("--ranks", ranks.to_string());
        }
        flag("--transport", self.transport.name().into());
        flag("--split-frac", self.split_frac.to_string());
        flag("--threads", self.threads.to_string());
        flag("--seed", self.seed.to_string());
        flag("--kernel", self.kernel.name().into());
        flag("--element", self.element.name().into());
        flag("--comm-timeout", self.comm_timeout.as_secs().to_string());
        flag("--ckpt-every", self.ckpt_every.to_string());
        if let Some(dir) = &self.ckpt_dir {
            flag("--ckpt-dir", dir.display().to_string());
        }
        if let Some(seed) = self.fault_seed {
            flag("--fault-seed", seed.to_string());
        }
        for spec in &self.faults {
            flag("--fault", spec.clone());
        }
        if self.mxp {
            argv.push("--mxp".into());
        }
        if disarm {
            argv.push("--disarm".into());
        }
        argv
    }
}

#[cfg(test)]
pub(crate) fn from_process_env() -> RunOpts {
    RunOpts::parse(&[], &config::process_env).expect("the test environment is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn parse_with(args: &[&str], vars: &[(&str, &str)]) -> Result<RunOpts, OptsError> {
        let vars: HashMap<String, String> = vars
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        RunOpts::parse(&args, &|k| vars.get(k).cloned())
    }

    fn parse(args: &[&str]) -> RunOpts {
        parse_with(args, &[]).expect("valid command line")
    }

    #[test]
    fn defaults_without_flags_or_env() {
        let o = parse(&[]);
        assert_eq!(o.mode, Mode::Run);
        assert_eq!(o.path, "HPL.dat");
        assert_eq!((o.split_frac, o.threads, o.seed), (0.5, 1, 42));
        assert_eq!(o.kernel, KernelSel::Auto);
        assert_eq!(o.element, ElementSel::F64);
        assert_eq!(o.transport, TransportSel::Inproc);
        assert_eq!(o.mailbox, MailboxSel::Lockfree);
        assert_eq!(o.mailbox_cap, DEFAULT_RING_CAP);
        assert_eq!(o.comm_timeout, DEFAULT_TIMEOUT);
        assert_eq!(
            parse(&["launch", "--ranks", "2"]).transport,
            TransportSel::Tcp
        );
    }

    #[test]
    fn env_applies_when_no_flag_is_given() {
        let env = [
            ("RHPL_KERNEL", "scalar"),
            ("RHPL_ELEMENT", "f32"),
            ("RHPL_TRANSPORT", "tcp"),
            ("RHPL_COMM_TIMEOUT", "9"),
            ("RHPL_MAILBOX", "mutex"),
            ("RHPL_MAILBOX_CAP", "8"),
        ];
        let o = parse_with(&["in.dat"], &env).expect("valid");
        assert_eq!(o.path, "in.dat");
        assert_eq!(o.kernel, KernelSel::Scalar);
        assert_eq!(o.element, ElementSel::F32);
        assert_eq!(o.transport, TransportSel::Tcp);
        assert_eq!(o.comm_timeout, Duration::from_secs(9));
        assert_eq!((o.mailbox, o.mailbox_cap), (MailboxSel::Mutex, 8));
        let fab = o.fabric();
        assert_eq!(fab.timeout, Some(Duration::from_secs(9)));
        assert_eq!((fab.mailbox, fab.mailbox_cap), (MailboxSel::Mutex, Some(8)));
    }

    #[test]
    fn flag_wins_over_env() {
        let env = [
            ("RHPL_KERNEL", "scalar"),
            ("RHPL_ELEMENT", "f32"),
            ("RHPL_TRANSPORT", "tcp"),
            ("RHPL_COMM_TIMEOUT", "9"),
        ];
        let args = [
            "--kernel",
            "simd",
            "--element",
            "f64",
            "--transport",
            "inproc",
            "--comm-timeout",
            "3",
        ];
        let o = parse_with(&args, &env).expect("valid");
        assert_eq!(o.kernel, KernelSel::Simd);
        assert_eq!(o.element, ElementSel::F64);
        assert_eq!(o.transport, TransportSel::Inproc);
        assert_eq!(o.comm_timeout, Duration::from_secs(3));
        // The environment is still checked when a flag overrides it.
        let err = parse_with(&["--kernel", "simd"], &[("RHPL_KERNEL", "avx")]).unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    /// Refusals the end-to-end table in `tests/config_env.rs` does not
    /// spawn the binary for: out-of-range values, flags of another mode,
    /// missing values and conflicting flags.
    #[test]
    fn misplaced_and_out_of_range_flags_are_usage_errors() {
        for args in [
            &["--threads", "0"][..],
            &["--split-frac", "1.5"],
            &["--kernel", "avx"],
            &["a.dat", "b.dat"],
            &["--seed"],
            &["--ranks", "2"],
            &["--rank", "0"],
            &["--mxp", "--fault", "death@1:send:0"],
            &["launch"],
            &["_rank", "--ranks", "2"],
        ] {
            let err = parse_with(args, &[]).unwrap_err();
            assert_eq!(err.exit_code(), 1, "{args:?}: {err}");
        }
        // `--mxp` factors in f32 anyway, so a launch takes the f32 request.
        let mxp = parse_with(
            &["launch", "--ranks", "2", "--mxp"],
            &[("RHPL_ELEMENT", "f32")],
        );
        assert_eq!(mxp.map(|o| o.element), Ok(ElementSel::F32));
    }

    #[test]
    fn child_argv_round_trips_to_the_supervisors_settings() {
        let env = [("RHPL_MAILBOX", "mutex"), ("RHPL_COMM_TIMEOUT", "30")];
        let ctrl: SocketAddr = "127.0.0.1:4242".parse().expect("addr");
        for args in [
            &["launch", "x.dat", "--ranks", "4"][..],
            &[
                "launch",
                "--ranks",
                "2",
                "x.dat",
                "--transport",
                "inproc",
                "--split-frac",
                "0.3",
                "--threads",
                "2",
                "--seed",
                "7",
                "--kernel",
                "scalar",
                "--ckpt-every",
                "2",
                "--fault",
                "death@1:send:4",
                "--fault",
                "delay:5@0:send:0:sticky",
                "--fault-seed",
                "9",
                "--comm-timeout",
                "5",
            ],
            &["launch", "--ranks", "2", "--mxp", "--element", "f32"],
        ] {
            let sup = parse_with(args, &env).expect("valid launch");
            assert_eq!(sup.mode, Mode::Launch);
            for disarm in [false, true] {
                let argv = sup.child_argv(1, ctrl, disarm);
                let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
                let mut child = parse_with(&argv, &env).expect("child argv parses");
                assert_eq!(
                    child.mode,
                    Mode::Rank {
                        rank: 1,
                        ctrl,
                        disarm
                    }
                );
                child.mode = Mode::Launch;
                assert_eq!(child, sup, "{argv:?}");
            }
        }
    }
}
