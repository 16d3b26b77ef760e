//! Strict command-line grammar for the `pp-exp` binary.
//!
//! Parsing lives in the library (not the binary) so the grammar is
//! unit-testable as a pure function. The parser is strict: an unknown
//! `--flag` or a stray positional is an error, not something to ignore —
//! a typo like `--quikc` must fail loudly instead of silently running the
//! full-effort sweep.

/// Every experiment `pp-exp` accepts, in help order.
pub const EXPERIMENTS: &[&str] = &[
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "table1",
    "headline",
    "mixed",
    "throughput",
    "adversity",
    "overhead",
    "cluster",
    "all",
];

/// A parsed `pp-exp` invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cli {
    /// The experiment to run (always one of [`EXPERIMENTS`]).
    pub which: String,
    /// `--quick`: reduced test-effort sweeps.
    pub quick: bool,
    /// `--out FILE`: write the JSON series to `FILE`.
    pub out: Option<String>,
    /// `--tolerance T`: the `overhead` gate's tolerance.
    pub tolerance: Option<f64>,
    /// `--telemetry FILE`: write Prometheus exposition text to `FILE`.
    pub telemetry: Option<String>,
}

/// The usage string printed alongside any parse error (exit code 2).
pub fn usage() -> String {
    format!(
        "usage: pp-exp <{}> [--quick] [--out FILE] [--tolerance T] [--telemetry FILE]",
        EXPERIMENTS.join("|")
    )
}

/// Parses the arguments after the program name. Strict: unknown flags,
/// missing flag values, unknown or repeated experiments are all errors.
pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_ref();
        match arg {
            "--quick" => cli.quick = true,
            "--out" | "--tolerance" | "--telemetry" => {
                let value = args
                    .get(i + 1)
                    .map(|s| s.as_ref().to_string())
                    .ok_or_else(|| format!("{arg} requires a value"))?;
                i += 1;
                match arg {
                    "--out" => cli.out = Some(value),
                    "--telemetry" => cli.telemetry = Some(value),
                    _ => {
                        let t = value
                            .parse()
                            .map_err(|_| format!("--tolerance must be a number, got {value:?}"))?;
                        cli.tolerance = Some(t);
                    }
                }
            }
            _ if arg.starts_with('-') => return Err(format!("unknown flag {arg:?}")),
            _ => {
                if !cli.which.is_empty() {
                    return Err(format!(
                        "unexpected argument {arg:?} (experiment already set to {:?})",
                        cli.which
                    ));
                }
                if !EXPERIMENTS.contains(&arg) {
                    return Err(format!("unknown experiment {arg:?}"));
                }
                cli.which = arg.to_string();
            }
        }
        i += 1;
    }
    if cli.which.is_empty() {
        return Err("missing experiment".into());
    }
    Ok(cli)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grammar_parses() {
        let cli = parse(&[
            "throughput",
            "--quick",
            "--out",
            "series.json",
            "--tolerance",
            "0.2",
            "--telemetry",
            "run.prom",
        ])
        .unwrap();
        assert_eq!(cli.which, "throughput");
        assert!(cli.quick);
        assert_eq!(cli.out.as_deref(), Some("series.json"));
        assert_eq!(cli.tolerance, Some(0.2));
        assert_eq!(cli.telemetry.as_deref(), Some("run.prom"));
    }

    #[test]
    fn flags_may_precede_the_experiment() {
        let cli = parse(&["--quick", "--telemetry", "t.prom", "adversity"]).unwrap();
        assert_eq!(cli.which, "adversity");
        assert!(cli.quick);
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = parse(&["throughput", "--quikc"]).unwrap_err();
        assert!(err.contains("--quikc"), "{err}");
        // Regression: unknown flags used to be silently ignored, so a
        // typoed --quick ran the full-effort sweep.
        let err = parse(&["mixed", "--telemetri", "x.prom"]).unwrap_err();
        assert!(err.contains("--telemetri"), "{err}");
        // The retired bench gate's flag is gone, not ignored.
        let err = parse(&["throughput", "--baseline", "old.json"]).unwrap_err();
        assert!(err.contains("--baseline"), "{err}");
    }

    #[test]
    fn missing_flag_value_is_rejected() {
        for flag in ["--out", "--tolerance", "--telemetry"] {
            let err = parse(&["throughput", flag]).unwrap_err();
            assert!(err.contains("requires a value"), "{flag}: {err}");
        }
    }

    #[test]
    fn experiment_errors() {
        assert!(parse(&["fig99"]).unwrap_err().contains("unknown experiment"));
        assert!(parse::<&str>(&[]).unwrap_err().contains("missing experiment"));
        assert!(parse(&["--quick"]).unwrap_err().contains("missing experiment"));
        assert!(parse(&["fig06", "fig07"]).unwrap_err().contains("unexpected argument"));
    }

    #[test]
    fn non_numeric_tolerance_is_rejected() {
        let err = parse(&["throughput", "--tolerance", "lots"]).unwrap_err();
        assert!(err.contains("must be a number"), "{err}");
    }

    #[test]
    fn flag_values_are_not_mistaken_for_experiments() {
        // "all" as a flag value must not become the experiment.
        let cli = parse(&["--out", "all", "fig06"]).unwrap();
        assert_eq!(cli.which, "fig06");
        assert_eq!(cli.out.as_deref(), Some("all"));
    }
}
