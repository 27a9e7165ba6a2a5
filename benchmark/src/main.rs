//! `fmm-ledger`: the repository's benchmark. See `README.md` beside this
//! package for the metric and workload definitions.

mod affinity;
mod arch;
mod harness;
mod layers;
mod names;
mod noise;
mod ops;
mod spans;
mod stats;
mod traced;

use harness::Options;
use ops::Workload;
use std::process::ExitCode;

const USAGE: &str = "usage:
  fmm-ledger run <workload> [--seed N] [--seconds S] [--trace] [--quick]
  fmm-ledger --workload <workload> --seed N --seconds S --trace <0|1>
  fmm-ledger setup-probe <workload> [--seed N]
  fmm-ledger calibrate
  fmm-ledger noise <runs> [--seconds S]
workloads: square rankk small_mix serve";

/// Length of the measured phase unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 18.0;

enum Command {
    Run { opts: Options, trace: bool },
    SetupProbe(Options),
    Calibrate,
    Noise { runs: usize, seconds: f64 },
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut positional = Vec::new();
    let (mut workload, mut seed, mut seconds, mut trace, mut quick) =
        (None, 1, DEFAULT_SECONDS, false, false);
    let mut it = args.iter().map(String::as_str).peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg {
            "--workload" => workload = Some(value("a workload")?.to_string()),
            "--seed" => seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--quick" => quick = true,
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => trace = !matches!(it.next_if(|v| matches!(*v, "0" | "1")), Some("0")),
            _ if arg.starts_with("--") => return Err(format!("unknown option {arg}")),
            _ => positional.push(arg),
        }
    }
    if !(seconds.is_finite() && (0.0..=600.0).contains(&seconds)) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let options = |name: Option<&str>| {
        let name = name.ok_or("no workload named")?;
        let workload = Workload::parse(name).ok_or(format!("unknown workload {name}"))?;
        Ok::<_, String>(Options { workload, seed, seconds, quick })
    };
    match positional.as_slice() {
        [] => Ok(Command::Run { opts: options(workload.as_deref())?, trace }),
        ["run", name] => Ok(Command::Run { opts: options(Some(name))?, trace }),
        ["setup-probe", name] => Ok(Command::SetupProbe(options(Some(name))?)),
        ["calibrate"] => Ok(Command::Calibrate),
        ["noise", runs] => {
            Ok(Command::Noise { runs: runs.parse().map_err(|e| format!("noise: {e}"))?, seconds })
        }
        other => Err(format!("cannot make sense of {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Unoptimised numbers mean nothing. Quick mode is a smoke test whose
    // numbers mean nothing either, so the tests may drive it.
    let quick =
        matches!(&command, Command::Run { opts, .. } | Command::SetupProbe(opts) if opts.quick);
    if cfg!(debug_assertions) && !quick {
        eprintln!("fmm-ledger refuses to measure a debug build; build with --release");
        return ExitCode::from(3);
    }
    harness::pin_environment();
    // A run that printed its result exits 0 even with failed ops: the
    // result says so (`correct`, `failed`). `noise` reports through its
    // exit code.
    let outcome = match command {
        Command::Run { opts, trace: false } => harness::run_end_to_end(opts),
        Command::Run { opts, trace: true } => traced::run_traced(opts),
        Command::SetupProbe(opts) => harness::setup_probe(opts),
        Command::Calibrate => arch::calibrate().map_err(|e| e.to_string()),
        Command::Noise { runs, seconds } => noise::noise(runs, seconds),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fmm-ledger: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_words(words: &str) -> Result<Command, String> {
        parse(&words.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_form_and_the_manual_form_parse_alike() {
        let Ok(Command::Run { opts, trace }) =
            parse_words("--workload rankk --seed 7 --seconds 5 --trace 1")
        else {
            panic!("driver form");
        };
        assert_eq!(
            (opts.workload, opts.seed, opts.seconds, trace),
            (Workload::Rankk, 7, 5.0, true)
        );
        let Ok(Command::Run { opts, trace }) =
            parse_words("run rankk --seed 7 --seconds 5 --trace")
        else {
            panic!("manual form");
        };
        assert_eq!(
            (opts.workload, opts.seed, opts.seconds, trace),
            (Workload::Rankk, 7, 5.0, true)
        );
        let Ok(Command::Run { trace, .. }) =
            parse_words("--workload serve --seed 1 --seconds 20 --trace 0")
        else {
            panic!("untraced");
        };
        assert!(!trace);
    }

    #[test]
    fn nonsense_is_refused() {
        assert!(parse_words("run nope").is_err());
        assert!(parse_words("run square --frobnicate").is_err());
        assert!(parse_words("run square --seconds -3").is_err());
        assert!(parse_words("--seed 3").is_err());
        assert!(parse_words("noise many").is_err());
    }
}
