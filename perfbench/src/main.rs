//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--smoke]`: runs one benchmark workload and prints its report, ending
//! with the one-line JSON result.

use perfbench::report::provenance;
use perfbench::spans::perfetto_json;
use perfbench::{out_dir, Opts, Workload, DEFAULT_SEED};
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <fig_sweep|mesh_idle|mesh_loaded> [--seed N] \
         [--seconds S] [--trace 0|1] [--smoke]"
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: Workload::FigSweep,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => opts.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .map_err(|_| format!("bad value {value:?} for {flag}"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, not {value}"
                    ));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(problem) => return usage(&problem),
    };
    // `fig4_rates` shrinks its grid under the figure harness's quick
    // mode; the benchmark always sweeps the full six-rate grid.
    std::env::remove_var("ADELE_QUICK");

    let meta = provenance(&opts);
    println!(
        "provenance {}",
        serde_json::to_string(&meta).expect("JSON encoding is infallible")
    );
    let mut outcome = perfbench::run(&opts);
    if let Some((spans, _)) = &outcome.spans {
        let path = out_dir().join(format!(
            "trace-{}-seed{}.json",
            opts.workload.name(),
            opts.seed
        ));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, perfetto_json(spans, meta)));
        match written {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => outcome.check(Err(format!("cannot write {}: {e}", path.display()))),
        }
    }
    println!("{} (trace {}):", opts.workload.name(), u8::from(opts.trace));
    print!("{}", outcome.table(opts.trace));
    println!("{}", outcome.result_line(opts.trace));
    ExitCode::SUCCESS
}
