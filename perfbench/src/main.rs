//! kert-perfbench: one workload per invocation, end-to-end metrics
//! untraced (`--trace 0`) or per-layer metrics traced (`--trace 1`).
//!
//! ```text
//! kert-perfbench --workload serve_ediamond|serve_wide|relearn_cycle
//!     --seed N --seconds S --trace 0|1 --kertctl PATH --work DIR [--rev REV]
//! ```
//!
//! The last line of stdout is the result object; the run record and every
//! failed check go before it. Exit code 0 only when every check passed.

mod check;
mod daemon;
mod json;
mod layers;
mod load;
mod model;
mod oracle;
mod relearn;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use model::Shape;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    kertctl: PathBuf,
    work: PathBuf,
    rev: String,
}

fn parse() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |name: &str| get(name).ok_or_else(|| format!("missing {name}"));
    let workload = need("--workload")?.to_string();
    if !["serve_ediamond", "serve_wide", "relearn_cycle"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|_| "--seconds: not a number")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: get("--seed")
            .unwrap_or("1")
            .parse()
            .map_err(|_| "--seed: not a number")?,
        seconds,
        trace: match get("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
        },
        kertctl: PathBuf::from(need("--kertctl")?),
        work: PathBuf::from(need("--work")?),
        rev: get("--rev").unwrap_or("unknown").to_string(),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kert-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = args.work.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("kert-perfbench: creating {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let result = if args.trace {
        layers::run(
            &args.workload,
            &args.kertctl,
            &work,
            args.seed,
            args.seconds,
        )
    } else {
        match args.workload.as_str() {
            "serve_ediamond" => serve::run(
                Shape::Ediamond,
                &args.kertctl,
                &work,
                args.seed,
                args.seconds,
            ),
            "serve_wide" => serve::run(Shape::Wide, &args.kertctl, &work, args.seed, args.seconds),
            _ => relearn::run(args.seed, args.seconds),
        }
    };
    if let (Err(_), Ok(log)) = (&result, std::fs::read_to_string(daemon::log_path(&work))) {
        eprintln!("kertctl serve stderr:\n{log}");
    }
    let _ = std::fs::remove_dir_all(&work);
    let out = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("kert-perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    for b in out.bad.iter().take(20) {
        println!("CHECK FAILED: {b}");
    }
    if out.bad.len() > 20 {
        println!("CHECK FAILED: … and {} more", out.bad.len() - 20);
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "run: workload={} seed={} seconds={} trace={} host_cores={cores} rev={} attempted={} failed={} checks_failed={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.rev,
        out.attempted,
        out.failed,
        out.bad.len()
    );
    for (name, value, unit) in out.metrics.iter() {
        eprintln!("  {name:<32} {value:>14.4} {unit}");
    }
    println!(
        "{}",
        out.metrics
            .result_line(out.bad.is_empty(), out.attempted, out.failed)
    );
    if out.bad.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
