//! The repository's benchmark: three seeded workloads over a model zoo,
//! end-to-end metrics from an untraced run, per-layer metrics from a
//! separate traced run. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <offline_batch|record1|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --selftest --seed <n>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}`.

// A benchmark, not library code: a zoo model that fails to compile or a
// poisoned lock ends the run, which is what `expect` does.
#![allow(clippy::disallowed_methods)]

mod layers;
mod stats;
mod trace;
mod workloads;
mod zoo;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use workloads::{digest_schedule, Outcome, Workload};
use zoo::{Fnv, Zoo};

/// Independent measurements per untraced run, each in its own process
/// with cold process-wide state and fresh on-disk tuning caches, each for
/// an equal share of the run's seconds; every end-to-end metric is the
/// median over them, so a replica caught by a burst of machine noise does
/// not set the run's figure. The program autotunes its GEMM tiles once per
/// process, so each replica is also one draw of the tuner. `offline_batch`
/// has fewer, longer windows: its rounds are long.
fn replicas(w: Workload) -> usize {
    match w {
        Workload::OfflineBatch => 3,
        Workload::Record1 | Workload::ServeMixed => 5,
    }
}

/// Settings that would replace what the benchmark measures.
const FORBIDDEN_ENV: [&str; 3] = ["HB_TILE", "HB_COST", "HB_CHAOS_SEED"];

enum Mode {
    Run,
    /// One measurement of the zoo saved in this directory.
    Replica(PathBuf),
    SelfTest,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    mode: Mode,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut mode = Mode::Run;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selftest" {
            mode = Mode::SelfTest;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--replica" => mode = Mode::Replica(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    let workload = match mode {
        Mode::SelfTest => workload.unwrap_or(Workload::ServeMixed),
        _ => workload.ok_or("--workload is required")?,
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        mode,
    })
}

fn main() {
    let code = match real_main() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    for var in FORBIDDEN_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; unset it, the benchmark measures the default tuning"
            ));
        }
    }
    // Every process gets fresh tuning caches in its own output directory,
    // so no run (and no other commit) hands its tile winners or cost
    // calibration to the next. The library reads these lazily, on first use.
    let role = match (&args.mode, args.trace) {
        (Mode::Replica(_), _) => "replica",
        (Mode::SelfTest, _) => "selftest",
        (Mode::Run, false) => "e2e",
        (Mode::Run, true) => "trace",
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "{}-seed{}-{role}-{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        ));
    if out_dir.exists() {
        std::fs::remove_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    }
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    std::env::set_var("HB_TILE_CACHE", out_dir.join("tile-cache.txt"));
    std::env::set_var("HB_COST_CACHE", out_dir.join("cost-cache.txt"));
    match &args.mode {
        Mode::Replica(zoo_dir) => replica(&args, zoo_dir, &out_dir),
        Mode::SelfTest => selftest(args.seed),
        Mode::Run => run(&args, &out_dir),
    }
}

fn digest(zoo: &Zoo, seed: u64) -> u64 {
    let mut h = Fnv::new();
    zoo.digest(&mut h);
    digest_schedule(zoo, seed, &mut h);
    h.finish()
}

fn run(args: &Args, out_dir: &Path) -> Result<(), String> {
    let w = args.workload;
    let t = Instant::now();
    let zoo = Zoo::generate(args.seed);
    let zoo_digest = digest(&zoo, args.seed);
    eprintln!(
        "{}: seed {}, zoo of {} models built in {:.1}s, digest {zoo_digest:016x}",
        w.name(),
        args.seed,
        zoo.models.len(),
        t.elapsed().as_secs_f64()
    );
    let mut out = Outcome::new();
    if args.trace {
        layers::traced(w, &zoo, args.seed, args.seconds, out_dir, &mut out)?;
        write_tuned_snapshot(&out_dir.join("tuned-tiles.txt"))?;
        return print_result(w, &out, out_dir);
    }
    let zoo_dir = out_dir.join("zoo");
    std::fs::create_dir_all(&zoo_dir).map_err(|e| format!("{}: {e}", zoo_dir.display()))?;
    zoo.save(&zoo_dir)?;
    let mut samples: Vec<(String, Vec<f64>, String)> = Vec::new();
    for _ in 0..replicas(w) {
        let lines = spawn_replica(args, &zoo_dir)?;
        for line in lines.lines() {
            let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
            let f: Vec<&str> = rest.split_whitespace().collect();
            match (kind, f.as_slice()) {
                ("metric", [name, value, unit]) => {
                    let v: f64 = value
                        .parse()
                        .map_err(|_| format!("replica printed {line:?}"))?;
                    match samples.iter_mut().find(|(n, _, _)| n == name) {
                        Some((_, vs, _)) => vs.push(v),
                        None => samples.push((name.to_string(), vec![v], unit.to_string())),
                    }
                }
                ("ops", [op, attempted, failed]) => out.ops.add(op, attempted, failed)?,
                ("problem", _) => out.problems.push(rest.to_string()),
                ("digest", [d]) if *d != format!("{zoo_digest:016x}") => {
                    out.problems.push(format!(
                        "a replica rebuilt seed {} as digest {d}, not {zoo_digest:016x}",
                        args.seed
                    ))
                }
                _ => {}
            }
        }
    }
    // The saved zoo is only the replicas' input.
    std::fs::remove_dir_all(&zoo_dir).map_err(|e| format!("{}: {e}", zoo_dir.display()))?;
    for (name, values, unit) in samples {
        eprintln!("{name}: {values:?}");
        out.metrics.push(&name, stats::median(&values), &unit);
    }
    print_result(w, &out, out_dir)
}

/// One replica: loads the saved zoo, runs the untraced workload and prints
/// its figures as `metric`, `ops`, `problem` and `digest` lines.
fn replica(args: &Args, zoo_dir: &Path, out_dir: &Path) -> Result<(), String> {
    let zoo = Zoo::load(args.seed, zoo_dir)?;
    let mut out = Outcome::new();
    workloads::untraced(args.workload, &zoo, args.seed, args.seconds, &mut out);
    write_tuned_snapshot(&out_dir.join("tuned-tiles.txt"))?;
    println!("digest {:016x}", digest(&zoo, args.seed));
    for (name, value, unit) in &out.metrics.0 {
        println!("metric {name} {value} {unit}");
    }
    for line in out.ops.lines() {
        println!("ops {line}");
    }
    for p in &out.problems {
        println!("problem {p}");
    }
    Ok(())
}

/// Runs one replica to completion and returns what it printed.
fn spawn_replica(args: &Args, zoo_dir: &Path) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &(args.seconds / replicas(args.workload) as f64).to_string(),
        ])
        .arg("--replica")
        .arg(zoo_dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("replica: {e}"))?;
    if !output.status.success() {
        return Err(format!("replica failed ({})", output.status));
    }
    Ok(String::from_utf8_lossy(&output.stdout).into_owned())
}

/// Same seed, same zoo, rows and schedule; another seed, another digest.
/// Trains the zoo three times, so it takes a while.
fn selftest(seed: u64) -> Result<(), String> {
    let a = digest(&Zoo::generate(seed), seed);
    let b = digest(&Zoo::generate(seed), seed);
    let c = digest(&Zoo::generate(seed + 1), seed + 1);
    eprintln!(
        "seed {seed}: {a:016x} then {b:016x}; seed {}: {c:016x}",
        seed + 1
    );
    if a != b {
        return Err(format!("seed {seed} built two different zoos"));
    }
    if a == c {
        return Err(format!("seeds {seed} and {} built the same zoo", seed + 1));
    }
    println!("selftest ok: digest {a:016x}");
    Ok(())
}

/// Records the tile winners this run tuned (its own cache, started empty).
fn write_tuned_snapshot(path: &Path) -> Result<(), String> {
    let mut rows: Vec<String> = hummingbird::tensor::tune::tuned_snapshot()
        .into_iter()
        .map(|((m2, k2, n2, th), c)| {
            format!("{m2} {k2} {n2} {th} -> mr {} nr {} kc {}", c.mr, c.nr, c.kc)
        })
        .collect();
    rows.sort();
    std::fs::write(path, rows.join("\n") + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints the metrics for people on stderr, keeps a copy in the run's
/// directory, and prints the result object as the last line of stdout.
fn print_result(w: Workload, out: &Outcome, out_dir: &Path) -> Result<(), String> {
    let (attempted, failed) = out.ops.totals();
    let mut problems = out.problems.clone();
    if out.ops.mismatched() > 0 {
        problems.push(format!(
            "{} answers differ from the reference beyond rtol = atol = {}",
            out.ops.mismatched(),
            workloads::TOLERANCE
        ));
    }
    let mut report = format!("workload {}\nops: {}\n", w.name(), out.ops.summary());
    let mut fields = Vec::new();
    for (name, value, unit) in &out.metrics.0 {
        report += &format!("{name:<28} {value:>16.4} {unit}\n");
        if !value.is_finite() {
            problems.push(format!("{name} is {value}"));
        }
        let v = if value.is_finite() { *value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    for p in &problems {
        report += &format!("problem: {p}\n");
    }
    eprint!("{report}");
    std::fs::write(out_dir.join("report.txt"), &report)
        .map_err(|e| format!("{}: {e}", out_dir.display()))?;
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        fields.join(", ")
    );
    Ok(())
}
