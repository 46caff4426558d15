//! The repository benchmark: four workloads, measured end to end and, in
//! a separate traced run, layer by layer. README.md beside this file has
//! the workload and metric tables.
//!
//! ```text
//! cargo run --release --offline -p rogue-scenario --example benchmark -- \
//!     [--workload NAME]... [--seed S] [--seconds N] [--trace 0|1] [--repeats N] [--smoke]
//! ```
//!
//! One workload and one repeat run in this process: after one unmeasured
//! warm-up pass, passes of the workload repeat for `--seconds`, every
//! output is checked, and the last line of standard output is one JSON
//! object with `correct`,
//! `attempted`, `failed` and `metrics`. Anything else runs one child
//! process per (workload, repeat), one at a time, and prints the median
//! and quartiles across them. A failed check makes the process exit
//! nonzero.

mod campus;
mod city;
mod host;
mod layers;
mod paper;
mod trace;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use host::{median, quartiles};
use trace::Tracer;

/// Replications per experiment cell in a full `paper` pass.
const PAPER_REPS: usize = 8;
/// Measuring time of one run unless `--seconds` says otherwise; the
/// `run_seconds` of BENCHMARK.json.
const RUN_SECONDS: f64 = 15.0;
/// Where runs write span traces and summaries, under the working directory.
const OUT_DIR: &str = ".bench_out";
/// Output digests at the default seeds, one `key size seed digest` line
/// each.
const EXPECTED: &str = include_str!("expected.txt");

/// The end-to-end metrics, `(name, unit)`.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

const USAGE: &str = "usage: benchmark [--workload paper|campus|city|city_sharded]... [--seed S] \
                     [--seconds N] [--trace 0|1] [--repeats N] [--smoke]";

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Paper,
    Campus,
    City,
    CitySharded,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Paper,
        Workload::Campus,
        Workload::City,
        Workload::CitySharded,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Campus => "campus",
            Workload::City => "city",
            Workload::CitySharded => "city_sharded",
        }
    }

    fn default_seed(self) -> u64 {
        match self {
            Workload::Paper => 0x2003_1CC9,
            Workload::Campus => 0xCA30_0500,
            Workload::City | Workload::CitySharded => 0xC17,
        }
    }

    /// Key of the workload's digest. Sharding must not change a bit of
    /// the output, so `city_sharded` answers to `city`'s digest.
    fn digest_key(self) -> &'static str {
        match self {
            Workload::CitySharded => "city",
            w => w.name(),
        }
    }
}

/// What one pass of a workload hands back.
pub struct Pass {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Set-up times measured in this pass.
    pub setup_s: Vec<f64>,
    /// Digest of the outputs: equal inputs must give equal digests.
    pub digest: u64,
    /// Output checks, by name.
    pub checks: Vec<(&'static str, bool)>,
    pub layers: layers::Layers,
}

fn run_pass(w: Workload, seed: u64, smoke: bool, tr: &mut Tracer) -> Pass {
    match w {
        Workload::Paper => paper::pass(if smoke { 2 } else { PAPER_REPS }, seed, tr),
        Workload::Campus => campus::pass(seed, smoke, tr),
        Workload::City => city::pass(city::size(smoke), seed, 1, tr),
        Workload::CitySharded => city::pass(city::size(smoke), seed, 2, tr),
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    repeats: usize,
    smoke: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: None,
        seconds: None,
        trace: false,
        repeats: 1,
        smoke: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => a.workloads.push(
                Workload::ALL
                    .into_iter()
                    .find(|w| w.name() == value)
                    .ok_or_else(bad)?,
            ),
            "--seed" => a.seed = Some(parse_u64(&value).ok_or_else(bad)?),
            "--seconds" => {
                let s = value.parse::<f64>().ok().filter(|s| *s >= 0.0);
                a.seconds = Some(s.ok_or_else(bad)?);
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--repeats" => {
                let n = value.parse::<usize>().ok().filter(|&n| n >= 1);
                a.repeats = n.ok_or_else(bad)?;
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = Workload::ALL.to_vec();
    }
    Ok(a)
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The pool size every run pins: all CPUs, at most four.
fn pool_threads() -> usize {
    host_cpus().min(4)
}

fn expected(key: &str, size: &str, seed: u64) -> Option<u64> {
    EXPECTED.lines().find_map(
        |line| match line.split_whitespace().collect::<Vec<_>>()[..] {
            [k, s, sd, digest] if k == key && s == size && parse_u64(sd) == Some(seed) => {
                u64::from_str_radix(digest, 16).ok()
            }
            _ => None,
        },
    )
}

/// A number JSON can hold.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// One run of one workload in this process.
fn run(w: Workload, args: &Args) -> bool {
    let threads = pool_threads();
    rayon::set_num_threads(threads);
    let seed = args.seed.unwrap_or(w.default_seed());
    let size = if args.smoke { "smoke" } else { "full" };
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 0.0 } else { RUN_SECONDS });
    println!(
        "workload {} ({size}), seed {seed:#x}, {seconds} s, trace {}, host_cpus {}, pool_threads {threads}",
        w.name(),
        u8::from(args.trace),
        host_cpus(),
    );

    // The first pass is checked but not measured: a fresh process pays
    // for page faults, cold caches and lazy set-up that later passes do
    // not, so counting it made the median depend on how many passes fit.
    let warmup = run_pass(w, seed, args.smoke, &mut Tracer::new(false));
    // The memory of a process that ran the workload once. Read after the
    // measured passes, the peak also caught allocator-arena growth in
    // about one paper run in ten (+5 MiB on 18).
    let peak_rss_mb = host::peak_rss_mib();
    let start = Instant::now();
    // A traced run then takes one untraced pass: the trace overhead is
    // measured against it, and the traced passes must reproduce its output.
    let baseline = args
        .trace
        .then(|| run_pass(w, seed, args.smoke, &mut Tracer::new(false)));
    let mut tracer = Tracer::new(args.trace);
    let mut passes = Vec::new();
    loop {
        tracer.begin_run(passes.len());
        let p = run_pass(w, seed, args.smoke, &mut tracer);
        println!(
            "  pass {}: wall {:.4} s, cpu {:.4} s, digest {:016x}",
            passes.len() + 1,
            p.wall_s,
            p.cpu_s,
            p.digest
        );
        let last = p.wall_s;
        passes.push(p);
        // Start another pass only if it should end within the run time.
        if start.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }

    let key = w.digest_key();
    let reference = match expected(key, size, seed) {
        Some(d) => d,
        // No digest recorded for this seed: sharding must still match an
        // untimed serial run.
        None if w == Workload::CitySharded => {
            run_pass(Workload::City, seed, args.smoke, &mut Tracer::new(false)).digest
        }
        None => warmup.digest,
    };
    println!("digest {key} {size} {seed:#x} {:016x}", warmup.digest);
    let mut checks = Vec::new();
    for p in std::iter::once(&warmup).chain(&baseline).chain(&passes) {
        if p.digest != reference {
            eprintln!(
                "output digest {:016x} differs from the reference {reference:016x}",
                p.digest
            );
        }
        checks.push((
            "the output digest matches the reference",
            p.digest == reference,
        ));
        checks.extend(p.checks.iter().copied());
    }
    let failed = checks.iter().filter(|c| !c.1).count();
    for (name, _) in checks.iter().filter(|c| !c.1) {
        eprintln!("check failed: {name}");
    }

    let metrics: Vec<(&str, &str, Vec<f64>)> = if let Some(base) = &baseline {
        for p in &mut passes {
            let overhead = layers::ratio(p.wall_s - base.wall_s, base.wall_s) * 100.0;
            p.layers.push(("trace_overhead_pct", overhead));
        }
        let path = format!("{OUT_DIR}/trace-{}-{seed:#x}.json", w.name());
        match std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, tracer.to_json()))
        {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
        layers::METRICS
            .iter()
            .map(|&(name, unit)| {
                let values = passes
                    .iter()
                    .map(|p| p.layers.iter().find(|l| l.0 == name).map_or(0.0, |l| l.1))
                    .collect();
                (name, unit, values)
            })
            .collect()
    } else {
        let [wall, cpu, setup, rss] = END_TO_END;
        vec![
            (wall.0, wall.1, passes.iter().map(|p| p.wall_s).collect()),
            (cpu.0, cpu.1, passes.iter().map(|p| p.cpu_s).collect()),
            (
                setup.0,
                setup.1,
                passes.iter().flat_map(|p| p.setup_s.clone()).collect(),
            ),
            (rss.0, rss.1, vec![peak_rss_mb]),
        ]
    };
    // Layers the workload never reaches read 0; the JSON line keeps them.
    for (name, unit, v) in metrics.iter().filter(|m| m.2.iter().any(|&x| x != 0.0)) {
        let (m, q1, q3) = quartiles(v);
        println!(
            "  {name:<30} {m:>14.6} {unit:<9} q1 {q1:.6}  q3 {q3:.6}  n {}",
            v.len()
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                finite(median(v))
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        checks.len(),
        body.join(", ")
    );
    failed == 0
}

/// The number after `"key": ` in one line of JSON this program wrote.
fn json_number(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    let rest = rest.strip_prefix("{\"value\": ").unwrap_or(rest);
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// First line of a command's output, if it runs.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run one child process per (workload, repeat), one at a time, and
/// summarise each metric across the repeats.
fn run_children(args: &Args) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this program to re-run it: {e}");
            return false;
        }
    };
    let metrics: Vec<(&str, &str)> = if args.trace {
        layers::METRICS.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let mut ok = true;
    let mut digests: Vec<String> = Vec::new();
    let mut table = Vec::new();
    let mut rows = Vec::new();
    for &w in &args.workloads {
        let mut last_lines = Vec::new();
        let mut failed_runs = 0;
        for _ in 0..args.repeats {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name()]);
            cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
            if let Some(seed) = args.seed {
                cmd.args(["--seed", &seed.to_string()]);
            }
            if let Some(seconds) = args.seconds {
                cmd.args(["--seconds", &seconds.to_string()]);
            }
            if args.smoke {
                cmd.arg("--smoke");
            }
            let out = match cmd.stderr(Stdio::inherit()).output() {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("cannot run {}: {e}", exe.display());
                    return false;
                }
            };
            let text = String::from_utf8_lossy(&out.stdout);
            print!("{text}");
            if !out.status.success() {
                failed_runs += 1;
            }
            digests.extend(
                text.lines()
                    .filter_map(|l| l.strip_prefix("digest "))
                    .map(str::to_string),
            );
            last_lines.extend(text.lines().last().map(str::to_string));
        }
        ok &= failed_runs == 0;
        let stats: Vec<String> = metrics
            .iter()
            .map(|&(name, unit)| {
                let v: Vec<f64> = last_lines
                    .iter()
                    .filter_map(|l| json_number(l, name))
                    .collect();
                let (m, q1, q3) = quartiles(&v);
                if v.iter().any(|&x| x != 0.0) {
                    table.push(format!(
                        "{:<13} {name:<30} {m:>14.6} {unit:<9} q1 {q1:.6}  q3 {q3:.6}  n {}",
                        w.name(),
                        v.len()
                    ));
                }
                format!(
                    "\"{name}\": {{\"unit\": \"{unit}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                    finite(m),
                    finite(q1),
                    finite(q3),
                    v.len()
                )
            })
            .collect();
        rows.push(format!(
            "    \"{}\": {{\"runs\": {}, \"failed_runs\": {failed_runs}, \"metrics\": {{\n      {}\n    }}}}",
            w.name(),
            last_lines.len(),
            stats.join(",\n      ")
        ));
    }

    println!(
        "\nmedian and quartiles across {} run(s) per workload:",
        args.repeats
    );
    for line in &table {
        println!("{line}");
    }

    // Every run of one input must give one output, and city_sharded the
    // same output as city.
    digests.sort();
    for pair in digests.windows(2) {
        let input = |d: &str| d.rsplit_once(' ').map(|(i, _)| i.to_string());
        if input(&pair[0]) == input(&pair[1]) && pair[0] != pair[1] {
            eprintln!(
                "check failed: runs disagree: `{}` vs `{}`",
                pair[0], pair[1]
            );
            ok = false;
        }
    }

    let command: Vec<String> = std::env::args().skip(1).collect();
    let summary = format!(
        concat!(
            "{{\n  \"command\": \"benchmark {}\",\n  \"host_cpus\": {},\n",
            "  \"pool_threads\": {},\n  \"rustc\": \"{}\",\n  \"commit\": \"{}\",\n",
            "  \"workloads\": {{\n{}\n  }}\n}}\n"
        ),
        command.join(" "),
        host_cpus(),
        pool_threads(),
        command_line("rustc", &["-V"]),
        command_line("git", &["rev-parse", "HEAD"]),
        rows.join(",\n")
    );
    let path = format!("{OUT_DIR}/summary.json");
    match std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, summary)) {
        Ok(()) => println!("summary written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    if !ok {
        eprintln!("benchmark FAILED");
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match (args.workloads.as_slice(), args.repeats) {
        ([w], 1) => run(*w, &args),
        _ => run_children(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
