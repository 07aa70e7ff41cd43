//! `cpm-snapshot` — inspect and maintain `CPM_WARM_FILE` design snapshots.
//!
//! ```text
//! cpm-snapshot list <file>...                     print each design's key + metadata
//! cpm-snapshot merge -o <out> <file>...           first-file-wins union of snapshots
//! cpm-snapshot prune -o <out> <file> [filters]    drop entries matching every filter
//!     --keep              invert: keep only the matching entries
//! filters (repeatable; dimensions AND together, values within one OR):
//!     --n <N>             group size
//!     --alpha <A>         privacy parameter, matched bit-exactly
//!     --properties <SET>  requested properties, e.g. WH+CM or "{WH, CM}"
//!     --objective <OBJ>   L0 | L1 | L2 | L0,d
//! ```
//!
//! Exit status: 0 on success, 1 on bad usage, 2 on I/O or parse failure.

use cpm_core::{Alpha, DesignedMechanism, ObjectiveKey, PropertySet};
use cpm_serve::snapshot::{self, KeyFilter};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("list") => list(&args[1..]),
        Some("merge") => merge(&args[1..]),
        Some("prune") => prune(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprint!("{}", USAGE);
            if args.is_empty() {
                1
            } else {
                0
            }
        }
        Some(other) => {
            eprintln!("cpm-snapshot: unknown command `{other}`\n{USAGE}");
            1
        }
    };
    std::process::exit(code);
}

const USAGE: &str = "\
usage: cpm-snapshot <command> [args]
  list <file>...                    print each design's key and metadata
  merge -o <out> <file>...          first-file-wins union of snapshots
  prune -o <out> <file> [filters]   drop entries matching every given filter
        --keep                      invert: keep only the matching entries
  filters (repeatable): --n <N>  --alpha <A>  --properties <SET>  --objective <OBJ>
";

fn list(files: &[String]) -> i32 {
    if files.is_empty() {
        eprintln!("cpm-snapshot list: no snapshot files given\n{USAGE}");
        return 1;
    }
    for file in files {
        let designs = match snapshot::read_file(file) {
            Ok(designs) => designs,
            Err(error) => {
                eprintln!("cpm-snapshot: {error}");
                return 2;
            }
        };
        println!("{file}: {} design(s)", designs.len());
        if designs.is_empty() {
            continue;
        }
        let rows: Vec<[String; 4]> = designs.iter().map(describe).collect();
        let header = ["key", "designed via", "score", "design time"];
        let mut widths: [usize; 4] = header.map(str::len);
        for row in &rows {
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.len());
            }
        }
        let print_row = |cells: [&str; 4]| {
            println!(
                "  {:<kw$}  {:<hw$}  {:>sw$}  {:>tw$}",
                cells[0],
                cells[1],
                cells[2],
                cells[3],
                kw = widths[0],
                hw = widths[1],
                sw = widths[2],
                tw = widths[3],
            );
        };
        print_row(header);
        for row in &rows {
            print_row([&row[0], &row[1], &row[2], &row[3]]);
        }
    }
    0
}

/// One table row per artifact: the key, how it was designed (with the solve
/// effort), its objective score, and the design time it cost to produce.
fn describe(design: &DesignedMechanism) -> [String; 4] {
    let how = match design.solver_stats() {
        Some(stats) => format!(
            "lp[{}] {}+{} pivots",
            stats.form, stats.phase1_iterations, stats.phase2_iterations
        ),
        None => match design.choice() {
            Some(choice) => format!("closed-form {choice:?}"),
            None => "closed-form".to_string(),
        },
    };
    [
        design.key().to_string(),
        how,
        format!("{:.6}", design.score()),
        format!("{:.3}s", design.design_time().as_secs_f64()),
    ]
}

fn merge(args: &[String]) -> i32 {
    let (out, files) = match take_output(args) {
        Ok(parts) => parts,
        Err(message) => {
            eprintln!("cpm-snapshot merge: {message}\n{USAGE}");
            return 1;
        }
    };
    if files.is_empty() {
        eprintln!("cpm-snapshot merge: no input snapshots given\n{USAGE}");
        return 1;
    }
    let mut snapshots = Vec::with_capacity(files.len());
    for file in &files {
        match snapshot::read_file(file) {
            Ok(designs) => snapshots.push(designs),
            Err(error) => {
                eprintln!("cpm-snapshot: {error}");
                return 2;
            }
        }
    }
    let total: usize = snapshots.iter().map(Vec::len).sum();
    let merged = snapshot::merge(snapshots);
    if let Err(error) = snapshot::write_file(&out, &merged) {
        eprintln!("cpm-snapshot: writing {out}: {error}");
        return 2;
    }
    println!(
        "merged {} design(s) from {} file(s) into {out} ({} dropped as duplicate keys)",
        merged.len(),
        files.len(),
        total - merged.len()
    );
    0
}

fn prune(args: &[String]) -> i32 {
    let (out, rest) = match take_output(args) {
        Ok(parts) => parts,
        Err(message) => {
            eprintln!("cpm-snapshot prune: {message}\n{USAGE}");
            return 1;
        }
    };
    let mut filter = KeyFilter::default();
    let mut keep = false;
    let mut files: Vec<String> = Vec::new();
    let mut rest = rest.into_iter();
    while let Some(arg) = rest.next() {
        let mut value_of = |flag: &str| rest.next().ok_or_else(|| format!("{flag} needs a value"));
        let parsed: Result<(), String> = match arg.as_str() {
            "--keep" => {
                keep = true;
                Ok(())
            }
            "--n" => value_of("--n").and_then(|v| {
                v.parse::<usize>()
                    .map(|n| filter.n.push(n))
                    .map_err(|e| format!("--n {v}: {e}"))
            }),
            "--alpha" => value_of("--alpha").and_then(|v| {
                v.parse::<f64>()
                    .map_err(|e| format!("--alpha {v}: {e}"))
                    .and_then(|a| Alpha::new(a).map_err(|e| format!("--alpha {v}: {e}")))
                    .map(|a| filter.alpha.push(a))
            }),
            "--properties" => value_of("--properties").and_then(|v| {
                v.parse::<PropertySet>()
                    .map(|set| filter.properties.push(set))
                    .map_err(|e| format!("--properties {v}: {e}"))
            }),
            "--objective" => value_of("--objective").and_then(|v| {
                ObjectiveKey::parse(&v)
                    .map(|objective| filter.objective.push(objective))
                    .ok_or_else(|| format!("--objective {v}: unknown objective"))
            }),
            _ if arg.starts_with("--") => Err(format!("unknown flag {arg}")),
            _ => {
                files.push(arg);
                Ok(())
            }
        };
        if let Err(message) = parsed {
            eprintln!("cpm-snapshot prune: {message}\n{USAGE}");
            return 1;
        }
    }
    if files.len() != 1 {
        eprintln!(
            "cpm-snapshot prune: expected exactly one input snapshot, got {}\n{USAGE}",
            files.len()
        );
        return 1;
    }
    if filter.is_empty() && !keep {
        eprintln!("cpm-snapshot prune: no filters given — refusing to drop everything or nothing ambiguously; pass at least one of --n/--alpha/--properties/--objective\n{USAGE}");
        return 1;
    }
    let designs = match snapshot::read_file(&files[0]) {
        Ok(designs) => designs,
        Err(error) => {
            eprintln!("cpm-snapshot: {error}");
            return 2;
        }
    };
    let before = designs.len();
    let kept: Vec<DesignedMechanism> = designs
        .into_iter()
        .filter(|design| filter.matches(&design.key()) == keep)
        .collect();
    if let Err(error) = snapshot::write_file(&out, &kept) {
        eprintln!("cpm-snapshot: writing {out}: {error}");
        return 2;
    }
    println!(
        "kept {} of {before} design(s) from {} into {out}",
        kept.len(),
        files[0]
    );
    0
}

/// Split `-o <out>` / `--out <out>` off an argument list.
fn take_output(args: &[String]) -> Result<(String, Vec<String>), String> {
    let mut out = None;
    let mut rest = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "-o" || arg == "--out" {
            let value = iter.next().ok_or_else(|| format!("{arg} needs a value"))?;
            if out.replace(value.clone()).is_some() {
                return Err("output file given twice".to_string());
            }
        } else {
            rest.push(arg.clone());
        }
    }
    out.map(|out| (out, rest))
        .ok_or_else(|| "missing -o <out>".to_string())
}
