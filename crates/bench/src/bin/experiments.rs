//! Experiment harness CLI.
//!
//! ```text
//! experiments --list               enumerate experiments
//! experiments                      run all (quick mode)
//! experiments --full thm2-lb ...   run selected experiments at full size
//! experiments --out results/       also write CSVs (default: results/)
//! experiments --emit-json [dir]    write BENCH_pd.json / BENCH_sweep.json /
//!                                  BENCH_serve.json / BENCH_opt.json
//! experiments --check-json [dir]   re-run the smoke profile and fail on
//!                                  missing keys, a >1.5x perf regression
//!                                  on any >=1ms cell, the small PD cell's
//!                                  speedup below its floor, or a block
//!                                  skip rate below its floor, vs the
//!                                  committed baselines.
//!                                  The fresh output is always written to
//!                                  <dir>/bench-fresh/ so CI can upload it
//!                                  as an artifact — regenerating baselines
//!                                  from the failing machine is then a copy,
//!                                  not a guess
//! ```

use omfl_bench::{perfjson, registry};
use std::path::{Path, PathBuf};

/// Runs the bench smoke profile and either writes (`emit`) or verifies
/// (`check`) the `BENCH_*.json` artifacts in `dir`.
fn run_json_mode(dir: &Path, emit: bool) {
    let (pd_doc, sweep_doc, serve_doc, opt_doc) = match perfjson::smoke_profile_json() {
        Ok(docs) => docs,
        Err(e) => {
            eprintln!("bench smoke profile failed: {e}");
            std::process::exit(1);
        }
    };
    let pd_path = dir.join("BENCH_pd.json");
    let sweep_path = dir.join("BENCH_sweep.json");
    let serve_path = dir.join("BENCH_serve.json");
    let opt_path = dir.join("BENCH_opt.json");
    if emit {
        std::fs::create_dir_all(dir).expect("bench output dir");
        std::fs::write(&pd_path, &pd_doc).expect("write BENCH_pd.json");
        std::fs::write(&sweep_path, &sweep_doc).expect("write BENCH_sweep.json");
        std::fs::write(&serve_path, &serve_doc).expect("write BENCH_serve.json");
        std::fs::write(&opt_path, &opt_doc).expect("write BENCH_opt.json");
        println!("wrote {}", pd_path.display());
        println!("wrote {}", sweep_path.display());
        println!("wrote {}", serve_path.display());
        println!("wrote {}", opt_path.display());
        print!("{pd_doc}");
        print!("{serve_doc}");
        print!("{opt_doc}");
        return;
    }
    // The fresh run is persisted unconditionally: on failure CI uploads it
    // as a workflow artifact, and the messages below can point at a file
    // that actually exists instead of numbers scrolled out of a log.
    let fresh_dir = dir.join("bench-fresh");
    std::fs::create_dir_all(&fresh_dir).expect("bench-fresh dir");
    std::fs::write(fresh_dir.join("BENCH_pd.json"), &pd_doc).expect("write fresh BENCH_pd.json");
    std::fs::write(fresh_dir.join("BENCH_sweep.json"), &sweep_doc)
        .expect("write fresh BENCH_sweep.json");
    std::fs::write(fresh_dir.join("BENCH_serve.json"), &serve_doc)
        .expect("write fresh BENCH_serve.json");
    std::fs::write(fresh_dir.join("BENCH_opt.json"), &opt_doc).expect("write fresh BENCH_opt.json");

    let mut failed = false;
    for (path, fresh, label) in [
        (&pd_path, &pd_doc, "BENCH_pd.json"),
        (&sweep_path, &sweep_doc, "BENCH_sweep.json"),
        (&serve_path, &serve_doc, "BENCH_serve.json"),
        (&opt_path, &opt_doc, "BENCH_opt.json"),
    ] {
        let committed = match std::fs::read_to_string(path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!(
                    "FAIL {label}: committed baseline unreadable at {}: {e}",
                    path.display()
                );
                failed = true;
                continue;
            }
        };
        match perfjson::check(fresh, &committed, label) {
            Ok(notes) => {
                for n in notes {
                    println!("ok   {n}");
                }
            }
            Err(errors) => {
                for e in errors {
                    eprintln!("FAIL {e}");
                }
                eprintln!(
                    "     this run's fresh {label} is at {}",
                    fresh_dir.join(label).display()
                );
                failed = true;
            }
        }
    }
    if failed {
        eprintln!(
            "\nIf the failing cells are wall-clock on a uniformly slower machine (the \
             machine-independent skip-rate and digest gates still pass), regenerate the \
             committed baselines from this machine instead of loosening the factor:"
        );
        eprintln!("    cargo run --release -p omfl-bench --bin experiments -- --emit-json .");
        eprintln!(
            "In CI, download the 'bench-fresh-json' artifact of this run and commit its \
             files as the new BENCH_pd.json / BENCH_sweep.json / BENCH_serve.json / \
             BENCH_opt.json."
        );
        std::process::exit(1);
    }
    println!("bench JSON check passed");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let list = args.iter().any(|a| a == "--list");
    let full = args.iter().any(|a| a == "--full");
    for (flag, emit) in [("--emit-json", true), ("--check-json", false)] {
        if let Some(i) = args.iter().position(|a| a == flag) {
            let dir = args
                .get(i + 1)
                .filter(|d| !d.starts_with("--"))
                .map_or_else(|| PathBuf::from("."), PathBuf::from);
            run_json_mode(&dir, emit);
            return;
        }
    }
    let mut out_dir = PathBuf::from("results");
    if let Some(i) = args.iter().position(|a| a == "--out") {
        if let Some(d) = args.get(i + 1) {
            out_dir = PathBuf::from(d);
        }
    }
    let selected: Vec<&String> = args
        .iter()
        .filter(|a| {
            !a.starts_with("--")
                && Some(a.as_str())
                    != args
                        .iter()
                        .position(|x| x == "--out")
                        .and_then(|i| args.get(i + 1))
                        .map(|s| s.as_str())
        })
        .collect();

    let reg = registry();
    if list {
        println!("available experiments:");
        for e in &reg {
            println!("  {:14} {}", e.id, e.title);
        }
        return;
    }

    let quick = !full;
    let mut ran = 0;
    for e in &reg {
        if !selected.is_empty() && !selected.iter().any(|s| s.as_str() == e.id) {
            continue;
        }
        println!(
            "=== {} — {} ({}) ===",
            e.id,
            e.title,
            if quick { "quick" } else { "full" }
        );
        let t0 = std::time::Instant::now();
        let tables = (e.run)(quick);
        for t in &tables {
            print!("{}", t.render());
            match t.save_csv(&out_dir) {
                Ok(p) => println!("  csv: {}", p.display()),
                Err(err) => eprintln!("  csv write failed: {err}"),
            }
            println!();
        }
        println!("  ({} in {:.1}s)\n", e.id, t0.elapsed().as_secs_f64());
        ran += 1;
    }
    if ran == 0 {
        eprintln!("no experiment matched; use --list to see ids");
        std::process::exit(2);
    }
}
