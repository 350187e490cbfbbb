//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro [EXPERIMENT ...] [--scale paper|ci] [--out DIR]
//! repro all --scale paper
//! ```
//!
//! Prints each experiment's human-readable rendering and writes the
//! machine-readable JSON to `DIR/<experiment>.json` (default `results/`).

#![forbid(unsafe_code)]

use bench_suite::{experiments, ExpResult, Scale};

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let mut ids: Vec<String> = Vec::new();
    let mut scale = Scale::Paper;
    let mut out_dir = String::from("results");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_default();
                scale = Scale::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown scale '{v}' (expected paper|ci)");
                    std::process::exit(2);
                });
            }
            "--out" => {
                out_dir = args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a directory");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [EXPERIMENT ...] [--scale paper|ci] [--out DIR]\n\
                     experiments: {} | all",
                    experiments::ALL.join(" | ")
                );
                return;
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = experiments::ALL.iter().map(|s| s.to_string()).collect();
    }

    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let mut failed = false;
    for id in &ids {
        let t0 = std::time::Instant::now();
        match experiments::run(id, scale) {
            Some(ExpResult {
                id,
                title,
                human,
                json,
            }) => {
                println!("==============================================================");
                println!("{title}");
                println!("==============================================================");
                println!("{human}");
                println!("[{id} completed in {:.1?}]", t0.elapsed());
                println!();
                let path = format!("{out_dir}/{id}.json");
                std::fs::write(&path, serde_json::to_string_pretty(&json).expect("json"))
                    .expect("write results");
            }
            None => {
                eprintln!(
                    "unknown experiment '{id}'; known: {}",
                    experiments::ALL.join(", ")
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(2);
    }
}
