//! CLI for the workspace invariant checker.
//!
//! ```text
//! eg-analyze check [--root DIR] [--write-inventory]   # the CI gate
//! eg-analyze inventory [--root DIR]                   # print unsafe sites
//! ```
//!
//! `check` exits 1 when any finding survives the allowlist.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: eg-analyze <check|inventory> [--root DIR] [--write-inventory]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        return usage();
    };
    let mut root = PathBuf::from(".");
    let mut write_inventory = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let Some(dir) = args.next() else {
                    return usage();
                };
                root = PathBuf::from(dir);
            }
            "--write-inventory" => write_inventory = true,
            _ => return usage(),
        }
    }

    match cmd.as_str() {
        "check" => match eg_analyze::run_check(&root, write_inventory) {
            Ok(findings) => {
                print!("{}", eg_analyze::render_report(&findings));
                if findings.is_empty() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("eg-analyze: error: {e}");
                ExitCode::from(2)
            }
        },
        "inventory" => match eg_analyze::unsafe_inventory(&root) {
            Ok(inventory) => {
                print!("{inventory}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("eg-analyze: error: {e}");
                ExitCode::from(2)
            }
        },
        _ => usage(),
    }
}
