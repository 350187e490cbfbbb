//! `vmmigrate` — command-line driver for block-bitmap whole-system VM
//! migration. `vmmigrate help` prints every subcommand's synopsis.

#![forbid(unsafe_code)]

mod cmd;

use vmmigrate::args;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(cmd) => {
            if let Err(e) = cmd::run(cmd) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        Err(msg) => {
            eprintln!("{msg}\n");
            eprintln!("{}", args::usage());
            std::process::exit(2);
        }
    }
}
