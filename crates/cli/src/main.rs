//! `vmmigrate` — command-line driver for block-bitmap whole-system VM
//! migration. `vmmigrate help` prints every subcommand's synopsis.

#![forbid(unsafe_code)]

mod cmd;

use vmmigrate::args;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(cmd) => match cmd::run(cmd) {
            Ok(()) => {}
            // The reader hung up (`| head -1`): it has all it wanted.
            Err(cmd::Error::Stdout(e)) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        },
        Err(msg) => {
            eprintln!("{msg}\n");
            eprintln!("{}", args::usage());
            std::process::exit(2);
        }
    }
}
