//! `vmmigrate`'s argument parser, as a library so the repository's own
//! tests can hold every documented command line to it. `vmmigrate help`
//! prints the synopsis of each subcommand.

#![forbid(unsafe_code)]

pub mod args;
