//! The documented command lines are the parser's: every `vmmigrate`
//! command in `README.md`, and every literal one in `scripts/ci.sh`,
//! must parse.

use vmmigrate::args;

/// The argument vectors of the `vmmigrate` commands in `text`: lines
/// joined across `\` continuations, `#` comments dropped, the words after
/// `cargo run … -p vmmigrate --` or a `…/vmmigrate` binary, quotes
/// trimmed. A line that builds its arguments from shell variables is not
/// literal and is skipped.
fn command_lines(text: &str) -> Vec<Vec<String>> {
    let joined = text.replace("\\\n", " ");
    let mut commands = Vec::new();
    for line in joined.lines() {
        let line = line.split('#').next().unwrap_or_default();
        let words: Vec<&str> = line
            .split_whitespace()
            .map(|w| w.trim_matches('"'))
            .collect();
        let cargo = words.windows(2).position(|w| w == ["vmmigrate", "--"]);
        let binary = words.iter().position(|w| w.ends_with("/vmmigrate"));
        let Some(args) = cargo.map(|i| i + 2).or(binary.map(|i| i + 1)) else {
            continue;
        };
        if words.iter().any(|w| w.contains('$')) {
            continue;
        }
        commands.push(words[args..].iter().map(|w| w.to_string()).collect());
    }
    commands
}

fn assert_all_parse(file: &str, at_least: usize) {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let commands = command_lines(&text);
    assert!(
        commands.len() >= at_least,
        "{file}: {} commands",
        commands.len()
    );
    for argv in commands {
        if let Err(e) = args::parse(&argv) {
            panic!("{file}: `vmmigrate {}` does not parse: {e}", argv.join(" "));
        }
    }
}

#[test]
fn every_readme_command_line_parses() {
    assert_all_parse("README.md", 18);
}

#[test]
fn every_literal_ci_command_line_parses() {
    assert_all_parse("scripts/ci.sh", 1);
}

#[test]
fn the_extractor_joins_continuations_and_skips_comments_and_variables() {
    let text =
        "cargo run -p vmmigrate -- live --faults 2 \\\n    --trace-out j.jsonl  # two resets\n\
                live=\"./target/release/vmmigrate live --blocks 16384\"\n\
                ./target/release/vmmigrate orchestrate --seed \"$seed\"\n\
                # cargo run -p vmmigrate -- not a command\n";
    let want: Vec<Vec<String>> = [
        &["live", "--faults", "2", "--trace-out", "j.jsonl"][..],
        &["live", "--blocks", "16384"][..],
    ]
    .iter()
    .map(|ws| ws.iter().map(|w| w.to_string()).collect())
    .collect();
    assert_eq!(command_lines(text), want);
}
