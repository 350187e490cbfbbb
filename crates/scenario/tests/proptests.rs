//! Totality of the `.scn` parser: whatever text it is handed — bytes
//! nobody wrote, words of the language in any order, or a checked-in
//! scenario with bytes overwritten — `scenario::parse` returns a spec or
//! a typed error, and never panics.

use proptest::prelude::*;

/// The checked-in scenarios, the mutation tests' seeds.
const SCENARIOS: [&str; 3] = [
    include_str!("../../../scenarios/partition.scn"),
    include_str!("../../../scenarios/wan.scn"),
    include_str!("../../../scenarios/maintenance.scn"),
];

/// Words of the language, and numbers at the edges of what they mean.
const WORDS: [&str; 40] = [
    "fleet",
    "island",
    "host",
    "link",
    "cycle",
    "at",
    "migrate",
    "wave",
    "partition",
    "heal",
    "host-down",
    "host-up",
    "link-degrade",
    "link-restore",
    "maintenance",
    "|",
    "->",
    "#",
    "hosts=",
    "vms=",
    "blocks=",
    "seed=",
    "policy=",
    "dwell=",
    "bandwidth=",
    "drop=",
    "latency=",
    "keep=",
    "dest=",
    "at=",
    "h0",
    "h1",
    "vm0",
    "CORE",
    "0",
    "1s",
    "18446744073709551615",
    "4294967296",
    "8192",
    "1/0",
];

/// Counts at the edges of what a fleet line can ask for.
const COUNTS: [&str; 7] = [
    "0",
    "1",
    "2",
    "8192",
    "65536",
    "4294967296",
    "18446744073709551615",
];

/// VM counts: [`COUNTS`] but 2^32, a fleet whose block state fits an
/// address space (so it parses) while the one request per VM a `wave`
/// line lists is more memory than a test should take.
const VM_COUNTS: [&str; 6] = ["0", "1", "2", "8192", "65536", "18446744073709551615"];

/// Well-formed lines that reach a fleet's hosts and VMs by number.
const REACHING: [&str; 5] = [
    "at 1s partition h0 | h1",
    "at 1s partition h0 h1 | h1",
    "at 2s host-down h1",
    "migrate vm1 at=1s dest=h1",
    "wave at=3s",
];

/// Directives, each line's first word.
const HEADS: [&str; 8] = [
    "fleet",
    "island",
    "host",
    "link",
    "cycle",
    "at 1s",
    "migrate vm0",
    "wave",
];

/// Lines of a directive and words from [`WORDS`], a word sometimes glued
/// to the next, so `hosts=` meets a number and `h` meets digits.
fn word_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(
        (
            0..HEADS.len(),
            prop::collection::vec((0..WORDS.len(), any::<bool>()), 0..8),
        ),
        0..6,
    )
    .prop_map(|lines| {
        let mut text = String::new();
        for (head, words) in lines {
            text.push_str(HEADS[head]);
            text.push(' ');
            for (word, glue) in words {
                text.push_str(WORDS[word]);
                if !glue {
                    text.push(' ');
                }
            }
            text.push('\n');
        }
        text
    })
}

/// `parse` on `text`: a spec or a typed error. An error names a line of
/// the text, or none (`0`) for what no one line says.
fn check_total(text: &str) -> Result<(), TestCaseError> {
    if let Err(e) = scenario::parse(text) {
        prop_assert!(
            e.line <= text.lines().count(),
            "line {} of {text:?}",
            e.line
        );
        prop_assert!(!e.msg.is_empty());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, read as text.
    #[test]
    fn the_parser_is_total_on_arbitrary_text(
        bytes in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        check_total(&String::from_utf8_lossy(&bytes))?;
    }

    /// The language's own words in any order, after a fleet line or not.
    #[test]
    fn the_parser_is_total_on_word_soup(
        fleet in prop::option::of((0..WORDS.len(), 0..WORDS.len())),
        soup in word_soup(),
    ) {
        let mut text = String::new();
        if let Some((hosts, vms)) = fleet {
            text = format!("fleet hosts={} vms={}\n", WORDS[hosts], WORDS[vms]);
        }
        text.push_str(&soup);
        check_total(&text)?;
    }

    /// Any fleet geometry the counts can spell, then well-formed lines
    /// that reach into it: refused at the fleet line if no orchestrator
    /// could build it, checked against it otherwise.
    #[test]
    fn the_parser_is_total_on_any_fleet_geometry(
        hosts in 0..COUNTS.len(),
        vms in 0..VM_COUNTS.len(),
        blocks in prop::option::of(0..COUNTS.len()),
        lines in prop::collection::vec(0..REACHING.len(), 0..4),
    ) {
        let mut text = format!("fleet hosts={} vms={}", COUNTS[hosts], VM_COUNTS[vms]);
        if let Some(blocks) = blocks {
            text.push_str(&format!(" blocks={}", COUNTS[blocks]));
        }
        text.push('\n');
        for line in lines {
            text.push_str(REACHING[line]);
            text.push('\n');
        }
        check_total(&text)?;
    }

    /// A checked-in scenario with bytes overwritten (digits half the
    /// time, so counts and host names change) and the end cut off.
    #[test]
    fn the_parser_is_total_on_damaged_scenarios(
        which in 0..SCENARIOS.len(),
        damage in prop::collection::vec((any::<usize>(), any::<u8>(), any::<bool>()), 1..6),
        keep in any::<usize>(),
    ) {
        let mut bytes = SCENARIOS[which].as_bytes().to_vec();
        for (at, byte, digit) in damage {
            let at = at % bytes.len();
            bytes[at] = if digit { b'0' + byte % 10 } else { byte };
        }
        bytes.truncate(keep % (bytes.len() + 1));
        check_total(&String::from_utf8_lossy(&bytes))?;
    }
}

#[test]
fn the_checked_in_scenarios_parse() {
    for text in SCENARIOS {
        assert!(scenario::parse(text).is_ok());
    }
}
