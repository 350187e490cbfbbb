//! Property tests for byte-real guest RAM: a computed stamp-0 image
//! against one laid out page by page.

use proptest::prelude::*;
use vdisk::stamp_bytes;
use vmstate::LiveRam;

const PAGES: usize = 32;
const PS: usize = 256;

/// A page write: zeroes (stamp 0, which must then read as zeroes, not as
/// the initial content), the stamp-0 content written back explicitly
/// (stamp 1), or a later generation.
fn page_bytes(p: usize, stamp: u64) -> Vec<u8> {
    match stamp {
        0 => vec![0u8; PS],
        1 => stamp_bytes(p, 0, PS),
        s => stamp_bytes(p, s, PS),
    }
}

/// A guest write (`write_page`) or a received batch (`apply_pages`,
/// repeats included).
#[derive(Debug, Clone)]
enum RamWrite {
    Guest(usize, u64),
    Applied(Vec<(usize, u64)>),
}

fn ram_write() -> impl Strategy<Value = RamWrite> {
    prop_oneof![
        (0usize..PAGES, 0u64..5).prop_map(|(p, s)| RamWrite::Guest(p, s)),
        prop::collection::vec((0usize..PAGES, 0u64..5), 0..6).prop_map(RamWrite::Applied),
    ]
}

fn apply(ram: &LiveRam, w: &RamWrite) {
    match w {
        RamWrite::Guest(p, s) => ram.write_page(*p, &page_bytes(*p, *s)),
        RamWrite::Applied(ws) => {
            let pages: Vec<usize> = ws.iter().map(|&(p, _)| p).collect();
            let payload: Vec<u8> = ws.iter().flat_map(|&(p, s)| page_bytes(p, s)).collect();
            ram.apply_pages(&pages, &payload);
        }
    }
}

/// The stamp-0 image written page by page into zeroed RAM.
fn laid_out() -> LiveRam {
    let ram = LiveRam::new(PS, PAGES);
    for p in 0..PAGES {
        ram.write_page(p, &stamp_bytes(p, 0, PS));
    }
    ram
}

/// The pages where `a` and `b` differ, read page by page.
fn diff_pages(a: &LiveRam, b: &LiveRam) -> Vec<usize> {
    (0..PAGES)
        .filter(|&p| a.read_page(p) != b.read_page(p))
        .collect()
}

/// Every observation of `a` is that of `b`, diffs and equality taken
/// against each of `probes` in both directions; equality is no diff.
fn observed_alike(
    a: &LiveRam,
    b: &LiveRam,
    reads: &[usize],
    probes: &[&LiveRam],
) -> Result<(), TestCaseError> {
    let (mut into_a, mut into_b) = (vec![0xAAu8; PS], vec![0x55u8; PS]);
    for p in 0..PAGES {
        prop_assert_eq!(a.read_page(p), b.read_page(p), "page {}", p);
        a.read_page_into(p, &mut into_a);
        b.read_page_into(p, &mut into_b);
        prop_assert_eq!(&into_a, &into_b, "page {}", p);
        prop_assert_eq!(&into_a, &a.read_page(p), "page {}", p);
    }
    prop_assert_eq!(a.read_pages(reads), b.read_pages(reads));
    prop_assert!(diff_pages(a, b).is_empty() && b.content_equals(a) && a.content_equals(b));
    for probe in probes {
        let diff = diff_pages(a, probe);
        prop_assert_eq!(&diff, &diff_pages(b, probe));
        prop_assert_eq!(diff_pages(probe, a), diff_pages(probe, b));
        prop_assert_eq!(a.content_equals(probe), diff.is_empty());
        prop_assert_eq!(probe.content_equals(a), diff.is_empty());
        prop_assert_eq!(a.content_equals(probe), b.content_equals(probe));
    }
    Ok(())
}

proptest! {
    /// RAM whose unwritten pages are computed is observationally the
    /// zeroed RAM the stamp-0 image was written into, under any
    /// interleaving of guest writes and applied batches. Zeroes written
    /// read as zeroes, and the image written back reads as itself.
    #[test]
    fn a_computed_stamp_zero_ram_is_the_laid_out_one(
        writes in prop::collection::vec(ram_write(), 0..24),
        reads in prop::collection::vec(0usize..PAGES, 0..40),
    ) {
        let blank = LiveRam::new(PS, PAGES);
        let image = laid_out();
        let probes = [&blank, &image];
        let computed = LiveRam::stamp_zero(PS, PAGES);
        let eager = laid_out();
        observed_alike(&computed, &eager, &reads, &probes)?;
        let all: Vec<usize> = (0..PAGES).collect();
        for w in &writes {
            apply(&computed, w);
            apply(&eager, w);
            prop_assert_eq!(computed.read_pages(&all), eager.read_pages(&all));
        }
        observed_alike(&computed, &eager, &reads, &probes)?;
    }
}
