//! Per-layer kernels: each layer's public functions timed from outside,
//! on the running workload's own block size, content and bitmap density.
//!
//! Rates are medians over repeated passes; every pass runs inside a span
//! so the trace file shows where the traced process spent its time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use block_bitmap::{ser, AtomicBitmap, DirtyMap, FlatBitmap};
use blockstore::{BlockDirectory, FetchPlanner};
use bytes::Bytes;
use des::{SimDuration, SimRng, Simulator};
use simnet::codec::{self, compress_blocks, decompress_blocks};
use simnet::proto::MigMessage;
use simnet::tcp::loopback_pair;
use simnet::transport::{duplex, Transport};
use telemetry::{Event, Recorder, Side};
use vdisk::{hash_block, ContentIndex, MetaDisk, VirtualDisk};
use vmstate::LiveRam;
use workloads::WorkloadKind;

use crate::live::Wire;
use crate::measure::median;
use crate::spans::Tracer;
use crate::virt::fleet_scn;

const MIB: f64 = 1024.0 * 1024.0;

/// Per-byte kernels touch at most this many bytes of the image per pass,
/// so one pass stays in the tens of milliseconds on any workload.
const SAMPLE_BYTES: usize = 8 * 1024 * 1024;

/// Pacing probe rate for workloads that run unpaced: the paper's
/// pipeline ceiling.
const DEFAULT_PACE_RATE: f64 = 50.0 * MIB;

/// What the kernels need to know about the workload they run beside.
pub struct LayerInput<'a> {
    /// Image whose blocks are read, hashed, compressed and framed.
    pub image: &'a VirtualDisk,
    /// Bits in the workload's block-bitmap.
    pub bitmap_bits: usize,
    /// The workload's dirty pattern (first-pass worklist or freeze set).
    pub dirty: &'a FlatBitmap,
    /// Blocks per data frame.
    pub batch: usize,
    pub mem_pages: usize,
    pub mem_page_size: usize,
    /// The transport the workload crosses (selects the round-trip probe).
    pub wire: Wire,
    /// Pacing rate of the workload's link, if it is paced.
    pub rate: Option<f64>,
    /// Guest whose op generator is timed.
    pub guest: WorkloadKind,
    pub seed: u64,
}

/// Median seconds per call of `f`, after one warm-up call. `quick` runs
/// the minimum number of passes (smoke tests).
fn median_secs(quick: bool, mut f: impl FnMut()) -> f64 {
    let (min_passes, budget) = if quick {
        (2, Duration::ZERO)
    } else {
        (5, Duration::from_millis(40))
    };
    f();
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < min_passes || (start.elapsed() < budget && times.len() < 2000) {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

fn mibps(bytes: usize, secs: f64) -> f64 {
    if secs > 0.0 {
        bytes as f64 / MIB / secs
    } else {
        0.0
    }
}

/// Push `frames` copies of `msg_for(i)` from one end of a link to the
/// other (receiver on its own thread, as in the engine) and return the
/// elapsed seconds.
fn stream_secs<S: Transport, R: Transport + Sync>(
    tx: &S,
    rx: &R,
    frames: usize,
    msg_for: impl Fn(usize) -> MigMessage,
) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            for _ in 0..frames {
                if rx.recv().is_err() {
                    return false;
                }
            }
            true
        });
        for i in 0..frames {
            if tx.send(msg_for(i)).is_err() {
                break;
            }
        }
        receiver.join().unwrap_or(false)
    });
    start.elapsed().as_secs_f64()
}

/// Median round trip of a small control frame, microseconds.
fn rtt_us<A: Transport, B: Transport + Sync>(quick: bool, near: &A, far: &B) -> f64 {
    let trips = if quick { 10 } else { 200 };
    let mut samples = Vec::with_capacity(trips);
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || {
            for _ in 0..=trips {
                match far.recv() {
                    Ok(msg) => {
                        if far.send(msg).is_err() {
                            return;
                        }
                    }
                    Err(_) => return,
                }
            }
        });
        for i in 0..=trips {
            let t = Instant::now();
            let ok = near
                .send(MigMessage::PullRequest { block: i as u64 })
                .is_ok()
                && near.recv().is_ok();
            if !ok {
                break;
            }
            // The first trip warms the path (thread wake-up, socket state).
            if i > 0 {
                samples.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        let _joined = echo.join();
    });
    median(&samples)
}

/// Run every workload-independent kernel and return `metric -> value`.
pub fn run(
    input: &LayerInput<'_>,
    quick: bool,
    tracer: &mut Tracer,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    tracer.next_run();
    tracer.span("layers", |t| {
        t.span("layers.block_bitmap", |_| {
            block_bitmap(input, quick, &mut out)
        });
        t.span("layers.vdisk", |_| vdisk(input, quick, &mut out));
        t.span("layers.simnet", |_| simnet(input, quick, &mut out));
        t.span("layers.vmstate", |_| vmstate(input, quick, &mut out));
        t.span("layers.workloads", |_| workloads(input, quick, &mut out));
        t.span("layers.des", |_| des(quick, &mut out));
        t.span("layers.scenario", |_| {
            scenario_parse(input, quick, &mut out)
        });
        t.span("layers.blockstore", |_| blockstore(input, quick, &mut out));
        t.span("layers.telemetry", |_| telemetry(quick, &mut out));
    });
    out
}

fn block_bitmap(input: &LayerInput<'_>, quick: bool, out: &mut BTreeMap<&'static str, f64>) {
    let dirty = input.dirty;
    let set_bits = dirty.count_ones().max(1);
    let scan = median_secs(quick, || {
        let mut n = 0usize;
        let mut from = 0usize;
        while let Some(i) = dirty.next_set_from(from) {
            n += 1;
            from = i + 1;
        }
        black_box(n);
    });
    out.insert(
        "block_bitmap.scan_ns_per_set_bit",
        scan * 1e9 / set_bits as f64,
    );

    // The tracker's bitmap is reloaded outside the timed region each pass.
    let tracker = AtomicBitmap::new(input.bitmap_bits);
    let mut snaps = Vec::new();
    for _ in 0..if quick { 2 } else { 30 } {
        tracker.load_from(dirty);
        let t = Instant::now();
        black_box(tracker.snapshot_and_clear());
        snaps.push(t.elapsed().as_secs_f64());
    }
    out.insert("block_bitmap.snapshot_and_clear_us", median(&snaps) * 1e6);

    let encoded = ser::encode(dirty);
    out.insert(
        "block_bitmap.encode_us",
        median_secs(quick, || {
            black_box(ser::encode(dirty));
        }) * 1e6,
    );
    out.insert(
        "block_bitmap.decode_us",
        median_secs(quick, || {
            black_box(ser::decode(&encoded).is_ok());
        }) * 1e6,
    );
    out.insert("block_bitmap.encoded_bytes", encoded.len() as f64);
}

/// The leading blocks of the image, at most [`SAMPLE_BYTES`] of them.
fn leading_blocks(image: &VirtualDisk) -> Vec<Vec<u8>> {
    let n = (SAMPLE_BYTES / image.block_size()).clamp(1, image.num_blocks());
    (0..n).map(|b| image.read_block(b)).collect()
}

fn vdisk(input: &LayerInput<'_>, quick: bool, out: &mut BTreeMap<&'static str, f64>) {
    let image = input.image;
    let blocks = leading_blocks(image);
    let bytes = blocks.len() * image.block_size();

    let read = median_secs(quick, || {
        for b in 0..blocks.len() {
            black_box(image.read_block(b));
        }
    });
    out.insert("vdisk.read_mibps", mibps(bytes, read));

    let scratch = VirtualDisk::dense(image.block_size(), blocks.len());
    let write = median_secs(quick, || {
        for (b, data) in blocks.iter().enumerate() {
            scratch.write_block(b, data);
        }
    });
    out.insert("vdisk.write_mibps", mibps(bytes, write));

    let hash = median_secs(quick, || {
        let mut acc = 0u64;
        for data in &blocks {
            acc ^= hash_block(data);
        }
        black_box(acc);
    });
    out.insert("vdisk.hash_mibps", mibps(bytes, hash));

    // Index kernels run at the workload's full block count: the handshake
    // indexes the whole destination disk whatever the dirty set is.
    let fps: Vec<u64> = (0..image.num_blocks())
        .map(|b| image.fingerprint(b))
        .collect();
    let build = median_secs(quick, || {
        black_box(ContentIndex::from_fps(fps.clone()).distinct());
    });
    out.insert("vdisk.index_build_ms", build * 1e3);

    let index = ContentIndex::from_fps(fps.clone());
    let lookup = median_secs(quick, || {
        let mut hits = 0usize;
        for &fp in &fps {
            // Half the probes miss, as on a partly diverged image.
            hits += usize::from(index.contains(fp)) + usize::from(index.contains(!fp));
        }
        black_box(hits);
    });
    out.insert(
        "vdisk.index_lookup_ns",
        lookup * 1e9 / (2 * fps.len()) as f64,
    );

    let mut index = index;
    let mut flip = 0u64;
    let record = median_secs(quick, || {
        flip = flip.wrapping_add(0x9E37_79B9_7F4A_7C15);
        for (b, &fp) in fps.iter().enumerate() {
            index.record(b, fp ^ flip);
        }
    });
    out.insert("vdisk.index_record_ns", record * 1e9 / fps.len() as f64);
}

fn simnet(input: &LayerInput<'_>, quick: bool, out: &mut BTreeMap<&'static str, f64>) {
    let bs = input.image.block_size();
    let blocks = leading_blocks(input.image);
    let batch = input.batch.clamp(1, blocks.len());
    let batches: Vec<Vec<u8>> = blocks.chunks(batch).map(|c| c.concat()).collect();
    let bytes: usize = batches.iter().map(Vec::len).sum();

    let compressed: Vec<Vec<u8>> = batches.iter().map(|p| compress_blocks(p, bs)).collect();
    let compressed_bytes: usize = compressed.iter().map(Vec::len).sum();
    let compress = median_secs(quick, || {
        for p in &batches {
            black_box(compress_blocks(p, bs).len());
        }
    });
    out.insert("simnet.lz_compress_mibps", mibps(bytes, compress));
    let decompress = median_secs(quick, || {
        for (p, raw) in compressed.iter().zip(&batches) {
            black_box(decompress_blocks(p, raw.len() / bs, bs).is_ok());
        }
    });
    out.insert("simnet.lz_decompress_mibps", mibps(bytes, decompress));
    out.insert(
        "simnet.lz_ratio",
        bytes as f64 / compressed_bytes.max(1) as f64,
    );

    let frame = |i: usize| {
        let payload = Bytes::from(batches[i % batches.len()].clone());
        MigMessage::DiskBlocks {
            blocks: (0..(payload.len() / bs) as u64).collect(),
            payload_len: payload.len() as u64,
            payload: Some(payload),
        }
    };
    let messages: Vec<MigMessage> = (0..batches.len()).map(frame).collect();
    let encode = median_secs(quick, || {
        for m in &messages {
            black_box(codec::encode_framed(m).len());
        }
    });
    out.insert("simnet.frame_encode_mibps", mibps(bytes, encode));
    let framed: Vec<Vec<u8>> = messages.iter().map(codec::encode_framed).collect();
    let decode = median_secs(quick, || {
        for f in &framed {
            black_box(codec::decode(&f[4..]).is_ok());
        }
    });
    out.insert("simnet.frame_decode_mibps", mibps(bytes, decode));

    let frames = batches.len();
    let (a, b) = duplex();
    let secs = median_secs(quick, || {
        black_box(stream_secs(&a, &b, frames, frame));
    });
    out.insert("simnet.duplex_mibps", mibps(bytes, secs));
    let mut rtt = match input.wire {
        Wire::Duplex => rtt_us(quick, &a, &b),
        Wire::Tcp => 0.0,
    };

    // A sandbox without a loopback interface reports the TCP figures as 0
    // rather than failing a run whose engine never touches a socket.
    let tcp_mibps = match loopback_pair() {
        Ok((a, b)) => {
            let secs = median_secs(quick, || {
                black_box(stream_secs(&a, &b, frames, frame));
            });
            if input.wire == Wire::Tcp {
                rtt = rtt_us(quick, &a, &b);
            }
            mibps(bytes, secs)
        }
        Err(_) => 0.0,
    };
    out.insert("simnet.tcp_mibps", tcp_mibps);
    out.insert("simnet.frame_rtt_us", rtt);

    out.insert("simnet.pace_error_pct", pace_error_pct(input, frame));
}

/// How far a paced link overshoots its schedule on this workload's frame
/// mix: data frames until the limiter's burst is spent, one more data
/// frame, then a thousand 16-byte block references (each a separate paced
/// send).
fn pace_error_pct(input: &LayerInput<'_>, frame: impl Fn(usize) -> MigMessage) -> f64 {
    let rate = input.rate.unwrap_or(DEFAULT_PACE_RATE);
    // The limiter starts with a tenth of a second of burst in hand.
    let burst = (rate * 0.1) as u64;
    let (mut tx, rx) = duplex();
    tx.set_rate_limit(rate);
    let mut wire_bytes = 0u64;
    let mut refs_left = 1000u64;
    let start = Instant::now();
    let mut i = 0;
    while refs_left > 0 {
        let msg = if wire_bytes <= burst {
            frame(i)
        } else {
            refs_left -= 1;
            MigMessage::BlockRef {
                block: refs_left,
                fingerprint: refs_left,
            }
        };
        i += 1;
        wire_bytes += msg.wire_size();
        if tx.send(msg).is_err() {
            return 0.0;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    drop(rx);
    let scheduled = wire_bytes.saturating_sub(burst) as f64 / rate;
    if scheduled > 0.0 {
        (elapsed - scheduled) / scheduled * 100.0
    } else {
        0.0
    }
}

fn vmstate(input: &LayerInput<'_>, quick: bool, out: &mut BTreeMap<&'static str, f64>) {
    let ram = LiveRam::new(input.mem_page_size, input.mem_pages);
    let pages: Vec<usize> = (0..input.mem_pages).collect();
    let bytes = input.mem_pages * input.mem_page_size;
    let payload = ram.read_pages(&pages);
    let read = median_secs(quick, || {
        black_box(ram.read_pages(&pages).len());
    });
    out.insert("vmstate.read_pages_mibps", mibps(bytes, read));
    let apply = median_secs(quick, || ram.apply_pages(&pages, &payload));
    out.insert("vmstate.apply_pages_mibps", mibps(bytes, apply));
}

fn workloads(input: &LayerInput<'_>, quick: bool, out: &mut BTreeMap<&'static str, f64>) {
    let mut guest = input.guest.build(input.bitmap_bits as u64);
    let mut rng = SimRng::new(input.seed);
    let demand = guest.disk_demand();
    let slices = if quick { 20 } else { 400 };
    let start = Instant::now();
    let mut ops = 0usize;
    for _ in 0..slices {
        ops += guest
            .ops_for(SimDuration::from_millis(50), demand, &mut rng)
            .len();
    }
    let secs = start.elapsed().as_secs_f64();
    out.insert(
        "workloads.ops_per_s",
        if secs > 0.0 { ops as f64 / secs } else { 0.0 },
    );
}

fn des(quick: bool, out: &mut BTreeMap<&'static str, f64>) {
    let events: u64 = if quick { 1_000 } else { 100_000 };
    let secs = median_secs(quick, || {
        let mut sim: Simulator<u64> = Simulator::new();
        for i in 0..events {
            // Out-of-order deadlines keep the calendar's heap honest.
            let at = SimDuration::from_nanos((i * 7919) % events + 1);
            sim.schedule_in(at, |_, fired| *fired += 1);
        }
        let mut fired = 0u64;
        sim.run_to_completion(&mut fired);
        black_box(fired);
    });
    out.insert(
        "des.events_per_s",
        if secs > 0.0 {
            events as f64 / secs
        } else {
            0.0
        },
    );
}

fn scenario_parse(input: &LayerInput<'_>, quick: bool, out: &mut BTreeMap<&'static str, f64>) {
    let text = fleet_scn(input.seed);
    let secs = median_secs(quick, || {
        black_box(scenario::parse(&text).is_ok());
    });
    out.insert("scenario.parse_us", secs * 1e6);
}

fn blockstore(input: &LayerInput<'_>, quick: bool, out: &mut BTreeMap<&'static str, f64>) {
    // The fan-in situation at the workload's geometry: four peers hold
    // the image as it was before the dirty blocks were rewritten.
    let n = input.bitmap_bits;
    let golden = MetaDisk::new(n);
    let mut live = golden.clone();
    for b in input.dirty.iter_set() {
        live.write(b);
    }
    let mut dir = BlockDirectory::new();
    let budgets: BTreeMap<u64, f64> = (1..=4u64).map(|h| (h, DEFAULT_PACE_RATE)).collect();
    for &host in budgets.keys() {
        dir.publish(0, host, &golden);
    }
    let owed = FlatBitmap::all_set(n);
    let secs = median_secs(quick, || {
        let plan = FetchPlanner::plan(
            &dir,
            0,
            &live,
            &owed,
            None,
            &budgets,
            2.0 * DEFAULT_PACE_RATE,
        );
        black_box(plan.owed_total());
    });
    out.insert("blockstore.plan_us", secs * 1e6);
}

fn telemetry(quick: bool, out: &mut BTreeMap<&'static str, f64>) {
    let calls = if quick { 1_000 } else { 200_000 };
    let event = || Event::Suspended { side: Side::Source };
    let off = Recorder::off();
    let secs_off = median_secs(quick, || {
        for _ in 0..calls {
            off.record(event);
        }
    });
    out.insert("telemetry.record_ns_off", secs_off * 1e9 / calls as f64);
    // A fresh journal per pass: a full one counts drops instead of storing.
    let mut times = Vec::new();
    for _ in 0..if quick { 2 } else { 5 } {
        let on = Recorder::enabled();
        let t = Instant::now();
        for _ in 0..calls {
            on.record(event);
        }
        times.push(t.elapsed().as_secs_f64());
        black_box(on.len());
    }
    out.insert(
        "telemetry.record_ns_on",
        median(&times) * 1e9 / calls as f64,
    );
}
