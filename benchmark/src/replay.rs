//! Single-threaded stage replay: the workload's image pushed through the
//! public building blocks in the live engine's per-chunk order, with a
//! span around every stage of every chunk.
//!
//! Order per chunk, as in `migrate::live`'s source and destination loops:
//! read → hash → dedup lookup → (second read of the blocks that go in
//! full) → LZ → frame encode → transport → frame decode → LZ decode →
//! verify hash → apply; references resolve on the destination through
//! the content index instead. The dedup handshake (the destination hashes
//! and indexes its whole disk, the summary crosses the wire) runs first.
//! RAM pages, the freeze hand-off and thread hand-offs are not replayed;
//! they show up as the unattributed share.

use std::collections::HashSet;

use block_bitmap::DirtyMap;
use bytes::Bytes;
use simnet::codec::{self, compress_blocks, decompress_blocks};
use simnet::proto::MigMessage;
use simnet::tcp::loopback_pair;
use simnet::transport::{duplex, Transport};
use vdisk::{hash_block, ContentIndex, VirtualDisk};

use crate::live::{LiveCase, Wire};
use crate::spans::Tracer;

/// The stages in pipeline order: span name and the metric its self time
/// is reported under.
pub const STAGES: [(&str, &str); 10] = [
    ("stage.read", "stage.read_ms"),
    ("stage.hash", "stage.hash_ms"),
    ("stage.index", "stage.index_ms"),
    ("stage.compress", "stage.compress_ms"),
    ("stage.encode", "stage.encode_ms"),
    ("stage.transport", "stage.transport_ms"),
    ("stage.decode", "stage.decode_ms"),
    ("stage.decompress", "stage.decompress_ms"),
    ("stage.verify", "stage.verify_ms"),
    ("stage.apply", "stage.apply_ms"),
];

/// Self time per stage in milliseconds, keyed by metric name, in
/// [`STAGES`] order.
pub struct StageTimes(pub Vec<(&'static str, f64)>);

impl StageTimes {
    pub fn sum_ms(&self) -> f64 {
        self.0.iter().map(|(_, ms)| ms).sum()
    }
}

struct Pipe {
    near: Box<dyn Transport>,
    far: Box<dyn Transport>,
    /// TCP frames are encoded and decoded inside the transport; the
    /// explicit codec calls below time that work on its own.
    framed: bool,
}

impl Pipe {
    /// Carry messages one at a time source → destination, or back when
    /// `to_source` (only the source's sends are paced). One span per stage
    /// covers the whole batch.
    fn deliver(
        &self,
        t: &mut Tracer,
        msgs: Vec<MigMessage>,
        to_source: bool,
    ) -> Result<Vec<MigMessage>, String> {
        let (from, to) = if to_source {
            (&self.far, &self.near)
        } else {
            (&self.near, &self.far)
        };
        if self.framed {
            let frames: Vec<Vec<u8>> = t.span("stage.encode", |_| {
                msgs.iter().map(codec::encode_framed).collect()
            });
            t.span("stage.decode", |_| {
                frames
                    .iter()
                    .try_for_each(|f| codec::decode(&f[4..]).map(drop))
            })
            .map_err(|e| format!("replay decode: {e:?}"))?;
        }
        t.span("stage.transport", |_| {
            msgs.into_iter()
                .map(|msg| from.send(msg).and_then(|()| to.recv()))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("replay transport: {e}"))
        })
    }
}

/// The destination's half of the replay: resident disk plus content index.
struct Dest {
    disk: VirtualDisk,
    index: ContentIndex,
    block_size: usize,
}

impl Dest {
    fn apply_full(&mut self, t: &mut Tracer, blocks: &[u64], payload: &[u8]) {
        let bs = self.block_size;
        let fps: Vec<u64> = t.span("stage.verify", |_| {
            payload.chunks_exact(bs).map(hash_block).collect()
        });
        t.span("stage.apply", |_| {
            for (&b, data) in blocks.iter().zip(payload.chunks_exact(bs)) {
                self.disk.write_block(b as usize, data);
            }
        });
        t.span("stage.index", |_| {
            for (&b, &fp) in blocks.iter().zip(&fps) {
                self.index.record(b as usize, fp);
            }
        });
    }

    /// Materialize a chunk's references from resident blocks, stage by
    /// stage: resolve every holder, read them, re-hash, write, re-index.
    /// All reads come before any write, so the order within the chunk
    /// cannot matter.
    fn apply_refs(&mut self, t: &mut Tracer, refs: &[(u64, u64)]) -> Result<(), String> {
        let holders: Option<Vec<usize>> = t.span("stage.index", |_| {
            refs.iter().map(|&(_, fp)| self.index.resolve(fp)).collect()
        });
        let holders = holders.ok_or("replay: a block reference does not resolve")?;
        let data: Vec<Vec<u8>> = t.span("stage.read", |_| {
            holders.iter().map(|&h| self.disk.read_block(h)).collect()
        });
        let verified = t.span("stage.verify", |_| {
            data.iter()
                .zip(refs)
                .all(|(d, &(_, fp))| hash_block(d) == fp)
        });
        if !verified {
            return Err("replay: stale content-index entry".into());
        }
        t.span("stage.apply", |_| {
            for (d, &(b, _)) in data.iter().zip(refs) {
                self.disk.write_block(b as usize, d);
            }
        });
        t.span("stage.index", |_| {
            for &(b, fp) in refs {
                self.index.record(b as usize, fp);
            }
        });
        Ok(())
    }

    fn receive(&mut self, t: &mut Tracer, msg: MigMessage) -> Result<(), String> {
        match msg {
            MigMessage::DiskBlocks {
                blocks,
                payload: Some(payload),
                ..
            } => self.apply_full(t, &blocks, &payload),
            MigMessage::CompressedBlocks {
                blocks, payload, ..
            } => {
                let raw = t
                    .span("stage.decompress", |_| {
                        decompress_blocks(&payload, blocks.len(), self.block_size)
                    })
                    .map_err(|e| format!("replay decompress: {e:?}"))?;
                self.apply_full(t, &blocks, &raw);
            }
            other => return Err(format!("replay: unexpected message {other:?}")),
        }
        Ok(())
    }
}

/// Replay `case`'s disk transfer once. Returns the per-stage self times,
/// or why the replayed destination image came out wrong.
pub fn run(case: &LiveCase, tracer: &mut Tracer) -> Result<StageTimes, String> {
    let cfg = &case.cfg;
    let (bs, n) = (cfg.block_size, cfg.num_blocks);
    let src = case.source_image();
    let worklist: Vec<usize> = match &case.initial_bitmap {
        Some(bm) => bm.to_indices(),
        None => (0..n).collect(),
    };
    let pipe = match case.wire {
        Wire::Duplex => {
            let (mut near, far) = duplex();
            if let Some(rate) = cfg.rate_limit {
                near.set_rate_limit(rate);
            }
            Pipe {
                near: Box::new(near),
                far: Box::new(far),
                framed: false,
            }
        }
        Wire::Tcp => {
            let (near, far) = loopback_pair().map_err(|e| format!("replay loopback: {e}"))?;
            Pipe {
                near: Box::new(near),
                far: Box::new(far),
                framed: true,
            }
        }
    };
    let dst_disk = case.fresh_destination();

    let run = tracer.next_run();
    let dest = tracer.span("replay", |t| -> Result<Dest, String> {
        // Dedup handshake: the destination fingerprints everything it
        // holds and ships the summary; the source seeds its view from it.
        let mut fps: Vec<u64> = Vec::with_capacity(n);
        for first in (0..n).step_by(cfg.batch.max(1)) {
            let last = (first + cfg.batch.max(1)).min(n);
            let resident: Vec<Vec<u8>> = t.span("stage.read", |_| {
                (first..last).map(|b| dst_disk.read_block(b)).collect()
            });
            t.span("stage.hash", |_| {
                fps.extend(resident.iter().map(|d| hash_block(d)))
            });
        }
        let index = t.span("stage.index", |_| ContentIndex::from_fps(fps));
        let summary = MigMessage::ContentSummary {
            fingerprints: t.span("stage.index", |_| index.fingerprints()),
        };
        let Some(MigMessage::ContentSummary { fingerprints }) =
            pipe.deliver(t, vec![summary], true)?.pop()
        else {
            return Err("replay: summary did not survive the pipe".into());
        };
        let mut known: HashSet<u64> = t.span("stage.index", |_| fingerprints.into_iter().collect());
        let mut dest = Dest {
            disk: dst_disk,
            index,
            block_size: bs,
        };

        for chunk in worklist.chunks(cfg.batch.max(1)) {
            t.span("replay.chunk", |t| -> Result<(), String> {
                let data: Vec<Vec<u8>> = t.span("stage.read", |_| {
                    chunk.iter().map(|&b| src.read_block(b)).collect()
                });
                let fps: Vec<u64> = t.span("stage.hash", |_| {
                    data.iter().map(|d| hash_block(d)).collect()
                });
                drop(data);
                let mut fulls: Vec<usize> = Vec::new();
                let mut refs: Vec<(u64, u64)> = Vec::new();
                t.span("stage.index", |_| {
                    for (&b, &fp) in chunk.iter().zip(&fps) {
                        if known.contains(&fp) {
                            refs.push((b as u64, fp));
                        } else {
                            known.insert(fp);
                            fulls.push(b);
                        }
                    }
                });
                if !fulls.is_empty() {
                    // The engine reads full blocks a second time when it
                    // assembles the batch payload.
                    let payload: Vec<u8> = t.span("stage.read", |_| {
                        let mut p = Vec::with_capacity(fulls.len() * bs);
                        for &b in &fulls {
                            p.extend_from_slice(&src.read_block(b));
                        }
                        p
                    });
                    let blocks: Vec<u64> = fulls.iter().map(|&b| b as u64).collect();
                    let frames = cfg
                        .compress
                        .then(|| t.span("stage.compress", |_| compress_blocks(&payload, bs)))
                        .filter(|frames| frames.len() < payload.len());
                    let msg = match frames {
                        Some(frames) => MigMessage::CompressedBlocks {
                            blocks,
                            raw_len: payload.len() as u64,
                            payload: Bytes::from(frames),
                        },
                        None => MigMessage::DiskBlocks {
                            blocks,
                            payload_len: payload.len() as u64,
                            payload: Some(Bytes::from(payload)),
                        },
                    };
                    for msg in pipe.deliver(t, vec![msg], false)? {
                        dest.receive(t, msg)?;
                    }
                }
                // One 16-byte message per reference, as the engine sends them.
                let ref_msgs = refs
                    .into_iter()
                    .map(|(block, fingerprint)| MigMessage::BlockRef { block, fingerprint })
                    .collect();
                let arrived: Vec<(u64, u64)> = pipe
                    .deliver(t, ref_msgs, false)?
                    .into_iter()
                    .filter_map(|msg| match msg {
                        MigMessage::BlockRef { block, fingerprint } => Some((block, fingerprint)),
                        _ => None,
                    })
                    .collect();
                dest.apply_refs(t, &arrived)
            })?;
        }
        Ok(dest)
    })?;

    if !src.content_equals(&dest.disk) {
        return Err("replay: destination image differs from the source".into());
    }
    let own = tracer.self_time_ms(run);
    let mut times: Vec<(&'static str, f64)> = STAGES
        .iter()
        .map(|(span, metric)| (*metric, own.get(span).copied().unwrap_or(0.0)))
        .collect();
    if pipe.framed {
        // On TCP the transport span already contains one encode and one
        // decode of every frame; count that work once, under the codec.
        let codec_ms: f64 = times
            .iter()
            .filter(|(m, _)| *m == "stage.encode_ms" || *m == "stage.decode_ms")
            .map(|(_, ms)| ms)
            .sum();
        if let Some(transport) = times.iter_mut().find(|(m, _)| *m == "stage.transport_ms") {
            transport.1 = (transport.1 - codec_ms).max(0.0);
        }
    }
    Ok(StageTimes(times))
}
