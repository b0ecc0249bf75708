//! `wan_transfer`: the §7.2 data plane.
//!
//! Bulk jobs call `TransferEngine::run` over the OSDC WAN for
//! {UDR, rsync} × {none, Blowfish, 3DES} × 10 GB–1.1 TB: long steady
//! flows through the fluid solver and congestion control. Sync jobs call
//! `sync_over_wan` on seeded trees of real bytes: create passes push the
//! whole payload through the cipher, update passes over scattered edits
//! run signatures, the delta scan and the cipher on literals only.
//!
//! Job sizes, kinds and ciphers are fixed by the job's position in the
//! list; the seed draws the bytes, the edits and the WAN's loss process,
//! so every seed has the same size mix.

use std::collections::BTreeMap;

use osdc_crypto::CipherKind;
use osdc_net::{osdc_wan, FluidNet, NodeId, OsdcSite};
use osdc_sim::{derive_seed, SimDuration, SimRng};
use osdc_transfer::{
    apply_delta, block_size_for, compute_signatures, generate_delta_with, plan_sync, sync_over_wan,
    CheckMode, DeltaOp, DeltaScratch, FileEntry, FileList, PlanAction, Protocol, SyncReport,
    TransferEngine, TransferReport, TransferSpec, Tree, WireCipher,
};

use crate::{Cx, Hash, Workload};

/// The WAN residual-loss calibration the Table 3 harness uses.
const LONG_HAUL_LOSS: f64 = 0.9e-7;
const GB: f64 = 1e9;
/// Bulk sizes: 10 steps of ×1.69 from 10 GB to 1.1 TB, each run for
/// both protocols and all three ciphers.
const BULK_SIZES: usize = 10;
const BULK_MIN_GB: f64 = 10.0;
const BULK_MAX_GB: f64 = 1100.0;
const CIPHERS: [CipherKind; 3] = [
    CipherKind::None,
    CipherKind::Blowfish,
    CipherKind::TripleDes,
];
/// Create passes: 12 tree sizes of ×1.25 from 192 KiB, each with all
/// three ciphers.
const CREATE_SIZES: usize = 12;
const CREATE_MIN_KIB: f64 = 192.0;
const CREATE_STEP: f64 = 1.25;
/// Update passes: 36 trees from 384 KiB in 64 KiB steps; the cipher
/// rotates with the job.
const UPDATES: usize = 36;
const UPDATE_MIN_KIB: usize = 384;
const UPDATE_STEP_KIB: usize = 64;
/// Files edited per update pass, and scattered edits per edited file.
const EDITED_FILES: usize = 5;
const EDITS_PER_FILE: usize = 4;
const FILES_PER_TREE: usize = 8;
/// The wire cost of one block signature, as `sync_over_wan` prices it.
const SIG_BYTES_PER_BLOCK: u64 = 24;
/// The session key `sync_over_wan` keys its wire cipher with.
const SESSION_KEY: &[u8] = b"osdc sync session key";

/// A tree plus the mtimes its file list needs.
pub struct Files {
    tree: Tree,
    mtimes: BTreeMap<String, u64>,
}

impl Files {
    fn new() -> Self {
        Files {
            tree: Tree::new(),
            mtimes: BTreeMap::new(),
        }
    }

    fn put(&mut self, path: &str, content: Vec<u8>, mtime: u64) {
        self.tree.put(path, content, mtime);
        self.mtimes.insert(path.to_string(), mtime);
    }

    fn file_list(&self, tree: &Tree) -> FileList {
        self.mtimes
            .iter()
            .map(|(p, m)| {
                let content = tree.get(p).expect("listed path is in the tree");
                (p.clone(), FileEntry::from_content(content, *m))
            })
            .collect()
    }
}

pub enum Job {
    Bulk {
        protocol: Protocol,
        cipher: CipherKind,
        bytes: u64,
        seed: u64,
    },
    Sync {
        protocol: Protocol,
        cipher: CipherKind,
        seed: u64,
        src: Files,
        /// The destination before the pass: empty for a create pass.
        basis: Files,
    },
}

pub enum Out {
    Bulk(TransferReport),
    Sync { report: SyncReport, dst: Tree },
    Failed(String),
}

pub struct Wan {
    jobs: Vec<Job>,
}

fn random_bytes(rng: &mut SimRng, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len + 8);
    while v.len() < len {
        v.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    v.truncate(len);
    v
}

/// A tree of `FILES_PER_TREE` equal files of random bytes.
fn random_tree(rng: &mut SimRng, kib: usize) -> Files {
    let mut f = Files::new();
    for k in 0..FILES_PER_TREE {
        let content = random_bytes(rng, kib * 1024 / FILES_PER_TREE);
        f.put(&format!("/data/run{k:02}.bin"), content, 1_000 + k as u64);
    }
    f
}

/// The next version of `basis`: `EDITED_FILES` of its files, drawn by
/// the seed, get `EDITS_PER_FILE` scattered edits each (overwrite,
/// insert and delete in turn) and a new mtime, and one file is new.
fn edited(rng: &mut SimRng, basis: &Files, kib: usize) -> Files {
    let mut paths: Vec<&String> = basis.mtimes.keys().collect();
    rng.shuffle(&mut paths);
    let touched: Vec<&String> = paths.into_iter().take(EDITED_FILES).collect();
    let mut next = Files::new();
    for (path, &mtime) in &basis.mtimes {
        let mut content = basis.tree.get(path).expect("basis path").to_vec();
        let mut m = mtime;
        if touched.contains(&path) {
            m += 3_600;
            for e in 0..EDITS_PER_FILE {
                let pos = rng.below(content.len() as u64 - 64) as usize;
                let n = rng.range_inclusive(1, 32) as usize;
                match e % 3 {
                    0 => {
                        let fresh = random_bytes(rng, n);
                        content[pos..pos + n].copy_from_slice(&fresh);
                    }
                    1 => {
                        let fresh = random_bytes(rng, n);
                        content.splice(pos..pos, fresh);
                    }
                    _ => {
                        content.drain(pos..pos + n);
                    }
                }
            }
        }
        next.put(path, content, m);
    }
    let extra = random_bytes(rng, kib * 1024 / FILES_PER_TREE);
    next.put("/data/new.bin", extra, 9_000);
    next
}

impl Wan {
    pub fn setup(seed: u64) -> Self {
        let mut bulk = Vec::new();
        for k in 0..BULK_SIZES {
            let ratio = BULK_MAX_GB / BULK_MIN_GB;
            let gb = BULK_MIN_GB * ratio.powf(k as f64 / (BULK_SIZES - 1) as f64);
            for protocol in [Protocol::Udr, Protocol::Rsync] {
                for cipher in CIPHERS {
                    bulk.push(Job::Bulk {
                        protocol,
                        cipher,
                        bytes: (gb * GB) as u64,
                        seed: derive_seed(seed, bulk.len() as u64),
                    });
                }
            }
        }
        let mut rng = SimRng::new(derive_seed(seed, 0x5_1C));
        let mut sync = Vec::new();
        for k in 0..CREATE_SIZES {
            let kib = (CREATE_MIN_KIB * CREATE_STEP.powi(k as i32)) as usize;
            for cipher in CIPHERS {
                sync.push(Job::Sync {
                    protocol: if k % 2 == 0 {
                        Protocol::Udr
                    } else {
                        Protocol::Rsync
                    },
                    cipher,
                    seed: derive_seed(seed, 1_000 + sync.len() as u64),
                    src: random_tree(&mut rng, kib),
                    basis: Files::new(),
                });
            }
        }
        for k in 0..UPDATES {
            let kib = UPDATE_MIN_KIB + UPDATE_STEP_KIB * k;
            let basis = random_tree(&mut rng, kib);
            let src = edited(&mut rng, &basis, kib);
            sync.push(Job::Sync {
                protocol: if k % 2 == 0 {
                    Protocol::Udr
                } else {
                    Protocol::Rsync
                },
                cipher: CIPHERS[k % 3],
                seed: derive_seed(seed, 1_000 + sync.len() as u64),
                src,
                basis,
            });
        }
        // Interleave the kinds in a fixed order (independent of the seed)
        // so both workers see the same mix on every seed.
        let mut jobs: Vec<Job> = bulk.into_iter().chain(sync).collect();
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        SimRng::new(0x00DD_5EED).shuffle(&mut order);
        let mut slots: Vec<Option<Job>> = jobs.drain(..).map(Some).collect();
        let jobs = order
            .into_iter()
            .map(|i| slots[i].take().expect("each job placed once"))
            .collect();
        Wan { jobs }
    }
}

fn engine(seed: u64) -> (TransferEngine, NodeId, NodeId) {
    let wan = osdc_wan(LONG_HAUL_LOSS);
    let src = wan.node(OsdcSite::ChicagoKenwood);
    let dst = wan.node(OsdcSite::Lvoc);
    (
        TransferEngine::new(FluidNet::new(wan.topology, seed)),
        src,
        dst,
    )
}

fn crypto_span(cipher: CipherKind) -> (&'static str, &'static str) {
    match cipher {
        CipherKind::None => ("crypto.none", "crypto.none_bytes"),
        CipherKind::Blowfish => ("crypto.blowfish", "crypto.blowfish_bytes"),
        CipherKind::TripleDes => ("crypto.tdes", "crypto.tdes_bytes"),
    }
}

/// `sync_over_wan` driven through its public pieces, one span each, so
/// the traced pass can split the sync between plan, signatures, delta,
/// cipher, apply and the WAN session. The run's checks compare its
/// results with the product call's.
#[allow(clippy::too_many_arguments)]
fn sync_pieces(
    cx: &mut Cx,
    engine: &mut TransferEngine,
    src: &Files,
    basis: &Files,
    dst: &mut Tree,
    protocol: Protocol,
    cipher: CipherKind,
    nodes: (NodeId, NodeId),
) -> Result<SyncReport, String> {
    let t = &mut cx.t;
    let counts = &mut cx.counts;
    let plan = t.span("sync.plan", || {
        plan_sync(
            &src.file_list(&src.tree),
            &basis.file_list(dst),
            CheckMode::Quick,
        )
    });
    let (cspan, cbytes) = crypto_span(cipher);
    let wire = t.span(cspan, || WireCipher::new(cipher, SESSION_KEY));
    let mut scratch = DeltaScratch::new();
    let (mut wire_bytes, mut nonce) = (0u64, 0u64);
    let (mut created, mut updated, mut extra) = (0u32, 0u32, 0u32);
    for (path, action) in &plan {
        let mtime = src.mtimes.get(path).copied();
        match action {
            PlanAction::Create => {
                let mut content = src.tree.get(path).ok_or("planned path")?.to_vec();
                t.span(cspan, || {
                    wire.apply(nonce, &mut content);
                    wire.apply(nonce, &mut content);
                });
                counts.add(cbytes, 2.0 * content.len() as f64);
                nonce += 1;
                wire_bytes += content.len() as u64;
                let mtime = mtime.ok_or("planned path has an mtime")?;
                t.span("sync.apply", || dst.put(path, content, mtime));
                created += 1;
            }
            PlanAction::Update => {
                let new_data = src.tree.get(path).ok_or("planned path")?;
                let old = dst.get(path).ok_or("update implies presence")?.to_vec();
                let bs = block_size_for(old.len().max(1));
                let sigs = t.span("sync.signatures", || compute_signatures(&old, bs));
                wire_bytes += sigs.blocks.len() as u64 * SIG_BYTES_PER_BLOCK;
                let mut delta = t.span("sync.delta", || {
                    generate_delta_with(&sigs, new_data, &mut scratch)
                });
                wire_bytes += delta.wire_bytes() as u64;
                counts.add("sync.basis_bytes", old.len() as f64);
                counts.add("sync.scanned_bytes", new_data.len() as f64);
                counts.add("sync.copied_bytes", delta.matched_bytes as f64);
                for op in &mut delta.ops {
                    if let DeltaOp::Literal(bytes) = op {
                        t.span(cspan, || {
                            wire.apply(nonce, bytes);
                            wire.apply(nonce, bytes);
                        });
                        counts.add(cbytes, 2.0 * bytes.len() as f64);
                        nonce += 1;
                    }
                }
                let rebuilt = t
                    .span("sync.apply", || apply_delta(&old, &delta, bs))
                    .ok_or("own delta applies")?;
                let mtime = mtime.ok_or("planned path has an mtime")?;
                t.span("sync.apply", || dst.put(path, rebuilt, mtime));
                updated += 1;
            }
            PlanAction::ExtraOnTarget => extra += 1,
        }
    }
    wire_bytes += (src.tree.len() + dst.len()) as u64 * 64;
    let transfer = t.span("session.run", || {
        engine.run(
            &TransferSpec {
                protocol,
                cipher,
                bytes: wire_bytes.max(1),
                files: (created + updated).max(1),
                src: nodes.0,
                dst: nodes.1,
            },
            SimDuration::from_days(7),
        )
    });
    Ok(SyncReport {
        files_created: created,
        files_updated: updated,
        extra_on_target: extra,
        wire_bytes,
        full_copy_bytes: src.tree.total_bytes(),
        transfer,
    })
}

fn hash_transfer(h: &mut Hash, r: &TransferReport) {
    h.str(r.protocol.label())
        .str(r.cipher.label())
        .u64(r.bytes)
        .u64(r.duration.as_nanos())
        .f64(r.mbps)
        .f64(r.llr)
        .u64(r.loss_events);
}

impl Workload for Wan {
    type Out = Out;
    type Kept = Out;

    fn job_count(&self) -> usize {
        self.jobs.len()
    }

    fn kind(&self, i: usize) -> &'static str {
        match &self.jobs[i] {
            Job::Bulk { .. } => "bulk",
            Job::Sync { basis, .. } if basis.mtimes.is_empty() => "sync_create",
            Job::Sync { .. } => "sync_update",
        }
    }

    fn run(&self, i: usize, cx: &mut Cx) -> Out {
        match &self.jobs[i] {
            Job::Bulk {
                protocol,
                cipher,
                bytes,
                seed,
            } => {
                let (mut eng, s, d) = cx.t.span("session.build", || engine(*seed));
                let spec = TransferSpec {
                    protocol: *protocol,
                    cipher: *cipher,
                    bytes: *bytes,
                    files: 1,
                    src: s,
                    dst: d,
                };
                let r =
                    cx.t.span("session.run", || eng.run(&spec, SimDuration::from_days(2)));
                cx.counts.add("session.calls", 1.0);
                cx.counts.add("session.sim_s", r.duration.as_secs_f64());
                Out::Bulk(r)
            }
            Job::Sync {
                protocol,
                cipher,
                seed,
                src,
                basis,
            } => {
                let (mut eng, s, d) = cx.t.span("session.build", || engine(*seed));
                let mut dst = basis.tree.clone();
                let report = if cx.t.is_on() {
                    match sync_pieces(
                        cx,
                        &mut eng,
                        src,
                        basis,
                        &mut dst,
                        *protocol,
                        *cipher,
                        (s, d),
                    ) {
                        Ok(r) => r,
                        Err(e) => return Out::Failed(e.to_string()),
                    }
                } else {
                    sync_over_wan(
                        &mut eng,
                        &src.tree,
                        &mut dst,
                        *protocol,
                        *cipher,
                        CheckMode::Quick,
                        s,
                        d,
                    )
                };
                cx.counts.add("session.calls", 1.0);
                cx.counts
                    .add("session.sim_s", report.transfer.duration.as_secs_f64());
                cx.counts.add("sync.wire_bytes", report.wire_bytes as f64);
                cx.counts
                    .add("sync.full_bytes", report.full_copy_bytes as f64);
                Out::Sync { report, dst }
            }
        }
    }

    fn settle(&self, _i: usize, out: Out) -> ([u8; 16], Out) {
        let mut h = Hash::default();
        match &out {
            Out::Bulk(r) => hash_transfer(&mut h, r),
            Out::Sync { report, .. } => {
                h.u64(report.files_created as u64)
                    .u64(report.files_updated as u64)
                    .u64(report.extra_on_target as u64)
                    .u64(report.wire_bytes)
                    .u64(report.full_copy_bytes);
                hash_transfer(&mut h, &report.transfer);
            }
            Out::Failed(e) => {
                h.str(e);
            }
        }
        (h.finish(), out)
    }

    fn check(&self, i: usize, out: &Out) -> Result<(), String> {
        match (&self.jobs[i], out) {
            (Job::Bulk { bytes, .. }, Out::Bulk(r)) => {
                if r.bytes != *bytes || !(r.mbps.is_finite() && r.mbps > 0.0) {
                    return Err(format!("report {} bytes at {} mbit/s", r.bytes, r.mbps));
                }
                Ok(())
            }
            (Job::Sync { src, .. }, Out::Sync { report, dst }) => {
                if dst.len() != src.tree.len() {
                    return Err(format!(
                        "{} files at the destination, {} at the source",
                        dst.len(),
                        src.tree.len()
                    ));
                }
                for path in src.mtimes.keys() {
                    if dst.get(path) != src.tree.get(path) {
                        return Err(format!("{path} differs from its source"));
                    }
                }
                if report.wire_bytes == 0 || report.transfer.bytes != report.wire_bytes {
                    return Err(format!(
                        "{} wire bytes, {} transferred",
                        report.wire_bytes, report.transfer.bytes
                    ));
                }
                Ok(())
            }
            (_, Out::Failed(e)) => Err(e.clone()),
            _ => Err("output of the wrong kind".into()),
        }
    }
}
