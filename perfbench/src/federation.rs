//! `federation_ops`: the federation under faults, with the program's
//! telemetry on, as operators run it.
//!
//! Five job kinds, each recording into its own telemetry shard:
//! chaos campaigns over storage era × retry policy, failover-router op
//! streams over provider mixes with API fault windows, capability
//! sharing churn through partition schedules, replica-2 volume runs with
//! brick failures and heals, and Tukey console sessions. Every op stream
//! is drawn from the seed in set-up; the job only applies it.

use std::collections::BTreeMap;

use osdc_audit::{drive, router_ops, FailoverOracle, RouterOp};
use osdc_chaos::{run_campaign, CampaignConfig, Injector, ResilienceScorecard, RetryPolicy};
use osdc_net::wan::OsdcSite;
use osdc_providers::{osdc_fleet, FailoverRouter};
use osdc_sharing::{
    Action, DcId, PartitionEvent, SharingConfig, SharingReport, SharingSim, TrustLevel,
};
use osdc_sim::{derive_seed, SimDuration, SimRng, SimTime};
use osdc_storage::{BrickId, FileData, GlusterVersion, Volume};
use osdc_telemetry::Telemetry;
use osdc_tukey::auth::{AuthProxy, Identity, OpenIdProvider, ShibbolethIdp};
use osdc_tukey::credentials::CloudCredential;
use osdc_tukey::translation::osdc_proxy;
use osdc_tukey::{SessionToken, TukeyConsole};

use crate::{Cx, Hash, Workload};

// ---- job mix (per round) ----
/// Campaign cells: both storage eras × three retry policies × lengths.
const CAMPAIGN_MINS: [u64; 4] = [720, 1080, 1440, 2160];
const CAMPAIGN_FAULTS_PER_HOUR: f64 = 2.0;
const ROUTER_STREAMS: usize = 24;
const ROUTER_MINUTES: [usize; 4] = [100, 125, 150, 175];
const SHARING_RUNS: usize = 20;
const VOLUME_RUNS: usize = 20;
const CONSOLE_SESSIONS: usize = 20;

const MIXES: [&[&str]; 3] = [
    &["adler", "sullivan"],
    &["spotmart", "lagoon", "pagely"],
    &["adler", "sullivan", "spotmart", "lagoon", "pagely"],
];

// ---- sharing ----
const SHARE_USERS: [&str; 4] = ["alice", "bob", "carol", "dave"];
const SHARE_PATHS: [&str; 4] = [
    "/projects/genomics",
    "/public/1000genomes",
    "/data/climate",
    "/archive/modencode",
];

enum ShareOp {
    Grant {
        dc: u8,
        user: u8,
        path: u8,
        level: u8,
        lend_secs: u64,
    },
    Revoke {
        dc: u8,
        pick: u64,
    },
    Check {
        dc: u8,
        user: u8,
        path: u8,
    },
}

pub struct SharingJob {
    seed: u64,
    partitions: Vec<PartitionEvent>,
    /// (seconds to advance first, op)
    ops: Vec<(u64, ShareOp)>,
}

// ---- volume ----
enum VolOp {
    Write { file: u32, size: u64 },
    Read { file: u32 },
    Fail(usize),
    Replace(usize),
    Offline(usize),
    Online(usize),
    Heal,
}

pub struct VolumeJob {
    seed: u64,
    ops: Vec<VolOp>,
}

// ---- console ----
const CONSOLE_USERS: usize = 12;
const CONSOLE_OPS: usize = 1_200;
const FLAVORS: [&str; 4] = ["m1.small", "m1.medium", "m1.large", "m1.xlarge"];
const IMAGES: [&str; 5] = [
    "ubuntu-base",
    "bionimbus-genomics",
    "matsu-earth-obs",
    "bookworm-nlp",
    "no-such-image",
];

pub enum ConsoleOp {
    Login(usize),
    Launch {
        user: usize,
        cloud: u8,
        flavor: u8,
        image: u8,
    },
    List(usize),
    Terminate {
        user: usize,
        pick: u64,
    },
    Usage(usize),
    Logout(usize),
}

pub enum Job {
    Campaign(CampaignConfig),
    Router {
        mix: usize,
        seed: u64,
        ops: Vec<RouterOp>,
    },
    Sharing(SharingJob),
    Volume(VolumeJob),
    Console(Vec<ConsoleOp>),
}

pub struct Federation {
    jobs: Vec<Job>,
}

fn sharing_job(seed: u64, k: usize) -> SharingJob {
    let mut rng = SimRng::new(derive_seed(seed, 0x5A1E));
    let cut = |site, at_secs: f64, duration_secs: f64| PartitionEvent {
        at_secs,
        duration_secs,
        site,
    };
    let jitter = rng.range_inclusive(0, 60) as f64;
    let partitions = match k % 4 {
        0 => vec![],
        1 => vec![cut(OsdcSite::Lvoc, 120.0 + jitter, 600.0)],
        2 => vec![
            cut(OsdcSite::ChicagoKenwood, 60.0 + jitter, 240.0),
            cut(OsdcSite::ChicagoLakeshore, 360.0, 240.0),
            cut(OsdcSite::Lvoc, 660.0, 240.0),
            cut(OsdcSite::AmpathMiami, 960.0, 240.0),
        ],
        _ => vec![
            cut(OsdcSite::AmpathMiami, 90.0 + jitter, 400.0),
            cut(OsdcSite::AmpathMiami, 150.0, 120.0),
            cut(OsdcSite::Lvoc, 300.0, 200.0),
        ],
    };
    let n_ops = if k.is_multiple_of(2) { 160 } else { 240 };
    let mut grants = 0u64;
    let ops = (0..n_ops)
        .map(|_| {
            let advance = rng.range_inclusive(5, 60);
            let dc = rng.below(4) as u8;
            let op = match rng.below(10) {
                0..=4 => {
                    grants += 1;
                    ShareOp::Grant {
                        dc,
                        level: rng.below(4) as u8,
                        lend_secs: rng.range_inclusive(30, 600),
                        user: rng.below(4) as u8,
                        path: rng.below(4) as u8,
                    }
                }
                5..=7 if grants > 0 => ShareOp::Revoke {
                    dc,
                    pick: rng.below(grants),
                },
                _ => ShareOp::Check {
                    dc,
                    user: rng.below(4) as u8,
                    path: rng.below(4) as u8,
                },
            };
            (advance, op)
        })
        .collect();
    SharingJob {
        seed,
        partitions,
        ops,
    }
}

/// A replica-2 volume of 4 sets: writes and reads, with one brick of a
/// set failing (and being replaced and healed) or both bricks of a set
/// going offline for a while, never losing both copies at once.
fn volume_job(seed: u64, k: usize) -> VolumeJob {
    let mut rng = SimRng::new(derive_seed(seed, 0xB41C));
    let files = 800 + 100 * (k as u32 % 5);
    let mut ops = Vec::new();
    for f in 0..files {
        ops.push(VolOp::Write {
            file: f,
            size: 1 + rng.below(1 << 30),
        });
    }
    for phase in 0..12usize {
        let set = rng.below(4) as usize;
        let outage = phase % 3 == 2;
        let failed = 2 * set + rng.below(2) as usize;
        if outage {
            ops.push(VolOp::Offline(2 * set));
            ops.push(VolOp::Offline(2 * set + 1));
        } else {
            ops.push(VolOp::Fail(failed));
        }
        for _ in 0..files {
            let file = rng.below(files as u64) as u32;
            if rng.chance(0.3) {
                ops.push(VolOp::Write {
                    file,
                    size: 1 + rng.below(1 << 30),
                });
            } else {
                ops.push(VolOp::Read { file });
            }
        }
        if outage {
            ops.push(VolOp::Online(2 * set));
            ops.push(VolOp::Online(2 * set + 1));
        } else {
            ops.push(VolOp::Replace(failed));
        }
        ops.push(VolOp::Heal);
    }
    VolumeJob { seed, ops }
}

fn console_ops(seed: u64) -> Vec<ConsoleOp> {
    let mut rng = SimRng::new(derive_seed(seed, 0x7C0E));
    let mut ops: Vec<ConsoleOp> = (0..CONSOLE_USERS).map(ConsoleOp::Login).collect();
    for _ in 0..CONSOLE_OPS {
        let user = rng.below(CONSOLE_USERS as u64) as usize;
        match rng.below(20) {
            0..=6 => ops.push(ConsoleOp::Launch {
                user,
                cloud: rng.below(2) as u8,
                flavor: rng.below(4) as u8,
                // One launch in twenty names an image no cloud has.
                image: if rng.chance(0.05) {
                    4
                } else {
                    rng.below(4) as u8
                },
            }),
            7..=9 => ops.push(ConsoleOp::List(user)),
            10..=15 => ops.push(ConsoleOp::Terminate {
                user,
                pick: rng.next_u64(),
            }),
            16..=18 => ops.push(ConsoleOp::Usage(user)),
            // Log out, try the stale session once, log back in.
            _ => ops.extend([
                ConsoleOp::Logout(user),
                ConsoleOp::Usage(user),
                ConsoleOp::Login(user),
            ]),
        }
    }
    for u in 0..CONSOLE_USERS {
        ops.push(ConsoleOp::Usage(u));
    }
    ops
}

impl Federation {
    pub fn setup(seed: u64) -> Self {
        let mut jobs = Vec::new();
        let v31 = GlusterVersion::V3_1 {
            replica_drop_prob: 0.15,
        };
        for (m, mins) in CAMPAIGN_MINS.into_iter().enumerate() {
            for gluster in [v31, GlusterVersion::V3_3] {
                for retry in [
                    RetryPolicy::None,
                    RetryPolicy::fixed_30s(4),
                    RetryPolicy::exponential(12),
                ] {
                    let s = derive_seed(seed, 100 + m as u64);
                    jobs.push(Job::Campaign(CampaignConfig::osdc(
                        gluster,
                        retry,
                        s,
                        mins,
                        CAMPAIGN_FAULTS_PER_HOUR,
                    )));
                }
            }
        }
        for k in 0..ROUTER_STREAMS {
            let s = derive_seed(seed, 200 + k as u64);
            let mix = k % MIXES.len();
            jobs.push(Job::Router {
                mix,
                seed: s,
                ops: router_ops(s, MIXES[mix], ROUTER_MINUTES[k % ROUTER_MINUTES.len()]),
            });
        }
        for k in 0..SHARING_RUNS {
            jobs.push(Job::Sharing(sharing_job(
                derive_seed(seed, 300 + k as u64),
                k,
            )));
        }
        for k in 0..VOLUME_RUNS {
            jobs.push(Job::Volume(volume_job(
                derive_seed(seed, 400 + k as u64),
                k,
            )));
        }
        for k in 0..CONSOLE_SESSIONS {
            jobs.push(Job::Console(console_ops(derive_seed(seed, 500 + k as u64))));
        }
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        SimRng::new(0x0FED_00B5).shuffle(&mut order);
        let mut slots: Vec<Option<Job>> = jobs.into_iter().map(Some).collect();
        let jobs = order
            .into_iter()
            .map(|i| slots[i].take().expect("each job placed once"))
            .collect();
        Federation { jobs }
    }
}

pub enum Out {
    Campaign(ResilienceScorecard),
    Router {
        digest: [u8; 16],
        faults_failed: u64,
    },
    Sharing {
        report: SharingReport,
        violations: u64,
        converged: bool,
    },
    Volume {
        volume: Volume,
        latest: BTreeMap<u32, FileData>,
        writes: u64,
        failed: u64,
        reads_failed: u64,
    },
    Console {
        transcript: String,
        errors: u64,
    },
}

fn hash_scorecard(h: &mut Hash, c: &ResilienceScorecard) {
    h.str(&c.config)
        .u64(c.faults_injected)
        .u64(c.recovery_events)
        .u64(c.total_repair.as_nanos())
        .u64(c.files_lost)
        .u64(c.writes_dropped)
        .u64(c.heal_repaired)
        .u64(c.instances_killed as u64)
        .u64(c.instances_relaunched as u64)
        .u64(c.alerts_raised)
        .u64(c.total_alert_latency.as_nanos())
        .u64(c.provision_ready as u64)
        .u64(c.provision_failed as u64)
        .u64(c.transfer_bytes_done);
}

fn router_digest(router: &FailoverRouter) -> [u8; 16] {
    let c = &router.scorecard;
    let mut h = Hash::default();
    h.u64(c.launches_requested)
        .u64(c.launches_placed)
        .u64(c.launches_failed)
        .u64(c.reroutes)
        .u64(c.fidelity_checks)
        .u64(c.fidelity_failures)
        .u64(c.terminates)
        .u64(c.preemption_relaunches)
        .u64(c.orphans_recorded)
        .u64(c.orphans_cleaned)
        .u64(c.double_launches_prevented)
        .f64(router.registry.ledger().total_usd());
    for a in router.assignments() {
        h.str(&a.provider)
            .u64(a.instance)
            .str(&a.user)
            .str(&a.token);
    }
    h.finish()
}

fn run_router(cx: &mut Cx, mix: usize, seed: u64, ops: &[RouterOp]) -> Out {
    let t = &mut cx.t;
    let tele = cx.tele;
    let mut router = t.span("router.build", || {
        FailoverRouter::new(osdc_fleet(MIXES[mix], tele.clone(), seed))
    });
    let mut now = SimTime::ZERO;
    let mut faults_failed = 0u64;
    t.span("router.ops", || {
        for op in ops {
            match op {
                RouterOp::Launch {
                    user,
                    token,
                    flavor,
                    image,
                } => {
                    let _ = router.launch(user, token, flavor, image, now);
                }
                RouterOp::Terminate { user, token } => {
                    let _ = router.terminate(user, token, now);
                }
                RouterOp::Inject(ev) => faults_failed += router.inject(ev, now).is_err() as u64,
                RouterOp::Restore(ev) => faults_failed += router.restore(ev, now).is_err() as u64,
                RouterOp::AdvanceMinute => {
                    now += SimDuration::from_mins(1);
                    router.poll_minute(now);
                    router.reconcile(now);
                }
            }
        }
    });
    let c = &router.scorecard;
    cx.counts.add("router.ops", ops.len() as f64);
    cx.counts.add("router.reroutes", c.reroutes as f64);
    cx.counts
        .add("router.orphans_recorded", c.orphans_recorded as f64);
    cx.counts.add("router.placed", c.launches_placed as f64);
    cx.counts
        .add("router.requested", c.launches_requested as f64);
    Out::Router {
        digest: router_digest(&router),
        faults_failed,
    }
}

fn run_sharing(cx: &mut Cx, job: &SharingJob) -> Out {
    let t = &mut cx.t;
    let tele = cx.tele;
    let mut sim = t.span("sharing.build", || {
        let mut sim = SharingSim::new(SharingConfig::new(job.seed));
        sim.set_telemetry(tele.clone());
        sim.apply_partitions(&job.partitions);
        sim
    });
    let mut minted = Vec::new();
    let mut violations = 0u64;
    t.span("sharing.churn", || {
        for (i, (advance, op)) in job.ops.iter().enumerate() {
            sim.run_for(SimDuration::from_secs(*advance));
            match *op {
                ShareOp::Grant {
                    dc,
                    user,
                    path,
                    level,
                    lend_secs,
                } => {
                    let level = match level {
                        0 => TrustLevel::View,
                        1 => TrustLevel::LendUntil {
                            expires: sim.now() + SimDuration::from_secs(lend_secs),
                        },
                        2 => TrustLevel::Copy,
                        _ => TrustLevel::Transfer,
                    };
                    minted.push(sim.grant(
                        DcId(dc),
                        SHARE_USERS[user as usize],
                        SHARE_PATHS[path as usize],
                        level,
                    ));
                }
                ShareOp::Revoke { dc, pick } => {
                    sim.revoke(DcId(dc), minted[pick as usize]);
                }
                ShareOp::Check { dc, user, path } => {
                    sim.check(
                        DcId(dc),
                        SHARE_USERS[user as usize],
                        SHARE_PATHS[path as usize],
                        Action::Read,
                    );
                }
            }
            if i % 4 == 0 {
                violations += sim.safety_violations();
            }
        }
    });
    let horizon = job
        .partitions
        .iter()
        .map(|p| p.until())
        .max()
        .unwrap_or(SimTime::ZERO);
    let quiesced = t.span("sharing.quiesce", || {
        sim.run_until_time(horizon + SimDuration::from_secs(1));
        let q = sim.quiesce(64);
        sim.grant(DcId(0), "mover", "/projects/genomics", TrustLevel::Copy);
        sim.quiesce(16) && q
    });
    t.span("sharing.copy", || {
        let _ = sim.copy_to(DcId(2), "mover", "/projects/genomics", 2_000_000_000);
    });
    let report = t.span("sharing.report", || {
        violations += sim.safety_violations();
        sim.report()
    });
    cx.counts.add(
        "sharing.messages_delivered",
        report.messages_delivered as f64,
    );
    cx.counts
        .add("sharing.copies_failed", report.copies_failed as f64);
    Out::Sharing {
        violations: violations + report.safety_violations,
        converged: quiesced && report.converged,
        report,
    }
}

fn run_volume(cx: &mut Cx, job: &VolumeJob) -> Out {
    let t = &mut cx.t;
    let mut vol = t.span("volume.build", || {
        Volume::new("vol", GlusterVersion::V3_3, 8, 2, 1 << 42, job.seed)
    });
    let path = |f: u32| format!("/corpus/f{f}");
    let mut latest: BTreeMap<u32, FileData> = BTreeMap::new();
    let (mut writes, mut failed, mut reads_failed) = (0u64, 0u64, 0u64);
    for (n, op) in job.ops.iter().enumerate() {
        match *op {
            VolOp::Write { file, size } => {
                let data = FileData::synthetic(size, job.seed ^ n as u64);
                let p = path(file);
                let ok = t
                    .span("volume.write", || vol.write(&p, data.clone(), "lab"))
                    .is_ok();
                writes += 1;
                if ok {
                    latest.insert(file, data);
                } else {
                    failed += 1;
                }
            }
            VolOp::Read { file } => {
                let p = path(file);
                reads_failed += t.span("volume.read", || vol.read(&p)).is_err() as u64;
            }
            VolOp::Fail(b) => t.span("volume.bricks", || vol.fail_brick(BrickId(b))),
            VolOp::Replace(b) => t.span("volume.bricks", || vol.replace_brick(BrickId(b))),
            VolOp::Offline(b) => t.span("volume.bricks", || vol.offline_brick(BrickId(b))),
            VolOp::Online(b) => t.span("volume.bricks", || vol.online_brick(BrickId(b))),
            VolOp::Heal => {
                t.span("volume.heal", || vol.heal());
            }
        }
    }
    cx.counts.add("volume.writes", writes as f64);
    cx.counts.add("volume.writes_failed", failed as f64);
    Out::Volume {
        volume: vol,
        latest,
        writes,
        failed,
        reads_failed,
    }
}

fn run_console(cx: &mut Cx, ops: &[ConsoleOp]) -> Out {
    const IDP: &str = "urn:mace:uchicago.edu:idp";
    const IDP_KEY: &[u8] = b"campus-signing-key";
    const OPENID: &str = "https://www.opensciencedatacloud.org/openid/";
    let t = &mut cx.t;
    let tele = cx.tele;
    let eppn = |u: usize| format!("user{u}@uchicago.edu");
    let openid_url = |u: usize| format!("{OPENID}user{u}");
    let (mut console, idp, openid) = t.span("console.build", || {
        let mut idp = ShibbolethIdp::new(IDP, IDP_KEY);
        let mut openid = OpenIdProvider::new(OPENID);
        let mut auth = AuthProxy::new();
        auth.trust_idp(IDP, IDP_KEY);
        auth.trust_openid(OPENID);
        let mut console = TukeyConsole::new(auth, osdc_proxy(2));
        console.set_telemetry(tele.clone());
        for u in 0..CONSOLE_USERS {
            // Even users sign in through Shibboleth, odd ones through OpenID.
            let id = if u % 2 == 0 {
                idp.register(&eppn(u), &[("displayName", "researcher")]);
                Identity {
                    canonical: format!("shib:{}", eppn(u)),
                }
            } else {
                openid.register(&openid_url(u), "pw");
                Identity {
                    canonical: format!("openid:{}", openid_url(u)),
                }
            };
            for (cloud, key) in [("adler", "AK"), ("sullivan", "SK")] {
                console.enroll(&id, CloudCredential::new(cloud, format!("u{u}"), key, key));
            }
        }
        (console, idp, openid)
    });
    let mut tokens: Vec<SessionToken> = vec![SessionToken(0); CONSOLE_USERS];
    let mut servers: Vec<Vec<(&'static str, u64)>> = vec![Vec::new(); CONSOLE_USERS];
    let mut transcript = String::new();
    let mut errors = 0u64;
    let mut now = SimTime::ZERO;
    let mut note = |transcript: &mut String, r: Result<String, String>| match r {
        Ok(s) => {
            transcript.push_str(&s);
            transcript.push('\n');
        }
        Err(e) => {
            errors += 1;
            transcript.push_str("error: ");
            transcript.push_str(&e);
            transcript.push('\n');
        }
    };
    for op in ops {
        now += SimDuration::from_secs(30);
        let r: Result<String, String> = t.span("console.call", || match *op {
            ConsoleOp::Login(u) => {
                let token = if u % 2 == 0 {
                    idp.assert(&eppn(u))
                        .map_err(|e| format!("{e:?}"))
                        .and_then(|a| console.login_shibboleth(&a).map_err(|e| format!("{e:?}")))
                } else {
                    console
                        .login_openid(&openid, &openid_url(u), "pw")
                        .map_err(|e| format!("{e:?}"))
                };
                token.map(|tk| {
                    tokens[u] = tk;
                    format!("login {u}")
                })
            }
            ConsoleOp::Launch {
                user,
                cloud,
                flavor,
                image,
            } => {
                let cloud = ["adler", "sullivan"][cloud as usize];
                let name = format!("vm{}", servers[user].len());
                console
                    .launch_instance(
                        tokens[user],
                        cloud,
                        &name,
                        FLAVORS[flavor as usize],
                        IMAGES[image as usize],
                        now,
                    )
                    .map_err(|e| format!("{e:?}"))
                    .map(|v| {
                        if let Some(id) = v["server"]["id"].as_u64() {
                            servers[user].push((cloud, id));
                        }
                        page_json(&v)
                    })
            }
            ConsoleOp::List(user) => console
                .instances_page(tokens[user], now)
                .map(|v| page_json(&v))
                .map_err(|e| format!("{e:?}")),
            ConsoleOp::Terminate { user, pick } => {
                if servers[user].is_empty() {
                    Ok("nothing to terminate".to_string())
                } else {
                    let at = (pick % servers[user].len() as u64) as usize;
                    let (cloud, id) = servers[user].remove(at);
                    console
                        .terminate_instance(tokens[user], cloud, id, now)
                        .map(|()| format!("terminated {cloud}/{id}"))
                        .map_err(|e| format!("{e:?}"))
                }
            }
            ConsoleOp::Usage(user) => console
                .usage_page(tokens[user])
                .map(|v| page_json(&v))
                .map_err(|e| format!("{e:?}")),
            ConsoleOp::Logout(user) => {
                console.logout(tokens[user]);
                Ok(format!("logout {user}"))
            }
        });
        note(&mut transcript, r);
    }
    cx.counts.add("console.calls", ops.len() as f64);
    cx.counts.add("console.errors", errors as f64);
    Out::Console { transcript, errors }
}

impl Workload for Federation {
    type Out = Out;
    // The outputs are small; the checks keep all of them.
    type Kept = Out;

    fn job_count(&self) -> usize {
        self.jobs.len()
    }

    fn kind(&self, i: usize) -> &'static str {
        match self.jobs[i] {
            Job::Campaign(_) => "campaign",
            Job::Router { .. } => "router",
            Job::Sharing(_) => "sharing",
            Job::Volume(_) => "volume",
            Job::Console(_) => "console",
        }
    }

    fn telemetry(&self) -> bool {
        true
    }

    fn run(&self, i: usize, cx: &mut Cx) -> Out {
        match &self.jobs[i] {
            Job::Campaign(cfg) => {
                let tele: &Telemetry = cx.tele;
                let card = cx.t.span("campaign.run", || run_campaign(cfg, tele));
                cx.counts.add("campaign.sim_min", cfg.duration_mins as f64);
                cx.counts
                    .add("campaign.faults_injected", card.faults_injected as f64);
                Out::Campaign(card)
            }
            Job::Router { mix, seed, ops } => run_router(cx, *mix, *seed, ops),
            Job::Sharing(job) => run_sharing(cx, job),
            Job::Volume(job) => run_volume(cx, job),
            Job::Console(ops) => run_console(cx, ops),
        }
    }

    fn settle(&self, _i: usize, out: Out) -> ([u8; 16], Out) {
        let mut h = Hash::default();
        match &out {
            Out::Campaign(card) => hash_scorecard(&mut h, card),
            Out::Router {
                digest,
                faults_failed,
            } => {
                h.u64(u64::from_le_bytes(digest[..8].try_into().expect("8 bytes")))
                    .u64(u64::from_le_bytes(digest[8..].try_into().expect("8 bytes")))
                    .u64(*faults_failed);
            }
            Out::Sharing {
                report: r,
                violations,
                converged,
            } => {
                h.u64(r.grants)
                    .u64(r.revokes)
                    .u64(r.rounds)
                    .u64(r.messages_delivered)
                    .u64(r.messages_buffered)
                    .u64(r.dtn_flushed)
                    .u64(r.records_converged)
                    .f64(r.convergence_p50_secs)
                    .f64(r.convergence_max_secs)
                    .u64(r.checks_allowed)
                    .u64(r.checks_denied)
                    .u64(r.copies)
                    .u64(r.copies_failed)
                    .u64(r.bytes_copied)
                    .u64(*violations)
                    .u64(*converged as u64);
            }
            Out::Volume {
                writes,
                failed,
                reads_failed,
                latest,
                ..
            } => {
                h.u64(*writes)
                    .u64(*failed)
                    .u64(*reads_failed)
                    .u64(latest.len() as u64);
            }
            Out::Console { transcript, errors } => {
                h.str(transcript).u64(*errors);
            }
        }
        (h.finish(), out)
    }

    fn check(&self, i: usize, kept: &Out) -> Result<(), String> {
        match (&self.jobs[i], kept) {
            (Job::Campaign(cfg), Out::Campaign(card)) => {
                let safe = cfg.gluster == GlusterVersion::V3_3
                    && matches!(cfg.retry, RetryPolicy::Exponential { .. });
                if safe && card.data_loss_incidents() != 0 {
                    return Err(format!(
                        "{} lost data: {} incidents",
                        card.config,
                        card.data_loss_incidents()
                    ));
                }
                Ok(())
            }
            (
                Job::Router { mix, seed, ops },
                Out::Router {
                    digest,
                    faults_failed,
                },
            ) => {
                if *faults_failed != 0 {
                    return Err(format!("{faults_failed} fault injections failed"));
                }
                let mut router =
                    FailoverRouter::new(osdc_fleet(MIXES[*mix], Telemetry::disabled(), *seed));
                let report = drive(&mut FailoverOracle::new(), &mut router, ops);
                if !report.is_clean() {
                    return Err(report.summary());
                }
                if router_digest(&router) != *digest {
                    return Err("the oracle replay ended in a different router state".into());
                }
                Ok(())
            }
            (
                Job::Sharing(_),
                Out::Sharing {
                    violations,
                    converged,
                    ..
                },
            ) => {
                if *violations != 0 || !converged {
                    return Err(format!(
                        "{violations} safety violations, converged: {converged}"
                    ));
                }
                Ok(())
            }
            (Job::Volume(_), Out::Volume { volume, latest, .. }) => {
                for (f, data) in latest {
                    match volume.read(&format!("/corpus/f{f}")) {
                        Ok((got, _)) if got == *data => {}
                        Ok(_) => return Err(format!("/corpus/f{f} reads back stale data")),
                        Err(e) => return Err(format!("/corpus/f{f} unreadable: {e:?}")),
                    }
                }
                Ok(())
            }
            (Job::Console(_), Out::Console { transcript, .. }) => {
                if transcript.is_empty() {
                    return Err("empty console transcript".into());
                }
                Ok(())
            }
            _ => Err("output of the wrong kind".into()),
        }
    }
}

/// The JSON a console page returns to the browser.
fn page_json(v: &serde_json::Value) -> String {
    serde_json::to_string(v).expect("console pages serialize")
}
