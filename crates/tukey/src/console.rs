//! The Tukey Console: the web application of §5.1, as a request router.
//!
//! "The Tukey Console is a web application based on Django and utilizes
//! the Tukey middleware to provide easy access to cloud services for
//! users... The core functionality of the web application is virtual
//! machine provisioning with usage and billing information. We have also
//! developed optional modules to provide web interfaces to other OSDC
//! capabilities," namely file-sharing management (§6.2) and public
//! dataset management (§6.3).
//!
//! One [`TukeyConsole`] owns the full middleware stack — auth proxy,
//! credential vault, translation proxy, billing, key service, catalog and
//! sharing service — and exposes one method per console page. Sessions
//! are token-based, as in the web app.

use std::collections::BTreeMap;

use osdc_sim::{SimDuration, SimTime};
use osdc_telemetry::{CounterId, HistogramId, LazyId, Telemetry};
use serde_json::{json, Value};

use crate::ark::ArkService;
use crate::auth::{Assertion, AuthError, AuthProxy, Identity, OpenIdProvider};
use crate::billing::{BillingService, Rates};
use crate::catalog::DatasetCatalog;
use crate::credentials::{CloudCredential, CredentialVault};
use crate::sharing::FileSharingService;
use crate::translation::{ProxyError, TranslationProxy};

/// An authenticated console session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionToken(pub u64);

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConsoleError {
    Auth(AuthError),
    InvalidSession,
    Proxy(ProxyError),
}

impl From<AuthError> for ConsoleError {
    fn from(e: AuthError) -> Self {
        ConsoleError::Auth(e)
    }
}
impl From<ProxyError> for ConsoleError {
    fn from(e: ProxyError) -> Self {
        ConsoleError::Proxy(e)
    }
}

/// The assembled OSDC user-facing stack (Figure 1).
pub struct TukeyConsole {
    pub auth: AuthProxy,
    pub vault: CredentialVault,
    pub proxy: TranslationProxy,
    pub billing: BillingService,
    pub arks: ArkService,
    pub catalog: DatasetCatalog,
    pub sharing: FileSharingService,
    sessions: BTreeMap<SessionToken, Identity>,
    /// Every identity ever enrolled — the population billing polls over.
    enrolled: Vec<Identity>,
    next_token: u64,
    tele: Telemetry,
    ids: ConsoleIds,
}

/// The console's metric ids, each interned on its first use.
#[derive(Default)]
struct ConsoleIds {
    requests: LazyId<CounterId>,
    request_latency_ms: LazyId<HistogramId>,
    errors: LazyId<CounterId>,
    logins: LazyId<CounterId>,
}

/// Modeled session-validation cost per console request (auth proxy hop).
const AUTH_LATENCY: SimDuration = SimDuration::from_millis(2);

impl TukeyConsole {
    pub fn new(auth: AuthProxy, proxy: TranslationProxy) -> Self {
        let arks = ArkService::new("31807", "b2");
        let catalog = DatasetCatalog::osdc_public_datasets(&arks);
        TukeyConsole {
            auth,
            vault: CredentialVault::new(),
            proxy,
            billing: BillingService::new(Rates::default()),
            arks,
            catalog,
            sharing: FileSharingService::new(),
            sessions: BTreeMap::new(),
            enrolled: Vec::new(),
            next_token: 1,
            tele: Telemetry::disabled(),
            ids: ConsoleIds::default(),
        }
    }

    /// Attach a telemetry handle. Console pages then emit request spans
    /// (console → auth → translation → aggregation) on the sim clock, and
    /// the translation proxy records per-cloud latency histograms.
    pub fn set_telemetry(&mut self, tele: Telemetry) {
        self.proxy.set_telemetry(tele.clone());
        self.tele = tele;
        self.ids = ConsoleIds::default();
    }

    /// Close out a traced console request: aggregation span, root span end,
    /// request counter and latency histogram.
    fn finish_request(
        &self,
        root: osdc_telemetry::SpanId,
        started: SimTime,
        after_translation: SimTime,
        items: usize,
    ) {
        if !self.tele.is_enabled() {
            return;
        }
        let agg = self.tele.span_start("aggregation", after_translation);
        let end = after_translation + SimDuration::from_millis(items as u64);
        self.tele.span_end(agg, end);
        self.tele.span_end(root, end);
        self.tele
            .incr(self.ids.requests.counter(&self.tele, || "tukey.requests"));
        self.tele.observe(
            self.ids
                .request_latency_ms
                .histogram(&self.tele, || "tukey.request_latency_ms"),
            end.saturating_since(started).as_secs_f64() * 1e3,
        );
    }

    /// Trace the auth hop of a request; on failure also close the root span
    /// and bump the error counter.
    fn traced_identity(
        &self,
        root: osdc_telemetry::SpanId,
        token: SessionToken,
        now: SimTime,
    ) -> Result<Identity, ConsoleError> {
        let auth = self.tele.span_start("auth/session", now);
        self.tele.span_end(auth, now + AUTH_LATENCY);
        match self.identity(token) {
            Ok(id) => Ok(id),
            Err(e) => {
                self.tele.span_end(root, now + AUTH_LATENCY);
                self.tele
                    .incr(self.ids.errors.counter(&self.tele, || "tukey.errors"));
                Err(e)
            }
        }
    }

    /// Administrative enrollment: bind cloud credentials to an identity.
    pub fn enroll(&mut self, id: &Identity, credential: CloudCredential) {
        self.vault.enroll(id, credential);
        if !self.enrolled.contains(id) {
            self.enrolled.push(id.clone());
        }
    }

    fn open_session(&mut self, id: Identity) -> SessionToken {
        let token = SessionToken(self.next_token.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.next_token += 1;
        self.sessions.insert(token, id);
        token
    }

    /// Log in with a Shibboleth assertion.
    pub fn login_shibboleth(
        &mut self,
        assertion: &Assertion,
    ) -> Result<SessionToken, ConsoleError> {
        let id = self.auth.login_shibboleth(assertion)?;
        self.tele
            .incr(self.ids.logins.counter(&self.tele, || "tukey.logins"));
        Ok(self.open_session(id))
    }

    /// Log in with an OpenID identifier.
    pub fn login_openid(
        &mut self,
        provider: &OpenIdProvider,
        identifier_url: &str,
        password: &str,
    ) -> Result<SessionToken, ConsoleError> {
        let id = self.auth.login_openid(provider, identifier_url, password)?;
        self.tele
            .incr(self.ids.logins.counter(&self.tele, || "tukey.logins"));
        Ok(self.open_session(id))
    }

    pub fn logout(&mut self, token: SessionToken) {
        self.sessions.remove(&token);
    }

    fn identity(&self, token: SessionToken) -> Result<Identity, ConsoleError> {
        self.sessions
            .get(&token)
            .cloned()
            .ok_or(ConsoleError::InvalidSession)
    }

    pub fn whoami(&self, token: SessionToken) -> Result<String, ConsoleError> {
        Ok(self.identity(token)?.canonical)
    }

    // ---- the instances page ------------------------------------------------

    /// Aggregated VM listing across all enrolled clouds (the landing page).
    pub fn instances_page(
        &mut self,
        token: SessionToken,
        now: SimTime,
    ) -> Result<Value, ConsoleError> {
        let root = self.tele.span_start("console/instances_page", now);
        let id = self.traced_identity(root, token, now)?;
        let page = self
            .proxy
            .list_servers(&self.vault, &id, now + AUTH_LATENCY);
        let after = now + AUTH_LATENCY + self.proxy.last_latency;
        let items = page["servers"].as_array().map(Vec::len).unwrap_or(0);
        self.finish_request(root, now, after, items);
        Ok(page)
    }

    pub fn launch_instance(
        &mut self,
        token: SessionToken,
        cloud: &str,
        name: &str,
        flavor: &str,
        image: &str,
        now: SimTime,
    ) -> Result<Value, ConsoleError> {
        let root = self.tele.span_start("console/launch_instance", now);
        let id = self.traced_identity(root, token, now)?;
        let result = self.proxy.boot_server(
            &self.vault,
            &id,
            cloud,
            name,
            flavor,
            image,
            now + AUTH_LATENCY,
        );
        match result {
            Ok(v) => {
                self.finish_request(root, now, now + AUTH_LATENCY + self.proxy.last_latency, 1);
                Ok(v)
            }
            Err(e) => {
                self.tele.span_end(root, now + AUTH_LATENCY);
                self.tele
                    .incr(self.ids.errors.counter(&self.tele, || "tukey.errors"));
                Err(e.into())
            }
        }
    }

    pub fn terminate_instance(
        &mut self,
        token: SessionToken,
        cloud: &str,
        server_id: u64,
        now: SimTime,
    ) -> Result<(), ConsoleError> {
        let root = self.tele.span_start("console/terminate_instance", now);
        let id = self.traced_identity(root, token, now)?;
        match self
            .proxy
            .delete_server(&self.vault, &id, cloud, server_id, now + AUTH_LATENCY)
        {
            Ok(()) => {
                self.finish_request(root, now, now + AUTH_LATENCY + self.proxy.last_latency, 1);
                Ok(())
            }
            Err(e) => {
                self.tele.span_end(root, now + AUTH_LATENCY);
                self.tele
                    .incr(self.ids.errors.counter(&self.tele, || "tukey.errors"));
                Err(e.into())
            }
        }
    }

    // ---- usage & billing page ------------------------------------------------

    /// "users can check their current usage via the OSDC web interface."
    pub fn usage_page(&self, token: SessionToken) -> Result<Value, ConsoleError> {
        let id = self.identity(token)?;
        let live = self.proxy.usage(&self.vault, &id);
        let cycle = self.billing.current_usage(&id.canonical);
        Ok(json!({
            "user": id.canonical,
            "live_cores_by_cloud": live,
            "cycle": {
                "core_hours": cycle.core_minutes / 60.0,
                "tb_days": cycle.tb_days,
                "peak_cores": cycle.peak_cores,
            }
        }))
    }

    /// The per-minute billing poll across every enrolled identity (§6.4),
    /// sampled at sim-time `now`. Duplicate ticks within one minute are
    /// absorbed by the billing dedup cursor.
    pub fn billing_minute_tick(&mut self, now: SimTime) {
        for id in &self.enrolled {
            let cores: u32 = self.proxy.usage(&self.vault, id).values().sum();
            self.billing.poll_compute(&id.canonical, cores, now);
        }
    }

    /// The daily storage sweep at sim-time `now`: callers supply
    /// per-identity stored bytes (volumes live outside the console).
    pub fn billing_daily_storage(&mut self, usage: &[(Identity, u64)], now: SimTime) {
        for (id, bytes) in usage {
            self.billing.sweep_storage(&id.canonical, *bytes, now);
        }
    }

    // ---- public data page ------------------------------------------------------

    pub fn datasets_page(&self, query: Option<&str>) -> Value {
        let records = match query {
            Some(q) => self.catalog.search(q),
            None => self.catalog.browse(),
        };
        json!({
            "datasets": records.iter().map(|r| json!({
                "ark": r.ark.to_uri(),
                "title": r.title,
                "discipline": r.discipline.label(),
                "size_tb": r.size_bytes as f64 / 1e12,
                "path": r.storage_path,
            })).collect::<Vec<_>>()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::ShibbolethIdp;
    use crate::translation::osdc_proxy;

    fn console_with_alice() -> (TukeyConsole, ShibbolethIdp) {
        let mut idp = ShibbolethIdp::new("urn:uchicago", b"key");
        idp.register("alice@uchicago.edu", &[("displayName", "Alice")]);
        let mut auth = AuthProxy::new();
        auth.trust_idp("urn:uchicago", b"key");
        let mut console = TukeyConsole::new(auth, osdc_proxy(1));
        let id = Identity {
            canonical: "shib:alice@uchicago.edu".into(),
        };
        console.enroll(&id, CloudCredential::new("adler", "alice", "K", "S"));
        console.enroll(&id, CloudCredential::new("sullivan", "alice", "K", "S"));
        (console, idp)
    }

    #[test]
    fn full_session_flow() {
        let (mut console, idp) = console_with_alice();
        let assertion = idp.assert("alice@uchicago.edu").expect("assert");
        let token = console.login_shibboleth(&assertion).expect("login");
        assert_eq!(
            console.whoami(token).expect("session valid"),
            "shib:alice@uchicago.edu"
        );
        // Launch on both clouds through one console.
        let t = SimTime::ZERO;
        console
            .launch_instance(token, "adler", "vm1", "m1.large", "bionimbus-genomics", t)
            .expect("launch adler");
        console
            .launch_instance(token, "sullivan", "vm2", "m1.small", "ubuntu-base", t)
            .expect("launch sullivan");
        let page = console.instances_page(token, t).expect("page");
        assert_eq!(page["servers"].as_array().expect("array").len(), 2);
        // Logout invalidates.
        console.logout(token);
        assert_eq!(
            console.whoami(token).unwrap_err(),
            ConsoleError::InvalidSession
        );
    }

    #[test]
    fn invalid_session_rejected_everywhere() {
        let (mut console, _) = console_with_alice();
        let bogus = SessionToken(42);
        assert!(console.instances_page(bogus, SimTime::ZERO).is_err());
        assert!(console.usage_page(bogus).is_err());
        assert!(console
            .launch_instance(
                bogus,
                "adler",
                "x",
                "m1.small",
                "ubuntu-base",
                SimTime::ZERO
            )
            .is_err());
    }

    #[test]
    fn billing_polls_accumulate_through_console() {
        let (mut console, idp) = console_with_alice();
        let token = console
            .login_shibboleth(&idp.assert("alice@uchicago.edu").expect("assert"))
            .expect("login");
        console
            .launch_instance(
                token,
                "adler",
                "vm",
                "m1.xlarge",
                "ubuntu-base",
                SimTime::ZERO,
            )
            .expect("launch");
        for m in 0..60 {
            console.billing_minute_tick(SimTime::ZERO + SimDuration::from_mins(m));
        }
        let usage = console.usage_page(token).expect("usage");
        assert!((usage["cycle"]["core_hours"].as_f64().expect("f64") - 8.0).abs() < 1e-9);
        assert_eq!(usage["live_cores_by_cloud"]["adler"], 8);
    }

    #[test]
    fn terminate_stops_billing() {
        let (mut console, idp) = console_with_alice();
        let token = console
            .login_shibboleth(&idp.assert("alice@uchicago.edu").expect("assert"))
            .expect("login");
        let resp = console
            .launch_instance(
                token,
                "adler",
                "vm",
                "m1.small",
                "ubuntu-base",
                SimTime::ZERO,
            )
            .expect("launch");
        let id = resp["server"]["id"].as_u64().expect("id");
        console.billing_minute_tick(SimTime::ZERO);
        console
            .terminate_instance(token, "adler", id, SimTime(60_000_000_000))
            .expect("terminate");
        console.billing_minute_tick(SimTime(60_000_000_000)); // no longer counted
        let usage = console.usage_page(token).expect("usage");
        let core_hours = usage["cycle"]["core_hours"].as_f64().expect("f64");
        assert!((core_hours - 1.0 / 60.0).abs() < 1e-9, "{core_hours}");
    }

    #[test]
    fn datasets_page_browses_and_searches() {
        let (console, _) = console_with_alice();
        let all = console.datasets_page(None);
        assert!(all["datasets"].as_array().expect("array").len() >= 12);
        let hits = console.datasets_page(Some("genomes"));
        assert_eq!(hits["datasets"].as_array().expect("array").len(), 1);
        assert!(hits["datasets"][0]["ark"]
            .as_str()
            .expect("ark string")
            .starts_with("ark:/31807/"));
    }

    #[test]
    fn telemetry_traces_request_pipeline() {
        let (mut console, idp) = console_with_alice();
        let tele = Telemetry::new();
        console.set_telemetry(tele.clone());
        let token = console
            .login_shibboleth(&idp.assert("alice@uchicago.edu").expect("assert"))
            .expect("login");
        let t = SimTime::ZERO;
        console
            .launch_instance(token, "adler", "vm1", "m1.large", "bionimbus-genomics", t)
            .expect("launch");
        console
            .launch_instance(token, "sullivan", "vm2", "m1.small", "ubuntu-base", t)
            .expect("launch");
        console.instances_page(token, t).expect("page");
        assert_eq!(tele.counter_value("tukey.logins"), 1);
        assert_eq!(tele.counter_value("tukey.requests"), 3);
        assert_eq!(tele.counter_value("tukey.errors"), 0);
        // Per-cloud latency histograms: adler saw 2 calls (launch + list),
        // sullivan likewise.
        let snaps = tele.histograms_snapshot();
        for cloud in ["adler", "sullivan"] {
            let h = snaps
                .iter()
                .find(|h| h.name == format!("tukey.cloud.{cloud}.latency_ms"))
                .unwrap_or_else(|| panic!("latency histogram for {cloud}"));
            assert_eq!(h.count, 2, "{cloud}");
        }
        // The request pipeline is fully spanned.
        let jsonl = tele.export_jsonl();
        for name in [
            "console/launch_instance",
            "console/instances_page",
            "auth/session",
            "translation/adler",
            "translation/sullivan",
            "aggregation",
        ] {
            assert!(jsonl.contains(name), "missing span {name}");
        }
        // Errors land in the error counter and still close the root span.
        assert!(console.instances_page(SessionToken(9), t).is_err());
        assert_eq!(tele.counter_value("tukey.errors"), 1);
    }

    #[test]
    fn cloud_added_mid_run_records_lazily() {
        use crate::translation::CloudMapping;
        use osdc_compute::CloudController;

        let (mut console, idp) = console_with_alice();
        let tele = Telemetry::new();
        console.set_telemetry(tele.clone());
        let token = console
            .login_shibboleth(&idp.assert("alice@uchicago.edu").expect("assert"))
            .expect("login");
        let t = SimTime::ZERO;
        console.instances_page(token, t).expect("page");

        // A third cloud joins the federation after telemetry is live —
        // the console must keep serving and start recording it.
        let mapping = CloudMapping::from_json(
            r#"{"cloud": "root", "kind": "OpenStack",
                "image_aliases": {"ubuntu-base": 1}}"#,
        )
        .expect("parses");
        console
            .proxy
            .add_backend(mapping, CloudController::with_racks("root", 1));
        let id = Identity {
            canonical: "shib:alice@uchicago.edu".into(),
        };
        console.enroll(&id, CloudCredential::new("root", "alice", "K", "S"));
        console
            .launch_instance(token, "root", "vm-r", "m1.small", "ubuntu-base", t)
            .expect("launch on the new cloud");
        console.instances_page(token, t).expect("page");

        let snaps = tele.histograms_snapshot();
        let h = snaps
            .iter()
            .find(|h| h.name == "tukey.cloud.root.latency_ms")
            .expect("lazily-registered histogram for the mid-run cloud");
        assert_eq!(h.count, 2, "launch + list both recorded");
    }

    #[test]
    fn storage_sweep_reaches_invoices() {
        let (mut console, _) = console_with_alice();
        let id = Identity {
            canonical: "shib:alice@uchicago.edu".into(),
        };
        for d in 0..30 {
            console.billing_daily_storage(
                &[(id.clone(), 5_000_000_000_000)],
                SimTime::ZERO + SimDuration::from_days(d),
            );
        }
        let invoices = console.billing.close_month();
        assert_eq!(invoices.len(), 1);
        assert!((invoices[0].tb_days - 150.0).abs() < 1e-9);
    }
}
