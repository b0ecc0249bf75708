//! The provider registry: descriptors, pricing, health gates, metering.
//!
//! Every canonical call enters through [`ProviderRegistry::call`], which
//! meters it (per-call fee, telemetry counters, latency model) and rolls
//! the chaos dice for the target's [`ApiHealth`] before the provider
//! sees it. Injected faults reproduce the ugly parts of real federation
//! outages: an *outage* fails fast, a *timeout* may or may not have
//! executed the request (the lost-response case that breeds orphans),
//! and an *error* is a clean failure.

use std::collections::BTreeMap;

use osdc_sim::{SimDuration, SimRng, SimTime, TenantId, TenantInterner, TenantStore};
use osdc_telemetry::{CounterId, HistogramId, LazyId, Telemetry};

use crate::canonical::{AliasTables, CanonicalRequest, CanonicalResponse, ProviderError};
use crate::pricing::PricingCatalog;
use crate::provider::{CapabilityDescriptor, Provider};

/// Injected API-plane health for one provider (driven by osdc-chaos).
#[derive(Clone, Debug, PartialEq)]
pub struct ApiHealth {
    /// Endpoint down: every call fails fast with [`ProviderError::Outage`].
    pub outage: bool,
    /// Probability a call hangs to the client timeout.
    pub timeout_prob: f64,
    /// Given a timeout, probability the backend executed the request
    /// anyway (the response was lost, not the work).
    pub lost_response_prob: f64,
    /// Probability of a clean injected API error.
    pub error_prob: f64,
    /// How long a timed-out call holds the caller.
    pub timeout: SimDuration,
}

impl Default for ApiHealth {
    fn default() -> Self {
        ApiHealth {
            outage: false,
            timeout_prob: 0.0,
            lost_response_prob: 0.5,
            error_prob: 0.0,
            timeout: SimDuration::from_secs(30),
        }
    }
}

impl ApiHealth {
    /// No fault injection active.
    pub fn is_clear(&self) -> bool {
        !self.outage && self.timeout_prob == 0.0 && self.error_prob == 0.0
    }
}

/// Metered totals for one provider.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProviderUsage {
    pub calls: u64,
    pub errors: u64,
    pub timeouts: u64,
    pub lost_responses: u64,
    pub launches: u64,
    pub terminates: u64,
    pub core_minutes: f64,
    pub compute_usd: f64,
    pub api_usd: f64,
}

impl ProviderUsage {
    pub fn total_usd(&self) -> f64 {
        self.compute_usd + self.api_usd
    }
}

/// Usage and cost accounting across the federation — the feed that
/// flows into billing.
///
/// Per-user cost sits in an interned-id slab ([`TenantStore`]): the
/// provider population is a handful of `BTreeMap` entries, but users
/// number 10⁵+ at ROADMAP scale and are touched every accrual minute —
/// after a user's first charge, [`UsageLedger::accrue_compute`] does no
/// string cloning or tree walking on their account.
#[derive(Clone, Debug, Default)]
pub struct UsageLedger {
    per_provider: BTreeMap<String, ProviderUsage>,
    /// user → accrued compute dollars (all providers), keyed by
    /// interned id.
    users: TenantInterner,
    per_user_usd: TenantStore<f64>,
}

impl UsageLedger {
    pub fn provider(&self, name: &str) -> ProviderUsage {
        self.per_provider.get(name).cloned().unwrap_or_default()
    }

    pub fn provider_mut(&mut self, name: &str) -> &mut ProviderUsage {
        self.per_provider.entry(name.to_string()).or_default()
    }

    pub fn providers(&self) -> impl Iterator<Item = (&String, &ProviderUsage)> {
        self.per_provider.iter()
    }

    pub fn user_usd(&self, user: &str) -> f64 {
        self.users
            .get(user)
            .and_then(|id| self.per_user_usd.get(id).copied())
            .unwrap_or(0.0)
    }

    /// Interned id for `user`, if the ledger has ever charged them.
    pub fn user_id(&self, user: &str) -> Option<TenantId> {
        self.users.get(user)
    }

    /// Every charged user in first-charge order.
    pub fn users(&self) -> impl Iterator<Item = (&str, f64)> {
        self.per_user_usd
            .iter()
            .map(|(id, &usd)| (self.users.name(id), usd))
    }

    /// Charge `user` for `cores` on `provider` for one minute at
    /// `rate_per_core_hour`.
    pub fn accrue_compute(&mut self, provider: &str, user: &str, cores: u32, rate: f64) {
        let id = self.users.intern(user);
        self.accrue_compute_id(provider, id, cores, rate);
    }

    /// [`accrue_compute`](Self::accrue_compute) by interned id — the
    /// zero-alloc hot path for callers that cache [`TenantId`]s.
    pub fn accrue_compute_id(&mut self, provider: &str, user: TenantId, cores: u32, rate: f64) {
        let usd = cores as f64 * rate / 60.0;
        let p = self.provider_mut(provider);
        p.core_minutes += cores as f64;
        p.compute_usd += usd;
        *self.per_user_usd.get_or_insert_with(user, || 0.0) += usd;
    }

    pub fn total_usd(&self) -> f64 {
        self.per_provider.values().map(|p| p.total_usd()).sum()
    }
}

struct Entry {
    provider: Box<dyn Provider>,
    catalog: PricingCatalog,
    health: ApiHealth,
    ids: ProviderIds,
}

/// One provider's `providers.<name>.*` metric ids, each interned the first
/// time `call` records it.
#[derive(Default)]
struct ProviderIds {
    calls: LazyId<CounterId>,
    errors: LazyId<CounterId>,
    lost_responses: LazyId<CounterId>,
    timeouts: LazyId<CounterId>,
    latency_ms: LazyId<HistogramId>,
}

/// The pluggable provider runtime's front door.
pub struct ProviderRegistry {
    entries: Vec<Entry>,
    /// Fixed at construction: the entries' cached metric ids belong to it.
    pub(crate) tele: Telemetry,
    rng: SimRng,
    ledger: UsageLedger,
    last_latency: SimDuration,
}

impl ProviderRegistry {
    pub fn new(tele: Telemetry, seed: u64) -> Self {
        ProviderRegistry {
            entries: Vec::new(),
            tele,
            rng: SimRng::new(seed),
            ledger: UsageLedger::default(),
            last_latency: SimDuration::ZERO,
        }
    }

    pub fn register(&mut self, provider: Box<dyn Provider>, catalog: PricingCatalog) {
        debug_assert_eq!(
            provider.name(),
            catalog.provider,
            "catalog/provider mismatch"
        );
        self.entries.push(Entry {
            provider,
            catalog,
            health: ApiHealth::default(),
            ids: ProviderIds::default(),
        });
    }

    fn entry(&self, name: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.provider.name() == name)
    }

    fn entry_mut(&mut self, name: &str) -> Option<&mut Entry> {
        self.entries.iter_mut().find(|e| e.provider.name() == name)
    }

    /// Registered provider names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|e| e.provider.name().to_string())
            .collect()
    }

    pub fn descriptor(&self, name: &str) -> Option<CapabilityDescriptor> {
        self.entry(name).map(|e| e.provider.descriptor())
    }

    pub fn catalog(&self, name: &str) -> Option<&PricingCatalog> {
        self.entry(name).map(|e| &e.catalog)
    }

    pub fn aliases(&self, name: &str) -> Option<&AliasTables> {
        self.entry(name).map(|e| e.provider.aliases())
    }

    pub fn health(&self, name: &str) -> Option<&ApiHealth> {
        self.entry(name).map(|e| &e.health)
    }

    /// Mutate one provider's injected health (the chaos hook).
    pub fn set_health(&mut self, name: &str, f: impl FnOnce(&mut ApiHealth)) -> bool {
        match self.entry_mut(name) {
            Some(e) => {
                f(&mut e.health);
                true
            }
            None => false,
        }
    }

    pub fn spot_price(&self, name: &str) -> Option<f64> {
        self.entry(name).and_then(|e| e.provider.spot_price())
    }

    /// Run one provider's encode→decode fidelity probe.
    pub fn roundtrip_request(
        &self,
        name: &str,
        req: &CanonicalRequest,
    ) -> Option<Result<CanonicalRequest, ProviderError>> {
        self.entry(name).map(|e| e.provider.roundtrip_request(req))
    }

    /// Simulated wall-clock cost of the most recent `call`.
    pub fn last_latency(&self) -> SimDuration {
        self.last_latency
    }

    pub fn ledger(&self) -> &UsageLedger {
        &self.ledger
    }

    pub fn ledger_mut(&mut self) -> &mut UsageLedger {
        &mut self.ledger
    }

    /// Omniscient backend view of one provider, for audits and accrual.
    pub fn ground_truth(&self, name: &str) -> Vec<(String, crate::canonical::InstanceRecord)> {
        self.entry(name)
            .map(|e| e.provider.ground_truth())
            .unwrap_or_default()
    }

    /// Advance provider-internal processes (spot walks, preemptions).
    pub fn tick_all(&mut self, now: SimTime) {
        for e in &mut self.entries {
            e.provider.tick(now);
        }
    }

    /// Meter, gate, translate, execute one canonical call.
    pub fn call(
        &mut self,
        name: &str,
        user: &str,
        req: &CanonicalRequest,
        now: SimTime,
    ) -> Result<CanonicalResponse, ProviderError> {
        let idx = self
            .entries
            .iter()
            .position(|e| e.provider.name() == name)
            .ok_or_else(|| ProviderError::UnknownProvider(name.to_string()))?;
        let entry = &mut self.entries[idx];
        let pname = entry.provider.name().to_string();
        let desc = entry.provider.descriptor();
        let ids = &entry.ids;
        let metric = |m: &str| format!("providers.{pname}.{m}");

        self.tele
            .incr(ids.calls.counter(&self.tele, || metric("calls")));
        {
            let usage = self.ledger.provider_mut(&pname);
            usage.calls += 1;
            usage.api_usd += entry.catalog.per_call_usd;
        }

        // Chaos gate, in severity order: outage, timeout, clean error.
        if entry.health.outage {
            self.last_latency = SimDuration::ZERO;
            self.tele
                .incr(ids.errors.counter(&self.tele, || metric("errors")));
            self.ledger.provider_mut(&pname).errors += 1;
            return Err(ProviderError::Outage { provider: pname });
        }
        if entry.health.timeout_prob > 0.0 && self.rng.chance(entry.health.timeout_prob) {
            let lost_response = self.rng.chance(entry.health.lost_response_prob);
            if lost_response {
                // The backend did the work; only the reply is lost.
                let _ = entry.provider.call(user, req, now);
                self.tele.incr(
                    ids.lost_responses
                        .counter(&self.tele, || metric("lost_responses")),
                );
                self.ledger.provider_mut(&pname).lost_responses += 1;
            }
            self.last_latency = entry.health.timeout;
            self.tele
                .incr(ids.timeouts.counter(&self.tele, || metric("timeouts")));
            self.ledger.provider_mut(&pname).timeouts += 1;
            return Err(ProviderError::Timeout { provider: pname });
        }
        if entry.health.error_prob > 0.0 && self.rng.chance(entry.health.error_prob) {
            self.last_latency = desc.api_latency;
            self.tele
                .incr(ids.errors.counter(&self.tele, || metric("errors")));
            self.ledger.provider_mut(&pname).errors += 1;
            return Err(ProviderError::Api { provider: pname });
        }

        let result = entry.provider.call(user, req, now);

        // Latency: one round trip, or one per page for paged listings.
        let pages = match (&desc.page_size, req) {
            (Some(size), CanonicalRequest::ListInstances) => match &result {
                Ok(CanonicalResponse::Instances(recs)) => recs.len().div_ceil(*size).max(1),
                _ => 1,
            },
            _ => 1,
        };
        self.last_latency = desc.api_latency * pages as u64;
        let hist = ids
            .latency_ms
            .histogram(&self.tele, || metric("latency_ms"));
        self.tele
            .observe(hist, self.last_latency.as_nanos() as f64 / 1.0e6);

        match &result {
            Ok(_) => {
                let usage = self.ledger.provider_mut(&pname);
                match req {
                    CanonicalRequest::LaunchInstance { .. } => usage.launches += 1,
                    CanonicalRequest::TerminateInstance { .. } => usage.terminates += 1,
                    _ => {}
                }
            }
            Err(_) => {
                self.tele
                    .incr(ids.errors.counter(&self.tele, || metric("errors")));
                self.ledger.provider_mut(&pname).errors += 1;
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::CanonicalStatus;
    use crate::provider::ClassicProvider;
    use osdc_compute::cloud::CloudController;

    fn aliases() -> AliasTables {
        let mut t = AliasTables::default();
        t.flavors.insert("small".into(), "m1.small".into());
        t.images.insert("ubuntu-base".into(), 1);
        t
    }

    fn registry() -> ProviderRegistry {
        let mut r = ProviderRegistry::new(Telemetry::new(), 0x9e67);
        let cats = crate::pricing::osdc_default_catalogs();
        r.register(
            Box::new(ClassicProvider::openstack(
                "adler",
                CloudController::with_racks("adler", 1),
                aliases(),
            )),
            cats[0].clone(),
        );
        r.register(
            Box::new(ClassicProvider::eucalyptus(
                "sullivan",
                CloudController::with_racks("sullivan", 1),
                aliases(),
            )),
            cats[1].clone(),
        );
        r
    }

    fn launch(name: &str) -> CanonicalRequest {
        CanonicalRequest::LaunchInstance {
            name: name.into(),
            flavor: "small".into(),
            image: 1,
        }
    }

    #[test]
    fn call_meters_and_executes() {
        let mut r = registry();
        let resp = r
            .call("adler", "alice", &launch("vm1"), SimTime::ZERO)
            .expect("launches");
        let CanonicalResponse::Launched(rec) = resp else {
            panic!()
        };
        assert_eq!(rec.status, CanonicalStatus::Active);
        let usage = r.ledger().provider("adler");
        assert_eq!(usage.calls, 1);
        assert_eq!(usage.launches, 1);
        assert!(usage.api_usd > 0.0);
        assert_eq!(r.last_latency(), SimDuration::from_millis(35));
        assert_eq!(r.tele.counter_value("providers.adler.calls"), 1);
        assert!(matches!(
            r.call("nimbus9", "alice", &launch("x"), SimTime::ZERO),
            Err(ProviderError::UnknownProvider(_))
        ));
    }

    #[test]
    fn outage_gate_fails_fast() {
        let mut r = registry();
        assert!(r.set_health("sullivan", |h| h.outage = true));
        let err = r
            .call("sullivan", "alice", &launch("vm1"), SimTime::ZERO)
            .expect_err("down");
        assert!(matches!(err, ProviderError::Outage { .. }));
        assert!(r.ground_truth("sullivan").is_empty(), "nothing executed");
        assert_eq!(r.ledger().provider("sullivan").errors, 1);
        r.set_health("sullivan", |h| h.outage = false);
        r.call("sullivan", "alice", &launch("vm1"), SimTime(1))
            .expect("healed");
    }

    #[test]
    fn timeout_can_lose_the_response_but_do_the_work() {
        let mut r = registry();
        r.set_health("adler", |h| {
            h.timeout_prob = 1.0;
            h.lost_response_prob = 1.0;
        });
        let err = r
            .call("adler", "alice", &launch("vm1"), SimTime::ZERO)
            .expect_err("times out");
        assert!(matches!(err, ProviderError::Timeout { .. }));
        assert_eq!(r.last_latency(), SimDuration::from_secs(30));
        // The launch actually happened: a future reconcile must find it.
        assert_eq!(r.ground_truth("adler").len(), 1, "orphan exists");
        let usage = r.ledger().provider("adler");
        assert_eq!((usage.timeouts, usage.lost_responses), (1, 1));
    }

    #[test]
    fn paged_listings_charge_per_page() {
        let mut r = ProviderRegistry::new(Telemetry::new(), 1);
        let mut cat = crate::pricing::osdc_default_catalogs()[4].clone();
        cat.provider = "pagely".into();
        r.register(
            Box::new(crate::paged::PagedProvider::new(
                "pagely",
                CloudController::with_racks("pagely", 1),
                aliases(),
                2,
            )),
            cat,
        );
        for i in 0..5 {
            r.call("pagely", "alice", &launch(&format!("vm{i}")), SimTime(i))
                .expect("launches");
        }
        r.call(
            "pagely",
            "alice",
            &CanonicalRequest::ListInstances,
            SimTime(9),
        )
        .expect("lists");
        // 5 instances / page size 2 → 3 pages → 3 × 30ms.
        assert_eq!(r.last_latency(), SimDuration::from_millis(90));
    }
}
