//! Service counters and per-tenant accounting.
//!
//! One lock over two sorted maps: the `serve.*` counters the `status`
//! request reports — a [`charm_obs::Counters`], the same counter
//! vocabulary a campaign's report uses — and the per-tenant state the
//! admission path charges: concurrent-job count plus a rolling window
//! of admitted plan rows. Everything here is bookkeeping about the
//! *service*; the scientific counters of a campaign stay in its own
//! `charm_obs` report.

use crate::protocol::RejectReason;
use charm_obs::Counters;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-tenant quota limits, fixed at server start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Quotas {
    /// Maximum jobs a tenant may have queued or running at once.
    pub max_jobs: u64,
    /// Maximum plan rows a tenant may admit per window.
    pub max_rows: u64,
    /// Length of the rolling row-budget window.
    pub window: Duration,
}

#[derive(Debug, Default)]
struct Tenant {
    accepted: u64,
    rejected: u64,
    /// Jobs currently queued or running.
    active: u64,
    /// Rows admitted recently: `(when, rows)`, pruned past the window.
    admitted: VecDeque<(Instant, u64)>,
}

impl Tenant {
    fn rows_in_window(&mut self, window: Duration, now: Instant) -> u64 {
        while let Some(&(t, _)) = self.admitted.front() {
            if now.duration_since(t) > window {
                self.admitted.pop_front();
            } else {
                break;
            }
        }
        self.admitted.iter().map(|&(_, r)| r).sum()
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: Counters,
    tenants: BTreeMap<String, Tenant>,
}

/// The service's counter and quota state. All methods take `&self`;
/// one internal mutex keeps the two maps consistent.
#[derive(Debug, Default)]
pub struct Metrics {
    inner: Mutex<Inner>,
}

impl Metrics {
    /// A fresh, all-zero metric set.
    pub(crate) fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `n` to the counter `key`.
    pub(crate) fn bump(&self, key: &str, n: u64) {
        self.inner.lock().unwrap().counters.add(key, n);
    }

    /// Current value of `key` (zero if never touched).
    pub fn get(&self, key: &str) -> u64 {
        self.inner.lock().unwrap().counters.get(key)
    }

    /// Charges a rejection to `tenant` and the matching
    /// `serve.rejected.*` counter.
    pub(crate) fn reject(&self, tenant: &str, reason: RejectReason) {
        let mut inner = self.inner.lock().unwrap();
        inner.counters.add_owned(format!("serve.rejected.{reason}"), 1);
        inner.tenants.entry(tenant.to_string()).or_default().rejected += 1;
    }

    /// Tries to admit a `rows`-row job for `tenant` under `quotas`:
    /// checks the rolling row budget first, then the concurrent-job
    /// cap. On success the tenant is charged (active job + window
    /// rows) atomically; on failure nothing changes and the limiting
    /// quota's rejection reason is returned.
    pub(crate) fn try_admit(
        &self,
        tenant: &str,
        rows: u64,
        quotas: &Quotas,
    ) -> Result<(), RejectReason> {
        let now = Instant::now();
        let mut inner = self.inner.lock().unwrap();
        let t = inner.tenants.entry(tenant.to_string()).or_default();
        if t.rows_in_window(quotas.window, now) + rows > quotas.max_rows {
            return Err(RejectReason::QuotaRows);
        }
        if t.active >= quotas.max_jobs {
            return Err(RejectReason::QuotaJobs);
        }
        t.active += 1;
        t.accepted += 1;
        t.admitted.push_back((now, rows));
        inner.counters.add("serve.accepted", 1);
        Ok(())
    }

    /// Reverses a [`Metrics::try_admit`] whose job never made it onto
    /// the queue (admission lost the race to a full queue).
    pub(crate) fn rollback_admit(&self, tenant: &str) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(t) = inner.tenants.get_mut(tenant) {
            t.active = t.active.saturating_sub(1);
            t.accepted = t.accepted.saturating_sub(1);
            t.admitted.pop_back();
        }
        inner.counters.sub("serve.accepted", 1);
    }

    /// Releases an admitted job's concurrency slot (the run finished,
    /// failed, or was cancelled). The window rows stay charged — they
    /// were admitted.
    pub(crate) fn job_finished(&self, tenant: &str) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(t) = inner.tenants.get_mut(tenant) {
            t.active = t.active.saturating_sub(1);
        }
    }

    /// A sorted snapshot of the counters and per-tenant tallies, in the
    /// shape the `status` response carries.
    #[allow(clippy::type_complexity)]
    pub(crate) fn snapshot(&self) -> (Vec<(String, u64)>, Vec<(String, Vec<(String, u64)>)>) {
        let now = Instant::now();
        let mut inner = self.inner.lock().unwrap();
        let counters: Vec<(String, u64)> =
            inner.counters.iter().map(|(k, v)| (k.to_string(), v)).collect();
        let mut tenants = Vec::new();
        let window = Duration::from_secs(u64::MAX / 2); // snapshot never prunes
        for (name, t) in inner.tenants.iter_mut() {
            let rows = t.rows_in_window(window, now);
            tenants.push((
                name.clone(),
                vec![
                    ("accepted".to_string(), t.accepted),
                    ("active".to_string(), t.active),
                    ("rejected".to_string(), t.rejected),
                    ("window_rows".to_string(), rows),
                ],
            ));
        }
        (counters, tenants)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quotas(max_jobs: u64, max_rows: u64) -> Quotas {
        Quotas { max_jobs, max_rows, window: Duration::from_secs(60) }
    }

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.bump("serve.connections", 1);
        m.bump("serve.connections", 2);
        assert_eq!(m.get("serve.connections"), 3);
        assert_eq!(m.get("serve.never"), 0);
    }

    #[test]
    fn job_quota_caps_concurrency() {
        let m = Metrics::new();
        let q = quotas(2, 1000);
        assert!(m.try_admit("t", 10, &q).is_ok());
        assert!(m.try_admit("t", 10, &q).is_ok());
        assert_eq!(m.try_admit("t", 10, &q), Err(RejectReason::QuotaJobs));
        // another tenant is unaffected
        assert!(m.try_admit("u", 10, &q).is_ok());
        m.job_finished("t");
        assert!(m.try_admit("t", 10, &q).is_ok());
    }

    #[test]
    fn row_quota_caps_window_volume() {
        let m = Metrics::new();
        let q = quotas(100, 50);
        assert!(m.try_admit("t", 30, &q).is_ok());
        assert_eq!(m.try_admit("t", 30, &q), Err(RejectReason::QuotaRows));
        assert!(m.try_admit("t", 20, &q).is_ok());
        // finished jobs free the concurrency slot but not the window rows
        m.job_finished("t");
        m.job_finished("t");
        assert_eq!(m.try_admit("t", 1, &q), Err(RejectReason::QuotaRows));
    }

    #[test]
    fn rollback_undoes_an_admission() {
        let m = Metrics::new();
        let q = quotas(1, 100);
        assert!(m.try_admit("t", 60, &q).is_ok());
        m.rollback_admit("t");
        assert_eq!(m.get("serve.accepted"), 0);
        // both the slot and the rows are free again
        assert!(m.try_admit("t", 60, &q).is_ok());
    }

    #[test]
    fn snapshot_reports_tenants_sorted() {
        let m = Metrics::new();
        let q = quotas(10, 1000);
        m.try_admit("beta", 5, &q).unwrap();
        m.try_admit("alpha", 7, &q).unwrap();
        m.reject("alpha", RejectReason::QueueFull);
        let (counters, tenants) = m.snapshot();
        assert!(counters.iter().any(|(k, v)| k == "serve.accepted" && *v == 2));
        assert!(counters.iter().any(|(k, v)| k == "serve.rejected.queue_full" && *v == 1));
        let names: Vec<&str> = tenants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "beta"]);
        let alpha = &tenants[0].1;
        assert!(alpha.contains(&("accepted".to_string(), 1)));
        assert!(alpha.contains(&("rejected".to_string(), 1)));
        assert!(alpha.contains(&("window_rows".to_string(), 7)));
    }
}
