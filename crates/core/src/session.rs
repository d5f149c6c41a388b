//! Multi-session state for a Sprout server process.
//!
//! One server process terminating N independent Sprout sessions keeps the
//! per-session protocol state deliberately thin: the expensive, immutable
//! forecast-table dynamic program is shared behind one
//! [`Arc<ForecastTables>`] by every session on the same link
//! configuration (the [`table_memory_counters`] amortization counters
//! prove the sharing — one `built`, N−1 `reused` per link group), and so
//! is the [`TransitionKernel`] every session's model evolves through
//! (a tick reads its ≈ 30 KB of edge rows and one 59-weight band at
//! paper scale; one copy per session would push every other session's
//! out of L1). The Poisson likelihood vectors are memoised per thread
//! (see [`RateModel::observe_exposed`]), and so is the evolve's masked
//! copy of the posterior, so sessions share those too. Each session owns only what actually
//! differs per user: its [`SproutEndpoint`] state machine (whose
//! forecaster carries its own posterior and `ForecastScratch`) and its
//! [`EndpointStats`]. A session's RNG sub-streams (loss, impairment) are
//! the caller's: they derive from `(cell_seed, session_id)` via
//! [`sprout_trace::session_seed`].
//!
//! The pool holds its endpoints in one column indexed by a dense session
//! index, plus the `session_id → index` demux map.
//!
//! [`table_memory_counters`]: crate::forecast::table_memory_counters
//! [`RateModel::observe_exposed`]: crate::model::RateModel::observe_exposed

use std::collections::HashMap;
use std::sync::Arc;

use crate::config::SproutConfig;
use crate::endpoint::{EndpointStats, SproutEndpoint};
use crate::forecast::ForecastTables;
use crate::forecaster::BayesianForecaster;
use crate::model::TransitionKernel;
use sprout_sim::FlowId;

/// A pool of independent Sprout sessions sharing one forecast-table
/// build.
///
/// A pool belongs to exactly one cell (one `cell_seed`): session identity
/// is `(cell_seed, session_id)`, and [`SessionPool::add_session`] asserts
/// a session id is never added twice, so two sessions with the same
/// identity — and therefore the same derived RNG sub-stream — cannot
/// coexist.
pub struct SessionPool {
    cfg: SproutConfig,
    /// The cell this pool belongs to, named by the duplicate-session panic.
    cell_seed: u64,
    /// The shared immutable forecast tables and transition kernel,
    /// captured from the first session's forecaster; every later session
    /// must share these exact allocations (asserted in `add_session`).
    shared: Option<(Arc<ForecastTables>, Arc<TransitionKernel>)>,
    /// Per-session protocol state machines, by dense index.
    endpoints: Vec<SproutEndpoint>,
    /// Demux map: session id → dense index.
    index: HashMap<u32, usize>,
}

impl SessionPool {
    /// Empty pool for one cell's sessions. `cfg` is the shared link/model
    /// configuration; all sessions added later share its table build.
    pub fn new(cfg: SproutConfig, cell_seed: u64) -> Self {
        cfg.validate();
        SessionPool {
            cfg,
            cell_seed,
            shared: None,
            endpoints: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Add the server half of session `session_id` and return its dense
    /// index. The endpoint's forecaster goes through the global table
    /// cache, so the first session in a fresh link group *builds* the
    /// tables and every subsequent one *reuses* them.
    ///
    /// # Panics
    ///
    /// Panics if `session_id` already exists in this pool: session
    /// identity is `(cell_seed, session_id)`, and duplicating it would
    /// alias one RNG sub-stream across two live sessions.
    pub fn add_session(&mut self, session_id: u32) -> usize {
        let idx = self.endpoints.len();
        assert!(
            self.index.insert(session_id, idx).is_none(),
            "duplicate session: (cell_seed={}, session_id={session_id}) already exists",
            self.cell_seed
        );
        let forecaster = BayesianForecaster::new(self.cfg.clone());
        let kernel = forecaster.model().kernel();
        match &self.shared {
            None => self.shared = Some((Arc::clone(forecaster.tables()), Arc::clone(kernel))),
            Some((tables, shared_kernel)) => {
                assert!(
                    Arc::ptr_eq(tables, forecaster.tables()),
                    "session {session_id} built a second forecast table for one link group"
                );
                assert!(
                    Arc::ptr_eq(shared_kernel, kernel),
                    "session {session_id} built a second transition kernel for one link group"
                );
            }
        }
        let mut endpoint = SproutEndpoint::with_forecaster(Box::new(forecaster));
        endpoint.set_flow(FlowId(session_id));
        self.endpoints.push(endpoint);
        idx
    }

    /// Number of sessions in the pool.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// True when the pool holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// The shared table handle (`None` until the first session is added).
    pub fn tables(&self) -> Option<&Arc<ForecastTables>> {
        self.shared.as_ref().map(|(tables, _)| tables)
    }

    /// The shared transition kernel (`None` until the first session is
    /// added).
    pub fn kernel(&self) -> Option<&Arc<TransitionKernel>> {
        self.shared.as_ref().map(|(_, kernel)| kernel)
    }

    /// Dense index of `session_id`, if present.
    pub fn index_of(&self, session_id: u32) -> Option<usize> {
        self.index.get(&session_id).copied()
    }

    /// Mutable access to the session endpoint at dense index `idx`.
    pub fn endpoint_mut(&mut self, idx: usize) -> &mut SproutEndpoint {
        &mut self.endpoints[idx]
    }

    /// Endpoint counters of the session at dense index `idx`.
    pub fn stats(&self, idx: usize) -> EndpointStats {
        self.endpoints[idx].stats()
    }

    /// Size of the *per-session* structs: the endpoint and forecaster
    /// structs plus this pool's demux-map entry. The heap buffers those
    /// structs own (posterior, model scratch, forecast scratch — a few KB
    /// at paper scale) are not counted. Shared state — per geometry the
    /// forecast tables and the transition kernel, per thread the
    /// likelihood memo and the evolve's masked source copy — is
    /// deliberately excluded: it does not scale with
    /// N, which is the point. The benchmark reports it as
    /// `core.session_bytes`.
    pub fn approx_session_bytes(&self) -> usize {
        std::mem::size_of::<SproutEndpoint>()
            + std::mem::size_of::<BayesianForecaster>()
            // HashMap entry: key + value + bucket overhead (~1.1 factor
            // rounded up to whole words).
            + 3 * std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_share_one_table_build() {
        let mut cfg = SproutConfig::test_small();
        cfg.max_rate_pps = 203.0; // a geometry of this test's own
        let mut pool = SessionPool::new(cfg, 42);
        for sid in 0..8 {
            pool.add_session(sid);
        }
        assert_eq!(pool.len(), 8);
        // One allocation, held by the pool, its 8 forecasters and the
        // cache: one build, which the other seven sessions reused. The
        // counters are pinned by `memo::tests` (a block of its own) and
        // sprout-bench's `tests/serve.rs` (under its lock).
        assert_eq!(Arc::strong_count(pool.tables().expect("has sessions")), 10);
    }

    #[test]
    fn sessions_share_one_kernel_allocation() {
        let mut cfg = SproutConfig::test_small();
        cfg.max_rate_pps = 207.0; // a geometry of this test's own
        let mut pool = SessionPool::new(cfg, 42);
        for sid in 0..8 {
            pool.add_session(sid);
        }
        // Held by the pool, the 8 sessions' models and the cache.
        assert_eq!(Arc::strong_count(pool.kernel().expect("has sessions")), 10);
    }

    #[test]
    fn index_of_maps_session_ids_to_dense_indices() {
        let mut pool = SessionPool::new(SproutConfig::test_small(), 7);
        pool.add_session(3);
        pool.add_session(11);
        assert_eq!(pool.index_of(3), Some(0));
        assert_eq!(pool.index_of(11), Some(1));
        assert_eq!(pool.index_of(4), None);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate session")]
    fn duplicate_session_identity_is_rejected() {
        let mut pool = SessionPool::new(SproutConfig::test_small(), 7);
        pool.add_session(5);
        pool.add_session(5);
    }
}
