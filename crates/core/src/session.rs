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
//! forecaster carries its own posterior and `ForecastScratch`), its RNG
//! sub-stream seed derived from `(cell_seed, session_id)` via
//! [`sprout_trace::session_seed`], and its [`EndpointStats`].
//!
//! The pool is laid out struct-of-arrays: parallel `ids` / `seeds` /
//! `endpoints` columns indexed by a dense session index, so the server's
//! event loop iterates hot columns (wakeups, stats) without striding over
//! cold protocol state.
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
use sprout_trace::session_seed;

/// The per-session state of one Sprout session inside a pool, borrowed by
/// dense index. Everything here is *per user*; everything shared lives
/// once on the [`SessionPool`].
pub struct SessionRef<'a> {
    /// The wire-visible session id (also the packet [`FlowId`]).
    pub id: u32,
    /// This session's RNG sub-stream seed, `session_seed(cell_seed, id)`.
    pub seed: u64,
    /// The session's protocol state machine.
    pub endpoint: &'a mut SproutEndpoint,
}

/// A struct-of-arrays pool of independent Sprout sessions sharing one
/// forecast-table build.
///
/// A pool belongs to exactly one cell (one `cell_seed`): session identity
/// is `(cell_seed, session_id)`, and [`SessionPool::add_session`] asserts
/// a session id is never added twice, so two sessions with the same
/// identity — and therefore the same derived RNG sub-stream — cannot
/// coexist.
pub struct SessionPool {
    cfg: SproutConfig,
    cell_seed: u64,
    /// The shared immutable forecast tables and transition kernel,
    /// captured from the first session's forecaster; every later session
    /// must share these exact allocations (asserted in `add_session`).
    shared: Option<(Arc<ForecastTables>, Arc<TransitionKernel>)>,
    /// SoA column: wire-visible session ids, by dense index.
    ids: Vec<u32>,
    /// SoA column: per-session RNG sub-stream seeds, by dense index.
    seeds: Vec<u64>,
    /// SoA column: per-session protocol state machines, by dense index.
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
            ids: Vec::new(),
            seeds: Vec::new(),
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
        let idx = self.ids.len();
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
        let mut endpoint = SproutEndpoint::with_forecaster(self.cfg.clone(), Box::new(forecaster));
        endpoint.set_flow(FlowId(session_id));
        self.ids.push(session_id);
        self.seeds.push(session_seed(self.cell_seed, session_id));
        self.endpoints.push(endpoint);
        idx
    }

    /// Number of sessions in the pool.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the pool holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The cell seed all session sub-streams derive from.
    pub fn cell_seed(&self) -> u64 {
        self.cell_seed
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

    /// The wire-visible session id at dense index `idx`.
    pub fn session_id(&self, idx: usize) -> u32 {
        self.ids[idx]
    }

    /// The RNG sub-stream seed of the session at dense index `idx`.
    pub fn session_seed(&self, idx: usize) -> u64 {
        self.seeds[idx]
    }

    /// Mutable access to the session endpoint at dense index `idx`.
    pub fn endpoint_mut(&mut self, idx: usize) -> &mut SproutEndpoint {
        &mut self.endpoints[idx]
    }

    /// Borrow session `idx` as one logical record across the SoA columns.
    pub fn session_mut(&mut self, idx: usize) -> SessionRef<'_> {
        SessionRef {
            id: self.ids[idx],
            seed: self.seeds[idx],
            endpoint: &mut self.endpoints[idx],
        }
    }

    /// Endpoint counters of the session at dense index `idx`.
    pub fn stats(&self, idx: usize) -> EndpointStats {
        self.endpoints[idx].stats()
    }

    /// Size of the *per-session* structs: the endpoint and forecaster
    /// structs plus this pool's SoA slots. The heap buffers those structs
    /// own (posterior, model scratch, forecast scratch — a few KB at
    /// paper scale) are not counted. Shared state — per geometry the
    /// forecast tables and the transition kernel, per thread the
    /// likelihood memo and the evolve's masked source copy — is
    /// deliberately excluded: it does not scale with
    /// N, which is the point. The benchmark reports it as
    /// `core.session_bytes`.
    pub fn approx_session_bytes(&self) -> usize {
        std::mem::size_of::<SproutEndpoint>()
            + std::mem::size_of::<BayesianForecaster>()
            + std::mem::size_of::<u32>()
            + std::mem::size_of::<u64>()
            // HashMap entry: key + value + bucket overhead (~1.1 factor
            // rounded up to whole words).
            + 3 * std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecast::table_memory_counters;

    /// A geometry no other test in this binary uses, so the first
    /// `ForecastTables::get` in this test is a genuine in-memory build.
    fn unique_cfg() -> SproutConfig {
        let mut cfg = SproutConfig::test_small();
        cfg.max_rate_pps = 203.0;
        cfg
    }

    #[test]
    fn sessions_share_one_table_build() {
        // The counters are process-wide and the other tests of this binary
        // fetch tables on their own threads: hold those fetches back so
        // the deltas below are this pool's alone.
        let _alone = crate::forecast::fetch_gate::exclusive();
        let before = table_memory_counters();
        let mut pool = SessionPool::new(unique_cfg(), 42);
        for sid in 0..8 {
            pool.add_session(sid);
        }
        let d = table_memory_counters().since(before);
        assert_eq!(d.built, 1, "one build per link group");
        assert_eq!(d.reused, 7, "N-1 reuses per link group");
        assert_eq!(pool.len(), 8);
        // One allocation, held by the pool, its 8 forecasters and the cache.
        assert_eq!(Arc::strong_count(pool.tables().expect("has sessions")), 10);
    }

    #[test]
    fn sessions_share_one_kernel_allocation() {
        // Exclusive, so no concurrent test's geometries can evict this
        // one's cache entry (and its handle) between the adds and the count.
        let _alone = crate::forecast::fetch_gate::exclusive();
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
    fn pool_columns_align_and_seeds_derive_from_identity() {
        let mut pool = SessionPool::new(SproutConfig::test_small(), 7);
        pool.add_session(3);
        pool.add_session(11);
        assert_eq!(pool.index_of(11), Some(1));
        assert_eq!(pool.index_of(4), None);
        assert_eq!(pool.session_id(1), 11);
        assert_eq!(pool.session_seed(1), sprout_trace::session_seed(7, 11));
        assert_eq!(pool.session_mut(0).id, 3);
    }

    #[test]
    #[should_panic(expected = "duplicate session")]
    fn duplicate_session_identity_is_rejected() {
        let mut pool = SessionPool::new(SproutConfig::test_small(), 7);
        pool.add_session(5);
        pool.add_session(5);
    }
}
