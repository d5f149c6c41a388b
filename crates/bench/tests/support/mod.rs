//! Set-up shared by the integration tests that run sweeps.

/// Point the artifact cache at a directory under the build's scratch
/// space. A sweep stores every cell it executes and these tests read
/// none back, so the cells belong there and not in the checkout; the
/// synthesized traces stay warm across runs.
pub fn cache_outside_the_checkout() {
    sprout_cache::set_dir(concat!(env!("CARGO_TARGET_TMPDIR"), "/sprout-cache"));
}
