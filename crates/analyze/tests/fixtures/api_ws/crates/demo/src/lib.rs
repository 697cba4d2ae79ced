//! Fixture: what the API inventory lists, and its drift in both
//! directions (one item missing from the committed file, one stale).

pub mod shapes;
mod hidden;

pub use hidden::Reexported;

/// Listed: a crate-root fn.
pub fn root_fn() {}

pub(crate) fn crate_only() {}

#[cfg(test)]
pub fn test_only() {}

pub fn with_inner() {
    pub fn inner_is_not_api() {}
    inner_is_not_api();
}
