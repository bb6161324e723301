// Lint-scoping fixture (never compiled): a member crate, so line 6 trips
// no-timing-outside-obs and line 7 trips no-panic-ratchet.
use std::time::Instant;

pub fn risky(v: Option<u32>) -> u32 {
    let _t = Instant::now();
    v.unwrap()
}
