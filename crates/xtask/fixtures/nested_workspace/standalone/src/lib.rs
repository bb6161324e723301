// Lint-scoping fixture (never compiled): the same violations as the
// member crate, inside a nested workspace the lint must skip.
use std::time::Instant;

pub fn risky(v: Option<u32>) -> u32 {
    let _t = Instant::now();
    v.unwrap()
}
