//! Offline stand-in for `crossbeam`. `gremlin-proxy` lists the crate
//! as a dependency but names nothing from it, so this is empty.
