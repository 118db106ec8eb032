//! Empty on purpose: see this package's manifest.
