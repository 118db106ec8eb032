//! Per-thread probability sampling for rule matching.
//!
//! The rule table used to draw every coin flip from one global
//! `Mutex<StdRng>`, serializing all proxy worker threads on the data
//! plane's hottest path. Here each `(thread, table)` pair owns an
//! independent SplitMix64 stream, so sampling is lock-free. Streams
//! are seeded from the table's seed; the first thread to touch a
//! table (in practice: single-threaded tests and benchmarks) gets a
//! fully reproducible sequence for a given [`RuleTable::with_seed`]
//! value, while additional threads mix in a per-thread salt so their
//! draws stay decorrelated.
//!
//! [`RuleTable::with_seed`]: crate::RuleTable::with_seed

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use gremlin_store::Name;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

static NEXT_THREAD_SALT: AtomicU64 = AtomicU64::new(0);
static NEXT_STREAM_ID: AtomicU64 = AtomicU64::new(0);
static SEED_NONCE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Unique per-thread salt; 0 for the first thread that samples.
    static THREAD_SALT: u64 = NEXT_THREAD_SALT.fetch_add(1, Ordering::Relaxed);
    /// Per-table SplitMix64 states owned by this thread.
    static STREAMS: RefCell<HashMap<u64, u64>> = RefCell::new(HashMap::new());
    /// Independent per-thread stream for span-ID minting.
    static SPAN_STATE: Cell<u64> = Cell::new(entropy_seed());
}

/// One SplitMix64 step (Steele, Lea & Flood; the `java.util` seeder).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Allocates a process-unique stream ID; each `RuleTable` takes one so
/// per-thread states of different tables never collide.
pub(crate) fn next_stream_id() -> u64 {
    NEXT_STREAM_ID.fetch_add(1, Ordering::Relaxed)
}

/// An entropy seed for tables created without [`with_seed`].
///
/// [`with_seed`]: crate::RuleTable::with_seed
pub(crate) fn entropy_seed() -> u64 {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .as_nanos() as u64;
    let mut state = nanos
        ^ SEED_NONCE
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_mul(GOLDEN);
    splitmix64(&mut state)
}

/// Mints a span identifier: 64 bits from this thread's dedicated
/// SplitMix64 stream, rendered as 16 lowercase hex digits
/// (Dapper/Zipkin convention). Lock-free; never blocks.
pub(crate) fn mint_span_id() -> Name {
    let id = SPAN_STATE.with(|state| {
        let mut s = state.get();
        let id = splitmix64(&mut s);
        state.set(s);
        id
    });
    // Rendered on the stack: this runs once per proxied call.
    let mut hex = [0u8; 16];
    for (place, digit) in hex.iter_mut().rev().enumerate() {
        *digit = b"0123456789abcdef"[(id >> (4 * place)) as usize & 0xf];
    }
    Name::from(std::str::from_utf8(&hex).expect("hex digits are ASCII"))
}

/// Draws one Bernoulli sample with the given probability from this
/// thread's stream for `(stream, seed)`. Lock-free; never blocks.
pub(crate) fn flip(stream: u64, seed: u64, probability: f64) -> bool {
    if probability <= 0.0 {
        return false;
    }
    if probability >= 1.0 {
        return true;
    }
    let sample = STREAMS.with(|streams| {
        let mut streams = streams.borrow_mut();
        let state = streams.entry(stream).or_insert_with(|| {
            let salt = THREAD_SALT.with(|salt| *salt);
            seed ^ salt.wrapping_mul(GOLDEN)
        });
        splitmix64(state)
    });
    // Top 53 bits -> uniform f64 in [0, 1).
    let unit = (sample >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    unit < probability
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_probabilities_never_sample() {
        let stream = next_stream_id();
        for _ in 0..100 {
            assert!(!flip(stream, 1, 0.0));
            assert!(flip(stream, 1, 1.0));
        }
        assert!(!flip(stream, 1, -0.5));
        assert!(flip(stream, 1, 1.5));
        assert!(!flip(stream, 1, f64::NAN)); // NaN comparisons are false
    }

    #[test]
    fn fraction_of_heads_tracks_probability() {
        let stream = next_stream_id();
        let heads = (0..10_000).filter(|_| flip(stream, 42, 0.5)).count();
        assert!((4_000..6_000).contains(&heads), "heads {heads}/10000");
        let rare = (0..10_000).filter(|_| flip(stream, 42, 0.05)).count();
        assert!((200..900).contains(&rare), "rare {rare}/10000");
    }

    #[test]
    fn same_seed_same_thread_reproduces() {
        let a: Vec<bool> = {
            let stream = next_stream_id();
            (0..64).map(|_| flip(stream, 7, 0.5)).collect()
        };
        let b: Vec<bool> = {
            let stream = next_stream_id();
            (0..64).map(|_| flip(stream, 7, 0.5)).collect()
        };
        assert_eq!(a, b);
        let c: Vec<bool> = {
            let stream = next_stream_id();
            (0..64).map(|_| flip(stream, 8, 0.5)).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn span_ids_are_hex_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1_000 {
            let id = mint_span_id();
            assert_eq!(id.len(), 16, "span id {id:?}");
            assert!(id.bytes().all(|b| b.is_ascii_hexdigit()));
            assert!(seen.insert(id), "duplicate span id");
        }
    }

    #[test]
    fn span_ids_render_as_zero_padded_lowercase_hex() {
        for _ in 0..1_000 {
            let id = mint_span_id();
            let value = u64::from_str_radix(&id, 16).unwrap();
            assert_eq!(id.as_str(), format!("{value:016x}"));
        }
    }

    #[test]
    fn streams_do_not_interfere() {
        let s1 = next_stream_id();
        let s2 = next_stream_id();
        // Interleaving draws from a second stream must not disturb the
        // first stream's sequence.
        let interleaved: Vec<bool> = (0..64)
            .map(|_| {
                let _ = flip(s2, 99, 0.5);
                flip(s1, 7, 0.5)
            })
            .collect();
        let alone: Vec<bool> = {
            let s = next_stream_id();
            (0..64).map(|_| flip(s, 7, 0.5)).collect()
        };
        assert_eq!(interleaved, alone);
    }
}
