//! `tc-store`: a multi-threaded replicated object store with **timed
//! consistency** levels — the deployable artifact of the PODC '99
//! reproduction.
//!
//! Replicas are OS threads holding full copies of the keyspace, connected
//! by FIFO channels. Writes are hybrid-logical-clock-stamped, applied
//! locally and gossiped with causal dependencies; heartbeats carry
//! *freshness watermarks*. A read under `TimedCausal(Δ)` or
//! `TimedSerial(Δ)` is served only once the replica has provably received
//! everything older than `now − Δ` — the store-level realization of the
//! paper's requirement that a write at time `t` be visible everywhere by
//! `t + Δ`. `Causal` is the Δ = ∞ endpoint, `Linearizable` the Δ = 0 one
//! (Figure 4b's spectrum as a runtime knob).
//!
//! Time is injectable ([`Clock`]): production uses [`SystemClock`], tests
//! drive a [`ManualClock`] plus an artificial gossip delay to make
//! staleness observable and deterministic.
//!
//! ```
//! use tc_clocks::Delta;
//! use tc_store::{ConsistencyLevel, TimedStore};
//!
//! let store = TimedStore::builder()
//!     .replicas(2)
//!     .level(ConsistencyLevel::Causal)
//!     .build();
//! let mut alice = store.handle(0);
//! let mut bob = store.handle(1);
//! alice.write("doc", "v1")?;
//! // Bob's causal read may still see the old state, but Bob's *session*
//! // never goes backwards once it has seen v1.
//! let _ = bob.read("doc")?;
//! store.shutdown();
//! # Ok::<(), tc_store::StoreError>(())
//! ```

// `deny`, not `forbid`: the reactor's epoll binding (`reactor::sys`) is
// the one scoped, checked-return exception — it opts in with a
// module-level `allow`, which `forbid` would make impossible.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod clock;
pub mod geo;
mod jitter;
mod level;
pub mod reactor;
mod replica;
pub mod runtime;
mod store;

pub use clock::{Clock, ManualClock, SystemClock};
pub use geo::{run_threaded_geo, GeoRuntimeConfig};
pub use level::ConsistencyLevel;
pub use reactor::{
    run_reactor, run_reactor_with, Backoff, ConnectionChurn, ListenerChaos, ReactorConfig,
};
pub use replica::{StoreMetrics, StoreMetricsSnapshot};
pub use runtime::{run_threaded, LatencySummary, RuntimeConfig, RuntimeResult, MONITOR_SLACK};
pub use store::{Builder, StoreError, StoreHandle, TimedStore};
