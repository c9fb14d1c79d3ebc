//! Named physical costs charged by the substrates.
//!
//! §5.1 of the paper: "Disk I/Os and network round trips are the decisive
//! factors" behind the order-of-magnitude latency differences between lock
//! implementations. The substrates charge these costs at exactly the points
//! where the real systems pay them:
//!
//! * the KV client charges `kv_round_trip` once per command;
//! * the SQL session charges `sql_round_trip` once per statement issued by a
//!   remote client;
//! * a durable commit charges `durable_flush` (the `DB` lock's table write),
//!   in its WAL sync when the database logs, at commit otherwise;
//! * the service front door charges `service_round_trip` once per request.

use crate::clock::Clock;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Cost constants for one deployment scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// One application-server → Redis → application-server round trip.
    pub kv_round_trip: Duration,
    /// One application-server → RDBMS → application-server round trip.
    pub sql_round_trip: Duration,
    /// Synchronous log/data flush performed by a durable commit.
    pub durable_flush: Duration,
    /// One client → application-service → client request round trip (the
    /// wire cost in front of any substrate work the handler then performs).
    pub service_round_trip: Duration,
}

impl LatencyModel {
    /// All costs zero: unit tests that only care about interleavings.
    pub fn zero() -> Self {
        Self {
            kv_round_trip: Duration::ZERO,
            sql_round_trip: Duration::ZERO,
            durable_flush: Duration::ZERO,
            service_round_trip: Duration::ZERO,
        }
    }

    /// The deployment the paper evaluates: applications, Redis and the RDBMS
    /// on separate machines connected by a 1 Gbit/s LAN, RDBMS flushing to
    /// disk on commit. Round trips are a few hundred microseconds and a
    /// durable flush costs milliseconds; these match the bands visible in
    /// the paper's Figure 2 (in-memory locks ≪ 1 µs, KV/SFU locks around a
    /// millisecond, DB-table lock tens of milliseconds).
    pub fn paper() -> Self {
        Self {
            kv_round_trip: Duration::from_micros(250),
            sql_round_trip: Duration::from_micros(300),
            durable_flush: Duration::from_millis(10),
            service_round_trip: Duration::from_micros(500),
        }
    }

    /// Charge a cost onto a clock (blocking or advancing virtual time).
    pub fn charge(&self, clock: &dyn Clock, cost: Cost) {
        let d = self.duration_of(cost);
        if !d.is_zero() {
            clock.sleep(d);
        }
    }

    /// Look up the duration of a named cost.
    pub fn duration_of(&self, cost: Cost) -> Duration {
        match cost {
            Cost::KvRoundTrip => self.kv_round_trip,
            Cost::SqlRoundTrip => self.sql_round_trip,
            Cost::ServiceRoundTrip => self.service_round_trip,
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::zero()
    }
}

/// The named cost categories charged by substrates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cost {
    /// One application ↔ KV-store network round trip.
    KvRoundTrip,
    /// One application ↔ RDBMS network round trip.
    SqlRoundTrip,
    /// One client ↔ application-service request round trip.
    ServiceRoundTrip,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    #[test]
    fn paper_model_orders_costs_as_figure2_expects() {
        let m = LatencyModel::paper();
        assert!(m.kv_round_trip < m.durable_flush);
        assert!(m.sql_round_trip < m.durable_flush);
        // The flush is at least an order of magnitude above a round trip.
        assert!(m.durable_flush >= m.sql_round_trip * 10);
    }

    #[test]
    fn charge_advances_virtual_clock() {
        let clock = VirtualClock::new();
        let m = LatencyModel::paper();
        m.charge(&clock, Cost::KvRoundTrip);
        assert_eq!(clock.now(), m.kv_round_trip);
        m.charge(&clock, Cost::SqlRoundTrip);
        assert_eq!(clock.now(), m.kv_round_trip + m.sql_round_trip);
    }

    #[test]
    fn zero_model_charges_nothing() {
        let clock = VirtualClock::new();
        let m = LatencyModel::zero();
        for c in [
            Cost::KvRoundTrip,
            Cost::SqlRoundTrip,
            Cost::ServiceRoundTrip,
        ] {
            m.charge(&clock, c);
        }
        assert_eq!(clock.now(), Duration::ZERO);
    }
}
