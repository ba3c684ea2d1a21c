//! Budget-ledger telemetry handles.
//!
//! Only a ledger marked [`observed`](crate::composition::BudgetLedger::observed)
//! reports here — the *authoritative* cross-release ledger a service
//! owns. Scratch ledgers (one-shot callers, tests) stay silent, so the
//! global spend series counts each expenditure exactly once.
//!
//! | series | type | meaning |
//! |---|---|---|
//! | `dpsan_budget_spends_total` | counter | entries appended to an observed ledger |
//! | `dpsan_budget_refusals_total` | counter | batches refused by the lifetime cap |
//! | `dpsan_budget_epsilon_spent` | gauge | composed ε of the observed ledger |
//! | `dpsan_budget_delta_spent` | gauge | composed δ of the observed ledger |
//! | `dpsan_budget_epsilon_remaining` | gauge | lifetime ε still available (capped ledgers) |
//! | `dpsan_budget_delta_remaining` | gauge | lifetime δ still available (capped ledgers) |

use dpsan_obs::{global, Counter, Gauge};
use std::sync::OnceLock;

/// Entries appended to an observed ledger.
pub fn spends_total() -> &'static Counter {
    static H: OnceLock<Counter> = OnceLock::new();
    H.get_or_init(|| global().counter("dpsan_budget_spends_total"))
}

/// Spends refused by the lifetime cap.
pub fn refusals_total() -> &'static Counter {
    static H: OnceLock<Counter> = OnceLock::new();
    H.get_or_init(|| global().counter("dpsan_budget_refusals_total"))
}

/// Composed ε spent on the observed ledger.
pub fn epsilon_spent() -> &'static Gauge {
    static H: OnceLock<Gauge> = OnceLock::new();
    H.get_or_init(|| global().gauge("dpsan_budget_epsilon_spent"))
}

/// Composed δ spent on the observed ledger.
pub fn delta_spent() -> &'static Gauge {
    static H: OnceLock<Gauge> = OnceLock::new();
    H.get_or_init(|| global().gauge("dpsan_budget_delta_spent"))
}

/// Lifetime ε still available on the observed capped ledger.
pub fn epsilon_remaining() -> &'static Gauge {
    static H: OnceLock<Gauge> = OnceLock::new();
    H.get_or_init(|| global().gauge("dpsan_budget_epsilon_remaining"))
}

/// Lifetime δ still available on the observed capped ledger.
pub fn delta_remaining() -> &'static Gauge {
    static H: OnceLock<Gauge> = OnceLock::new();
    H.get_or_init(|| global().gauge("dpsan_budget_delta_remaining"))
}
