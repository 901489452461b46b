//! Controller-side helpers for editing binding tables.
//!
//! The paper's runtime-tuning mechanism: "controllers can adjust at
//! runtime the tracked distributions without recompiling the P4
//! application, by modifying the content of Stat4's binding tables."
//! These helpers construct the [`RuntimeRequest`]s for the case-study
//! app's drill-down table; the `anomaly` crate's controller sends them
//! over the (latency-modelled) control channel.

use crate::casestudy::CaseStudyHandles;
use p4sim::table::{Entry, MatchValue};
use p4sim::RuntimeRequest;
use std::net::Ipv4Addr;

/// Key for a `prefix/len` binding entry.
#[must_use]
pub fn prefix_key(prefix: Ipv4Addr, len: u8) -> Vec<MatchValue> {
    vec![MatchValue::Lpm {
        value: u64::from(u32::from(prefix)),
        prefix_len: len,
    }]
}

/// Builds the request binding `prefix/len` to `group` within the
/// drill-down distribution at `slot`.
#[must_use]
pub fn bind_prefix_h(
    h: &CaseStudyHandles,
    prefix: Ipv4Addr,
    len: u8,
    slot: usize,
    group: u64,
) -> RuntimeRequest {
    let base = h.params.config.base(slot) as u64;
    RuntimeRequest::InsertEntry {
        table: h.drill_table,
        entry: Entry {
            key: prefix_key(prefix, len),
            priority: i32::from(len),
            action: h.track_group_action,
            action_data: vec![base, slot as u64, group],
        },
    }
}

/// Builds the requests that wipe the drill-down distribution's state so
/// a re-bound table starts from a clean slate (the controller sends
/// these together with the new bindings).
#[must_use]
pub fn reset_distribution_h(h: &CaseStudyHandles) -> Vec<RuntimeRequest> {
    vec![
        RuntimeRequest::ResetRegister {
            register: h.counters_reg,
        },
        RuntimeRequest::ResetRegister { register: h.n_reg },
        RuntimeRequest::ResetRegister {
            register: h.xsum_reg,
        },
        RuntimeRequest::ResetRegister {
            register: h.xsumsq_reg,
        },
        RuntimeRequest::ResetRegister {
            register: h.suppress_reg,
        },
    ]
}

/// Builds the request clearing every binding entry.
#[must_use]
pub fn clear_bindings_h(h: &CaseStudyHandles) -> RuntimeRequest {
    RuntimeRequest::ClearTable {
        table: h.drill_table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::casestudy::{CaseStudyApp, CaseStudyParams};

    #[test]
    fn bind_adds_an_entry() {
        let mut app = CaseStudyApp::build(CaseStudyParams::default()).unwrap();
        let p = Ipv4Addr::new(10, 0, 5, 0);
        let req = bind_prefix_h(&app.handles, p, 24, 0, 5);
        assert!(app.pipeline.runtime(&req).is_ok());
        assert_eq!(app.pipeline.tables()[app.handles.drill_table].entries().len(), 1);
    }

    #[test]
    fn reset_distribution_zeroes_registers() {
        let mut app = CaseStudyApp::build(CaseStudyParams::default()).unwrap();
        app.pipeline.runtime(&RuntimeRequest::WriteRegister {
            register: app.handles.counters_reg,
            index: 7,
            value: 9,
        });
        for req in reset_distribution_h(&app.handles) {
            assert!(app.pipeline.runtime(&req).is_ok());
        }
        assert_eq!(app.pipeline.registers()[app.handles.counters_reg].cells[7], 0);
    }

    #[test]
    fn clear_bindings_empties_table() {
        let mut app = CaseStudyApp::build(CaseStudyParams::default()).unwrap();
        for g in 0..3 {
            let req = bind_prefix_h(&app.handles, Ipv4Addr::new(10, 0, g, 0), 24, 0, u64::from(g));
            app.pipeline.runtime(&req);
        }
        app.pipeline.runtime(&clear_bindings_h(&app.handles));
        assert!(app.pipeline.tables()[app.handles.drill_table].entries().is_empty());
    }
}
