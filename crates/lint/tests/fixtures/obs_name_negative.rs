//! Fixture: registry-conformant obs names — nothing here may trip
//! `obs-name-prefix`.

pub fn emit(v: u64) {
    nashdb_obs::record("routing.fast_path", v);
    nashdb_obs::counter_add("fragment.splits", 1);
    nashdb_obs::gauge_set("packing.bins", v);
    nashdb_obs::record_duration("perf.routing.incremental_ns", v);
    let _g = nashdb_obs::span("pipeline");
    let _h = nashdb_obs::span("replication");
    // Slash-joined paths are snapshot lookups, not creation sites.
    let _s = lookup_span("pipeline/reconfigure/scheme");
}

fn lookup_span(_path: &str) {}
