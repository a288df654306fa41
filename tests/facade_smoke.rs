//! Workspace smoke test: every subsystem the `cheetah` facade re-exports
//! must be reachable under its facade name, and a minimal end-to-end call
//! through each must work. This is the test that catches a facade/manifest
//! wiring regression before anything subtler does.

use cheetah::algorithms::analysis;
use cheetah::db::{Cluster, DataType, DbQuery, ExecBackend, TableBuilder, Value};
use cheetah::net::{AckPacket, AckSource, Packet};
use cheetah::switch::{ResourceLedger, SwitchProfile};
use cheetah::workloads::Zipf;

#[test]
fn switch_reexport_is_reachable() {
    let ledger = ResourceLedger::new(SwitchProfile::tofino1());
    // A fresh ledger must expose the paper's stage budget.
    assert!(ledger.profile().stages > 0);
}

#[test]
fn algorithms_reexport_is_reachable() {
    // Lambert-W at 0 is 0; at e it is 1 (§5's space optimization uses it).
    assert!(analysis::lambert_w(0.0).abs() < 1e-9);
    assert!((analysis::lambert_w(std::f64::consts::E) - 1.0).abs() < 1e-6);
}

#[test]
fn db_reexport_runs_a_query() {
    let mut b = TableBuilder::new(
        "products",
        vec![("seller".into(), DataType::Str), ("price".into(), DataType::Int)],
        2,
    );
    for (s, p) in [("a", 1), ("b", 2), ("a", 3)] {
        b.push_row(vec![Value::Str(s.into()), Value::Int(p)]);
    }
    let table = b.build();
    let cluster = Cluster::default();
    let q = DbQuery::Distinct { col: 0 };
    let base = cluster.run_baseline(&q, &table, None);
    let chee = cluster.run_cheetah(&q, &table, None, ExecBackend::Interpreted).expect("plan fits");
    assert_eq!(base.output, chee.output);
}

#[test]
fn net_reexport_roundtrips_a_packet() {
    let p = Packet::Ack(AckPacket { fid: 1, seq: 2, source: AckSource::SwitchPruned });
    assert_eq!(Packet::parse(p.emit()).unwrap(), p);
}

#[test]
fn workloads_reexport_samples() {
    let mut z = Zipf::new(100, 1.1, 42);
    let v = z.sample();
    assert!(v < z.universe());
}
