//! Throughput of the segregated state stores.
//!
//! State segregation only pays if the stores are fast: these benches
//! measure real insert/read/commit cycles on the transactional table
//! store and read/write cycles on FastS and SSM, including SSM's
//! marshalling and checksumming.

use bench::harness::Harness;
use statestore::db::TableDef;
use statestore::session::{SessionId, SessionObject, SessionStore};
use statestore::{Database, FastS, Match, Ssm, Value};

fn bench_db(h: &mut Harness) {
    let mut db = Database::new(vec![TableDef {
        name: "items",
        columns: &["id", "name", "value"],
    }]);
    let conn = db.open_conn();
    let mut next = 1i64;
    h.bench("db_insert_commit", || {
        let txn = db.begin(conn).unwrap();
        db.insert(
            txn,
            "items",
            vec![Value::Int(next), Value::from("x"), Value::Int(0)],
        )
        .unwrap();
        db.commit(txn).unwrap();
        next += 1;
    });
    h.bench("db_read_committed", || {
        db.read_committed("items", 1).unwrap()
    });
    h.bench("db_update_rollback", || {
        let txn = db.begin(conn).unwrap();
        db.update(txn, "items", 1, &[(2, Value::Int(9))]).unwrap();
        db.rollback(txn).unwrap();
    });
    let zero_value = Match::Eq {
        column: 2,
        value: 0,
    };
    h.bench("db_scan_100", || {
        db.scan("items", zero_value, 100).unwrap().len()
    });
}

/// Bid history lookups on a bids-shaped table: 15 K bids over 1 350
/// items (≈11 bids per item, as in the eBid dataset), so a `limit 20`
/// scan is never cut short and a filter scan would visit every row.
fn bench_db_scan_eq(h: &mut Harness) {
    const BIDS: i64 = 15_000;
    const ITEMS: i64 = 1_350;
    let mut db = Database::new(vec![TableDef {
        name: "bids",
        columns: &["id", "user_id", "item_id", "amount"],
    }]);
    let conn = db.open_conn();
    let txn = db.begin(conn).unwrap();
    for i in 1..=BIDS {
        let row = vec![
            Value::Int(i),
            Value::Int(1 + i % 1_000),
            Value::Int(1 + (i * 7_919) % ITEMS),
            Value::Float(10.0),
        ];
        db.insert(txn, "bids", row).unwrap();
    }
    db.commit(txn).unwrap();
    let mut item = 0i64;
    h.bench("db_scan_eq", || {
        item = item % ITEMS + 1;
        let history = Match::Eq {
            column: 2,
            value: item,
        };
        db.scan("bids", history, 20).unwrap().len()
    });
}

fn session_obj() -> SessionObject {
    let mut o = SessionObject::new();
    o.set("user_id", 42i64);
    o.set("bid_item", 7i64);
    o.set("bid_amount", 110.5f64);
    o
}

fn bench_fasts(h: &mut Harness) {
    let mut fasts = FastS::new();
    fasts.write(SessionId(1), session_obj()).unwrap();
    h.bench("fasts_write", || {
        fasts.write(SessionId(1), session_obj()).unwrap()
    });
    h.bench("fasts_read", || fasts.read(SessionId(1)).unwrap());
}

fn bench_ssm(h: &mut Harness) {
    let mut ssm = Ssm::new(3);
    ssm.write(SessionId(1), session_obj()).unwrap();
    h.bench("ssm_write_3_replicas", || {
        ssm.write(SessionId(1), session_obj()).unwrap()
    });
    h.bench("ssm_read_checksummed", || ssm.read(SessionId(1)).unwrap());
}

fn main() {
    let mut h = Harness::new("statestore");
    bench_db(&mut h);
    bench_db_scan_eq(&mut h);
    bench_fasts(&mut h);
    bench_ssm(&mut h);
    h.finish();
}
