//! Randomized property tests on the core data structures and invariants.
//!
//! Cases are generated with the repo's own deterministic [`SimRng`] rather
//! than an external property-testing framework: every run explores the same
//! seeds, so a failure here is always reproducible with no shrink step.

use microreboot::simcore::{EventQueue, SimDuration, SimRng, SimTime};
use microreboot::statestore::db::{Row, TableDef};
use microreboot::statestore::lease::LeaseTable;
use microreboot::statestore::session::{SessionId, SessionObject, SessionStore};
use microreboot::statestore::{Database, DbError, FastS, Match, Ssm, Value};

const CASES: u64 = 64;

/// A random operation against the database.
#[derive(Clone, Debug)]
enum DbOp {
    Insert(i64, i64),
    Update(i64, i64),
    Delete(i64),
}

fn gen_db_op(rng: &mut SimRng) -> DbOp {
    let pk = rng.uniform_u64(50) as i64;
    let v = rng.next_u64() as i64;
    match rng.uniform_u64(3) {
        0 => DbOp::Insert(pk, v),
        1 => DbOp::Update(pk, v),
        _ => DbOp::Delete(pk),
    }
}

/// A sequence of transactions; each is a list of ops plus commit/abort.
fn gen_txns(rng: &mut SimRng) -> Vec<(Vec<DbOp>, bool)> {
    (0..rng.uniform_u64(12))
        .map(|_| {
            let ops = (0..rng.uniform_u64(8)).map(|_| gen_db_op(rng)).collect();
            (ops, rng.chance(0.5))
        })
        .collect()
}

fn fresh_db() -> Database {
    Database::new(vec![TableDef {
        name: "t",
        columns: &["id", "v"],
    }])
}

/// Every row of table `t`, in pk order.
fn snapshot(db: &mut Database) -> Vec<(i64, Row)> {
    db.scan("t", Match::All, usize::MAX)
        .unwrap()
        .map(|(pk, row)| (pk, row.clone()))
        .collect()
}

/// Aborted transactions leave no trace: the table contents equal the
/// result of applying only the committed transactions.
#[test]
fn db_aborted_txns_leave_no_trace() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x1000 + case);
        let txns = gen_txns(&mut rng);
        let mut real = fresh_db();
        let mut model = fresh_db();
        let rc = real.open_conn();
        let mc = model.open_conn();
        for (ops, commit) in &txns {
            let rt = real.begin(rc).unwrap();
            let mt = model.begin(mc).unwrap();
            for op in ops {
                // Apply to the real db always; to the model only if this
                // txn will commit. Ignore individual op errors (dup keys,
                // missing rows) — both sides get the same ones.
                match op {
                    DbOp::Insert(pk, v) => {
                        let row = vec![Value::Int(*pk), Value::Int(*v)];
                        let r = real.insert(rt, "t", row.clone());
                        if *commit {
                            let m = model.insert(mt, "t", row);
                            assert_eq!(r.is_ok(), m.is_ok());
                        }
                    }
                    DbOp::Update(pk, v) => {
                        let r = real.update(rt, "t", *pk, &[(1, Value::Int(*v))]);
                        if *commit {
                            let m = model.update(mt, "t", *pk, &[(1, Value::Int(*v))]);
                            assert_eq!(r.is_ok(), m.is_ok());
                        }
                    }
                    DbOp::Delete(pk) => {
                        let r = real.delete(rt, "t", *pk);
                        if *commit {
                            let m = model.delete(mt, "t", *pk);
                            assert_eq!(r.is_ok(), m.is_ok());
                        }
                    }
                }
            }
            if *commit {
                real.commit(rt).unwrap();
                model.commit(mt).unwrap();
            } else {
                real.rollback(rt).unwrap();
                model.rollback(mt).unwrap();
            }
        }
        // Compare full table contents.
        let rows_real = snapshot(&mut real);
        let rows_model = snapshot(&mut model);
        assert_eq!(rows_real, rows_model, "case {case}");
    }
}

/// A crash mid-transaction preserves exactly the committed state.
#[test]
fn db_crash_preserves_committed_state() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x2000 + case);
        let committed: Vec<(i64, i64)> = (0..1 + rng.uniform_u64(19))
            .map(|_| (rng.uniform_u64(40) as i64, rng.next_u64() as i64))
            .collect();
        let uncommitted: Vec<(i64, i64)> = (0..1 + rng.uniform_u64(19))
            .map(|_| (rng.uniform_u64(40) as i64, rng.next_u64() as i64))
            .collect();

        let mut db = fresh_db();
        let conn = db.open_conn();
        let txn = db.begin(conn).unwrap();
        for (pk, v) in &committed {
            let _ = db.insert(txn, "t", vec![Value::Int(*pk), Value::Int(*v)]);
        }
        db.commit(txn).unwrap();
        let kept = snapshot(&mut db);

        let conn2 = db.open_conn();
        let txn2 = db.begin(conn2).unwrap();
        for (pk, v) in &uncommitted {
            let _ = db.insert(txn2, "t", vec![Value::Int(*pk), Value::Int(*v)]);
            let _ = db.update(txn2, "t", *pk, &[(1, Value::Int(v ^ 1))]);
        }
        db.crash();
        assert_eq!(snapshot(&mut db), kept, "case {case}");
        assert_eq!(db.active_txns(), 0);
    }
}

/// Corruption followed by repair restores the exact pre-corruption
/// image, regardless of interleaved corruption order.
#[test]
fn db_repair_is_exact() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x3000 + case);
        let mut rows = std::collections::BTreeMap::new();
        for _ in 0..1 + rng.uniform_u64(19) {
            rows.insert(rng.uniform_u64(30) as i64, rng.next_u64() as i64);
        }
        let victims: Vec<i64> = (0..1 + rng.uniform_u64(9))
            .map(|_| rng.uniform_u64(30) as i64)
            .collect();

        let mut db = fresh_db();
        let conn = db.open_conn();
        let txn = db.begin(conn).unwrap();
        for (pk, v) in &rows {
            db.insert(txn, "t", vec![Value::Int(*pk), Value::Int(*v)])
                .unwrap();
        }
        db.commit(txn).unwrap();
        let before = snapshot(&mut db);
        for pk in &victims {
            let _ = db.corrupt_cell("t", *pk, 1, Value::Null);
        }
        db.repair();
        assert!(db.is_consistent(), "case {case}");
        assert_eq!(snapshot(&mut db), before);
    }
}

/// Indexed columns of [`index_db`]'s table; their values are drawn from
/// `0..INDEX_DOMAIN`.
const INDEXED: [usize; 2] = [1, 2];
const INDEX_DOMAIN: u64 = 4;

fn index_db() -> Database {
    Database::new(vec![TableDef {
        name: "t",
        columns: &["id", "a", "b"],
    }])
}

/// Checks every `Match::Eq` scan over the small domain (plus absent
/// values) against a pk-order filter of the whole table: the same pks,
/// the same taint, and `1 + n` reads.
fn check_eq_scans(db: &mut Database, context: &str) {
    let rows = snapshot(db);
    for column in INDEXED {
        for value in -1..=INDEX_DOMAIN as i64 {
            for limit in [0, 1, 2, 5, usize::MAX] {
                let expected: Vec<i64> = rows
                    .iter()
                    .filter(|(_, row)| row[column].as_int() == Some(value))
                    .map(|(pk, _)| *pk)
                    .take(limit)
                    .collect();
                let expected_taint = expected.iter().any(|pk| db.is_tainted("t", *pk));
                let reads = db.stats().reads;
                let scan = db.scan("t", Match::Eq { column, value }, limit).unwrap();
                assert_eq!(scan.len(), expected.len(), "{context}");
                assert_eq!(scan.any_tainted(), expected_taint, "{context}");
                let got: Vec<i64> = scan.map(|(pk, _)| pk).collect();
                assert_eq!(
                    got, expected,
                    "{context} col {column} = {value} limit {limit}"
                );
                assert_eq!(
                    db.stats().reads,
                    reads + expected.len() as u64 + 1,
                    "{context}"
                );
            }
        }
    }
}

/// Equality scans agree with a brute-force filter after every step of a
/// random sequence of transactional writes, commits, rollbacks, crashes,
/// corruption, taint marks and repairs. One database is checked from the
/// start (index built on the empty table); a twin is first checked at a
/// random step, so its index is built from whatever state that step
/// left.
#[test]
fn db_eq_scan_matches_filter() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x8000 + case);
        let first_check = rng.uniform_u64(40);
        let mut eager = index_db();
        let mut lazy = index_db();
        let mut conns = [eager.open_conn(), lazy.open_conn()];
        let mut txns = [None, None];
        for step in 0..60 {
            let pk = rng.uniform_u64(24) as i64;
            let other = rng.uniform_u64(24) as i64;
            let column = INDEXED[rng.uniform_usize(INDEXED.len())];
            let v = Value::Int(rng.uniform_u64(INDEX_DOMAIN) as i64);
            let w = Value::Int(rng.uniform_u64(INDEX_DOMAIN) as i64);
            let op = rng.uniform_u64(12);
            let coin = rng.chance(0.5);
            for (i, db) in [&mut eager, &mut lazy].into_iter().enumerate() {
                // Errors (duplicate keys, missing rows) are part of the
                // sequence; both twins see the same ones.
                let txn = match txns[i] {
                    Some(t) => t,
                    None => {
                        let t = db.begin(conns[i]).unwrap();
                        txns[i] = Some(t);
                        t
                    }
                };
                match op {
                    0..=2 => {
                        let row = vec![Value::Int(pk), v.clone(), w.clone()];
                        let _ = db.insert(txn, "t", row);
                    }
                    3 | 4 => {
                        let _ = db.update(txn, "t", pk, &[(column, v.clone())]);
                    }
                    5 => {
                        let _ = db.delete(txn, "t", pk);
                    }
                    6 => {
                        db.commit(txn).unwrap();
                        txns[i] = None;
                    }
                    7 => {
                        db.rollback(txn).unwrap();
                        txns[i] = None;
                    }
                    8 => {
                        db.crash();
                        conns[i] = db.open_conn();
                        txns[i] = None;
                    }
                    9 => {
                        let cell = if coin { v.clone() } else { Value::Null };
                        let _ = db.corrupt_cell("t", pk, column, cell);
                    }
                    10 => {
                        let _ = db.corrupt_swap_rows("t", pk, other);
                    }
                    _ => {
                        if coin {
                            let _ = db.taint_row("t", pk);
                        } else {
                            db.repair();
                        }
                    }
                }
            }
            assert_eq!(snapshot(&mut eager), snapshot(&mut lazy), "case {case}");
            check_eq_scans(&mut eager, &format!("eager case {case} step {step}"));
            if step >= first_check {
                check_eq_scans(&mut lazy, &format!("lazy case {case} step {step}"));
            }
        }
    }
}

/// An equality scan on a column the table does not have is an error,
/// not a panic.
#[test]
fn db_eq_scan_rejects_unknown_column() {
    let mut db = index_db();
    let err = db
        .scan(
            "t",
            Match::Eq {
                column: 3,
                value: 0,
            },
            10,
        )
        .err()
        .unwrap();
    assert_eq!(
        err,
        DbError::NoSuchColumn {
            table: "t".into(),
            column: 3
        }
    );
}

/// The event queue fires events in nondecreasing time order, with
/// FIFO order among equal timestamps.
#[test]
fn event_queue_is_time_ordered() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x4000 + case);
        let times: Vec<u64> = (0..1 + rng.uniform_u64(99))
            .map(|_| rng.uniform_u64(1000))
            .collect();
        let mut q: EventQueue<Vec<(u64, usize)>> = EventQueue::new();
        let mut world = Vec::new();
        for (i, t) in times.iter().enumerate() {
            let t = *t;
            q.schedule_at(
                SimTime::from_millis(t),
                "e",
                move |w: &mut Vec<(u64, usize)>, _| {
                    w.push((t, i));
                },
            );
        }
        q.run_to_completion(&mut world);
        assert_eq!(world.len(), times.len());
        for pair in world.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "time order, case {case}");
            if pair[0].0 == pair[1].0 {
                assert!(pair[0].1 < pair[1].1, "FIFO among ties, case {case}");
            }
        }
    }
}

/// Leases: an entry is live iff granted-or-renewed within the term;
/// sweep returns each expired payload exactly once.
#[test]
fn lease_sweep_exactly_once() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x5000 + case);
        let grants: Vec<u64> = (0..1 + rng.uniform_u64(49))
            .map(|_| rng.uniform_u64(100))
            .collect();
        let mut lt: LeaseTable<usize> = LeaseTable::new(SimDuration::from_secs(10));
        let ids: Vec<_> = grants
            .iter()
            .enumerate()
            .map(|(i, t)| (lt.grant(SimTime::from_secs(*t), i), *t))
            .collect();
        let sweep_at = SimTime::from_secs(60);
        let expired = lt.sweep(sweep_at);
        let should_expire = ids.iter().filter(|(_, t)| *t + 10 <= 60).count();
        assert_eq!(expired.len(), should_expire, "case {case}");
        // Second sweep finds nothing new.
        assert_eq!(lt.sweep(sweep_at).len(), 0);
    }
}

/// Session objects survive an SSM write/read round trip unchanged
/// (marshalling + checksum verification are lossless).
#[test]
fn ssm_roundtrip_is_lossless() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x6000 + case);
        let mut obj = SessionObject::new();
        let keys = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];
        for key in &keys[..rng.uniform_usize(keys.len() + 1)] {
            obj.set(key, rng.next_u64() as i64);
        }
        let mut ssm = Ssm::new(3);
        ssm.write(SessionId(1), obj.clone()).unwrap();
        let got = ssm.read(SessionId(1)).unwrap().unwrap();
        assert_eq!(got, obj, "case {case}");
    }
}

/// FastS revalidation never discards objects the validator accepts
/// and never keeps objects it rejects.
#[test]
fn fasts_revalidation_is_exact() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x7000 + case);
        let user_ids: Vec<i64> = (0..1 + rng.uniform_u64(29))
            .map(|_| rng.next_u64() as i64)
            .collect();
        let mut fasts = FastS::new();
        for (i, uid) in user_ids.iter().enumerate() {
            let mut obj = SessionObject::new();
            obj.set("user_id", *uid);
            fasts.write(SessionId(i as u64), obj).unwrap();
        }
        let valid = |o: &SessionObject| {
            o.get("user_id")
                .and_then(Value::as_int)
                .map(|v| v > 0)
                .unwrap_or(false)
        };
        fasts.revalidate(valid);
        let expected = user_ids.iter().filter(|v| **v > 0).count();
        assert_eq!(fasts.live_sessions(), expected, "case {case}");
    }
}
