//! The persistence tier: a transactional table store standing in for MySQL.
//!
//! The paper keeps eBid's long-term state (users, items, bids, ...) in a
//! MySQL database that is "crash-safe and recovers fast" for its datasets.
//! What microrebooting needs from the persistence tier is a contract, not a
//! particular engine:
//!
//! * **Atomicity** — transactions open at microreboot time are aborted by
//!   the container and rolled back by the database (Section 3.3).
//! * **Crash safety** — committed data survives a database or node crash;
//!   in-flight transactions roll back.
//! * **Connection-scoped cleanup** — locks and transactions belong to a
//!   connection; killing a connection releases them. (Section 7's "external
//!   resources" limitation arises when a component acquires a connection
//!   the server does not know about.)
//! * **Detectable, repairable corruption** — corrupting table contents is
//!   beyond what any reboot can cure; Table 2 records it as "table repair
//!   needed". The out-of-band [`Database::corrupt_cell`] /
//!   [`Database::repair`] surface models the injection and the manual
//!   repair.
//!
//! This module implements exactly that contract with an undo-log design:
//! writes apply in place and append compensation records; commit discards
//! the log, abort replays it backwards.

use std::collections::btree_map::{self, Entry};
use std::collections::BTreeMap;
use std::fmt;
use std::iter::Take;
use std::slice;

use simcore::SimDuration;

use crate::value::Value;

/// A database error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DbError {
    /// The named table does not exist.
    NoSuchTable(String),
    /// A row with this primary key already exists.
    DuplicateKey { table: String, pk: i64 },
    /// The row has the wrong number of columns for the table.
    ArityMismatch {
        table: String,
        expected: usize,
        got: usize,
    },
    /// Column index out of range for the table.
    NoSuchColumn { table: String, column: usize },
    /// The transaction id is unknown or no longer active.
    NoSuchTxn,
    /// The connection id is unknown or closed.
    NoSuchConn,
    /// Another transaction holds the row lock.
    LockConflict { table: String, pk: i64 },
    /// The row does not exist.
    NoSuchRow { table: String, pk: i64 },
    /// A non-nullable cell (the primary key) was null.
    NullKey { table: String },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            DbError::DuplicateKey { table, pk } => {
                write!(f, "duplicate key {pk} in {table}")
            }
            DbError::ArityMismatch {
                table,
                expected,
                got,
            } => {
                write!(f, "table {table} expects {expected} columns, got {got}")
            }
            DbError::NoSuchColumn { table, column } => {
                write!(f, "table {table} has no column {column}")
            }
            DbError::NoSuchTxn => write!(f, "unknown or finished transaction"),
            DbError::NoSuchConn => write!(f, "unknown or closed connection"),
            DbError::LockConflict { table, pk } => {
                write!(f, "lock conflict on {table}:{pk}")
            }
            DbError::NoSuchRow { table, pk } => {
                write!(f, "no row {pk} in {table}")
            }
            DbError::NullKey { table } => write!(f, "null primary key for {table}"),
        }
    }
}

impl std::error::Error for DbError {}

/// Identifier of an open transaction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TxnId(u64);

/// Identifier of a database connection.
///
/// Transactions and row locks belong to a connection; closing the
/// connection (as the OS does to a killed process's sockets) aborts its
/// transactions and frees its locks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ConnId(u64);

impl ConnId {
    /// Reconstructs a connection id from its raw value.
    ///
    /// Connection ids are allocated densely from zero, so tooling (e.g.,
    /// the simulated OS-level teardown of every connection of a dead
    /// process) can enumerate candidates; a non-existent id is simply not
    /// open.
    pub fn from_raw(raw: u64) -> ConnId {
        ConnId(raw)
    }
}

/// A table row: one [`Value`] per column, column 0 being the primary key.
pub type Row = Vec<Value>;

/// Definition of one table: its name and column names.
///
/// Column 0 is always the integer primary key.
#[derive(Clone, Debug)]
pub struct TableDef {
    /// Table name, unique within a schema.
    pub name: &'static str,
    /// Column names; index 0 is the primary key.
    pub columns: &'static [&'static str],
}

/// Which rows a [`Database::scan`] selects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Match {
    /// Every row.
    All,
    /// Rows whose `column` holds [`Value::Int`]`(value)`.
    Eq { column: usize, value: i64 },
}

#[derive(Clone, Debug)]
struct Table {
    def: TableDef,
    rows: BTreeMap<i64, Row>,
    /// Pre-corruption images of tainted rows, keyed by pk; presence marks
    /// the row as corrupted by out-of-band injection.
    tainted: BTreeMap<i64, Row>,
    /// Equality indexes, one per column that a [`Match::Eq`] scan has
    /// asked for; every row mutation keeps them exact.
    indexes: Vec<Index>,
}

impl Table {
    /// Writes `row` at `pk` (insert or overwrite), keeping the indexes
    /// exact.
    fn put(&mut self, pk: i64, row: Row) {
        match self.rows.entry(pk) {
            Entry::Occupied(mut e) => {
                for ix in &mut self.indexes {
                    ix.replace(pk, &e.get()[ix.column], &row[ix.column]);
                }
                e.insert(row);
            }
            Entry::Vacant(e) => {
                for ix in &mut self.indexes {
                    ix.add(pk, &row[ix.column]);
                }
                e.insert(row);
            }
        }
    }

    /// Removes the row at `pk`, keeping the indexes exact.
    fn take(&mut self, pk: i64) -> Option<Row> {
        let old = self.rows.remove(&pk)?;
        for ix in &mut self.indexes {
            ix.remove(pk, &old[ix.column]);
        }
        Some(old)
    }

    /// Returns the position of `column`'s index, building it on first use.
    fn index_of(&mut self, column: usize) -> usize {
        match self.indexes.iter().position(|ix| ix.column == column) {
            Some(i) => i,
            None => {
                self.indexes.push(Index::build(column, &self.rows));
                self.indexes.len() - 1
            }
        }
    }
}

/// A secondary equality index over one integer column.
#[derive(Clone, Debug)]
struct Index {
    column: usize,
    /// Column value → ascending pks of the rows holding it. Rows whose
    /// cell is not an `Int` are not indexed; no list is empty.
    postings: BTreeMap<i64, Vec<i64>>,
}

impl Index {
    fn build(column: usize, rows: &BTreeMap<i64, Row>) -> Index {
        let mut ix = Index {
            column,
            postings: BTreeMap::new(),
        };
        for (pk, row) in rows {
            ix.add(*pk, &row[column]);
        }
        ix
    }

    fn add(&mut self, pk: i64, cell: &Value) {
        let Some(v) = cell.as_int() else { return };
        let pks = self.postings.entry(v).or_default();
        // New rows almost always take the largest pk.
        match pks.last() {
            Some(&last) if last >= pk => {
                if let Err(i) = pks.binary_search(&pk) {
                    pks.insert(i, pk);
                }
            }
            _ => pks.push(pk),
        }
    }

    fn remove(&mut self, pk: i64, cell: &Value) {
        let Some(v) = cell.as_int() else { return };
        if let Some(pks) = self.postings.get_mut(&v) {
            if let Ok(i) = pks.binary_search(&pk) {
                pks.remove(i);
            }
            if pks.is_empty() {
                self.postings.remove(&v);
            }
        }
    }

    fn replace(&mut self, pk: i64, old: &Value, new: &Value) {
        if old.as_int() != new.as_int() {
            self.remove(pk, old);
            self.add(pk, new);
        }
    }
}

/// The rows selected by a [`Database::scan`], in primary-key order.
///
/// Borrows the table: nothing is cloned. Yields `(pk, row)`; its
/// [`ExactSizeIterator::len`] is the match count (capped by the limit).
#[derive(Clone)]
pub struct Scan<'a> {
    rows: &'a BTreeMap<i64, Row>,
    tainted: &'a BTreeMap<i64, Row>,
    cursor: Cursor<'a>,
}

#[derive(Clone)]
enum Cursor<'a> {
    All(Take<btree_map::Iter<'a, i64, Row>>),
    Eq(slice::Iter<'a, i64>),
}

impl Scan<'_> {
    /// Returns true if any selected row is marked corrupted by injection
    /// (see [`Database::is_tainted`]).
    pub fn any_tainted(&self) -> bool {
        !self.tainted.is_empty() && self.clone().any(|(pk, _)| self.tainted.contains_key(&pk))
    }
}

impl<'a> Iterator for Scan<'a> {
    type Item = (i64, &'a Row);

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.cursor {
            Cursor::All(it) => it.next().map(|(pk, row)| (*pk, row)),
            Cursor::Eq(it) => it.next().map(|pk| (*pk, &self.rows[pk])),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.cursor {
            Cursor::All(it) => it.size_hint(),
            Cursor::Eq(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for Scan<'_> {}

enum Undo {
    Insert { table: usize, pk: i64 },
    Update { table: usize, pk: i64, old: Row },
    Delete { table: usize, pk: i64, old: Row },
}

struct Txn {
    conn: ConnId,
    undo: Vec<Undo>,
    locks: Vec<(usize, i64)>,
}

/// Counters describing a database's lifetime activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Transactions committed.
    pub commits: u64,
    /// Transactions rolled back (explicitly or by crash/connection close).
    pub aborts: u64,
    /// Individual row reads served.
    pub reads: u64,
    /// Individual row writes (insert/update/delete) applied.
    pub writes: u64,
    /// Crash/recover cycles survived.
    pub crashes: u64,
}

/// An in-memory transactional table store with undo-log rollback.
///
/// # Examples
///
/// ```
/// use statestore::db::{Database, TableDef};
/// use statestore::Value;
///
/// let mut db = Database::new(vec![TableDef { name: "users", columns: &["id", "name"] }]);
/// let conn = db.open_conn();
/// let txn = db.begin(conn).unwrap();
/// db.insert(txn, "users", vec![Value::Int(1), Value::from("alice")]).unwrap();
/// db.commit(txn).unwrap();
/// let row = db.read_committed("users", 1).unwrap().unwrap();
/// assert_eq!(row[1], Value::from("alice"));
/// ```
pub struct Database {
    tables: Vec<Table>,
    by_name: BTreeMap<&'static str, usize>,
    txns: BTreeMap<u64, Txn>,
    conns: BTreeMap<u64, Vec<u64>>,
    locks: BTreeMap<(usize, i64), u64>,
    next_txn: u64,
    next_conn: u64,
    stats: DbStats,
}

impl Database {
    /// Creates a database with the given schema.
    ///
    /// # Panics
    ///
    /// Panics if two tables share a name or a table has no columns — schema
    /// definition bugs, not runtime conditions.
    pub fn new(schema: Vec<TableDef>) -> Self {
        let mut by_name = BTreeMap::new();
        let mut tables = Vec::new();
        for def in schema {
            assert!(
                !def.columns.is_empty(),
                "table {} must have at least the pk column",
                def.name
            );
            let prev = by_name.insert(def.name, tables.len());
            assert!(prev.is_none(), "duplicate table name {}", def.name);
            tables.push(Table {
                def,
                rows: BTreeMap::new(),
                tainted: BTreeMap::new(),
                indexes: Vec::new(),
            });
        }
        Database {
            tables,
            by_name,
            txns: BTreeMap::new(),
            conns: BTreeMap::new(),
            locks: BTreeMap::new(),
            next_txn: 0,
            next_conn: 0,
            stats: DbStats::default(),
        }
    }

    /// Returns lifetime activity counters.
    pub fn stats(&self) -> DbStats {
        self.stats
    }

    /// Returns the total number of committed rows across all tables.
    pub fn row_count(&self) -> usize {
        self.tables.iter().map(|t| t.rows.len()).sum()
    }

    /// Returns the number of rows in one table.
    pub fn table_len(&self, table: &str) -> Result<usize, DbError> {
        Ok(self.table(table)?.rows.len())
    }

    fn table(&self, name: &str) -> Result<&Table, DbError> {
        self.by_name
            .get(name)
            .map(|i| &self.tables[*i])
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    fn table_idx(&self, name: &str) -> Result<usize, DbError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    // ---- connections -----------------------------------------------------

    /// Opens a new connection.
    pub fn open_conn(&mut self) -> ConnId {
        let id = self.next_conn;
        self.next_conn += 1;
        self.conns.insert(id, Vec::new());
        ConnId(id)
    }

    /// Closes a connection, aborting any transactions it still owns.
    ///
    /// Returns the number of transactions aborted. This models the
    /// OS-driven TCP teardown that releases database locks when a whole
    /// process is killed (Section 7).
    pub fn close_conn(&mut self, conn: ConnId) -> Result<usize, DbError> {
        let txn_ids = self.conns.remove(&conn.0).ok_or(DbError::NoSuchConn)?;
        let mut aborted = 0;
        for t in txn_ids {
            if self.txns.contains_key(&t) {
                self.rollback(TxnId(t)).expect("active txn rolls back");
                aborted += 1;
            }
        }
        Ok(aborted)
    }

    /// Returns true if `conn` is open.
    pub fn conn_open(&self, conn: ConnId) -> bool {
        self.conns.contains_key(&conn.0)
    }

    /// Returns the number of open connections.
    pub fn open_conns(&self) -> usize {
        self.conns.len()
    }

    // ---- transactions ----------------------------------------------------

    /// Begins a transaction on `conn`.
    pub fn begin(&mut self, conn: ConnId) -> Result<TxnId, DbError> {
        let list = self.conns.get_mut(&conn.0).ok_or(DbError::NoSuchConn)?;
        let id = self.next_txn;
        self.next_txn += 1;
        list.push(id);
        self.txns.insert(
            id,
            Txn {
                conn,
                undo: Vec::new(),
                locks: Vec::new(),
            },
        );
        Ok(TxnId(id))
    }

    /// Returns the number of transactions currently active.
    pub fn active_txns(&self) -> usize {
        self.txns.len()
    }

    /// Returns true if `txn` is still active.
    pub fn txn_active(&self, txn: TxnId) -> bool {
        self.txns.contains_key(&txn.0)
    }

    fn lock(&mut self, txn: TxnId, table: usize, pk: i64) -> Result<(), DbError> {
        match self.locks.get(&(table, pk)) {
            Some(owner) if *owner == txn.0 => Ok(()),
            Some(_) => Err(DbError::LockConflict {
                table: self.tables[table].def.name.to_string(),
                pk,
            }),
            None => {
                self.locks.insert((table, pk), txn.0);
                self.txns
                    .get_mut(&txn.0)
                    .ok_or(DbError::NoSuchTxn)?
                    .locks
                    .push((table, pk));
                Ok(())
            }
        }
    }

    /// Commits `txn`, making its writes durable and releasing its locks.
    pub fn commit(&mut self, txn: TxnId) -> Result<(), DbError> {
        let t = self.txns.remove(&txn.0).ok_or(DbError::NoSuchTxn)?;
        for lk in &t.locks {
            self.locks.remove(lk);
        }
        if let Some(list) = self.conns.get_mut(&t.conn.0) {
            list.retain(|id| *id != txn.0);
        }
        self.stats.commits += 1;
        Ok(())
    }

    /// Rolls back `txn`, undoing its writes and releasing its locks.
    pub fn rollback(&mut self, txn: TxnId) -> Result<(), DbError> {
        let t = self.txns.remove(&txn.0).ok_or(DbError::NoSuchTxn)?;
        for undo in t.undo.into_iter().rev() {
            match undo {
                Undo::Insert { table, pk } => {
                    self.tables[table].take(pk);
                }
                Undo::Update { table, pk, old } | Undo::Delete { table, pk, old } => {
                    self.tables[table].put(pk, old);
                }
            }
        }
        for lk in &t.locks {
            self.locks.remove(lk);
        }
        if let Some(list) = self.conns.get_mut(&t.conn.0) {
            list.retain(|id| *id != txn.0);
        }
        self.stats.aborts += 1;
        Ok(())
    }

    /// Rolls back every active transaction.
    ///
    /// Containers call this (per component) on microreboot; [`Database::crash`]
    /// calls it for the whole store.
    pub fn rollback_all(&mut self) -> usize {
        let ids: Vec<u64> = self.txns.keys().copied().collect();
        let n = ids.len();
        for id in ids {
            self.rollback(TxnId(id)).expect("active txn rolls back");
        }
        n
    }

    // ---- data operations ---------------------------------------------

    /// Inserts a full row; column 0 is the primary key.
    pub fn insert(&mut self, txn: TxnId, table: &str, row: Row) -> Result<(), DbError> {
        let ti = self.table_idx(table)?;
        let expected = self.tables[ti].def.columns.len();
        if row.len() != expected {
            return Err(DbError::ArityMismatch {
                table: table.to_string(),
                expected,
                got: row.len(),
            });
        }
        let pk = row[0].as_int().ok_or(DbError::NullKey {
            table: table.to_string(),
        })?;
        if self.tables[ti].rows.contains_key(&pk) {
            return Err(DbError::DuplicateKey {
                table: table.to_string(),
                pk,
            });
        }
        self.lock(txn, ti, pk)?;
        self.tables[ti].put(pk, row);
        self.txns
            .get_mut(&txn.0)
            .ok_or(DbError::NoSuchTxn)?
            .undo
            .push(Undo::Insert { table: ti, pk });
        self.stats.writes += 1;
        Ok(())
    }

    /// Reads a row inside a transaction (sees in-place uncommitted state).
    pub fn read(&mut self, txn: TxnId, table: &str, pk: i64) -> Result<Option<Row>, DbError> {
        if !self.txns.contains_key(&txn.0) {
            return Err(DbError::NoSuchTxn);
        }
        self.stats.reads += 1;
        Ok(self.table(table)?.rows.get(&pk).cloned())
    }

    /// Reads a committed row without a transaction (read-only access path).
    pub fn read_committed(&self, table: &str, pk: i64) -> Result<Option<Row>, DbError> {
        Ok(self.table(table)?.rows.get(&pk).cloned())
    }

    /// Updates the given `(column, value)` pairs of a row.
    pub fn update(
        &mut self,
        txn: TxnId,
        table: &str,
        pk: i64,
        updates: &[(usize, Value)],
    ) -> Result<(), DbError> {
        let ti = self.table_idx(table)?;
        let ncols = self.tables[ti].def.columns.len();
        for (col, _) in updates {
            if *col == 0 || *col >= ncols {
                return Err(DbError::NoSuchColumn {
                    table: table.to_string(),
                    column: *col,
                });
            }
        }
        if !self.tables[ti].rows.contains_key(&pk) {
            return Err(DbError::NoSuchRow {
                table: table.to_string(),
                pk,
            });
        }
        self.lock(txn, ti, pk)?;
        let t = &mut self.tables[ti];
        let row = t.rows.get_mut(&pk).expect("existence checked above");
        let old = row.clone();
        for (col, v) in updates {
            row[*col] = v.clone();
        }
        for ix in &mut t.indexes {
            ix.replace(pk, &old[ix.column], &row[ix.column]);
        }
        self.txns
            .get_mut(&txn.0)
            .ok_or(DbError::NoSuchTxn)?
            .undo
            .push(Undo::Update { table: ti, pk, old });
        self.stats.writes += 1;
        Ok(())
    }

    /// Deletes a row.
    pub fn delete(&mut self, txn: TxnId, table: &str, pk: i64) -> Result<(), DbError> {
        let ti = self.table_idx(table)?;
        if !self.tables[ti].rows.contains_key(&pk) {
            return Err(DbError::NoSuchRow {
                table: table.to_string(),
                pk,
            });
        }
        self.lock(txn, ti, pk)?;
        let old = self.tables[ti].take(pk).expect("existence checked above");
        self.txns
            .get_mut(&txn.0)
            .ok_or(DbError::NoSuchTxn)?
            .undo
            .push(Undo::Delete { table: ti, pk, old });
        self.stats.writes += 1;
        Ok(())
    }

    /// Scans a table in primary-key order, selecting the first `limit`
    /// rows that `m` matches; counts `1 +` the selected rows as reads.
    ///
    /// A [`Match::Eq`] scan reads the column's equality index, which the
    /// first such scan of that column builds.
    pub fn scan(&mut self, table: &str, m: Match, limit: usize) -> Result<Scan<'_>, DbError> {
        let ti = self.table_idx(table)?;
        let t = &mut self.tables[ti];
        let cursor = match m {
            Match::All => Cursor::All(t.rows.iter().take(limit)),
            Match::Eq { column, value } => {
                if column >= t.def.columns.len() {
                    return Err(DbError::NoSuchColumn {
                        table: table.to_string(),
                        column,
                    });
                }
                let i = t.index_of(column);
                let pks = t.indexes[i]
                    .postings
                    .get(&value)
                    .map_or(&[][..], Vec::as_slice);
                Cursor::Eq(pks[..pks.len().min(limit)].iter())
            }
        };
        let scan = Scan {
            rows: &t.rows,
            tainted: &t.tainted,
            cursor,
        };
        self.stats.reads += scan.len() as u64 + 1;
        Ok(scan)
    }

    /// Returns the largest primary key in `table`, or `None` when empty.
    pub fn max_pk(&self, table: &str) -> Result<Option<i64>, DbError> {
        Ok(self.table(table)?.rows.keys().next_back().copied())
    }

    // ---- crash model -------------------------------------------------

    /// Crashes and immediately recovers the database.
    ///
    /// All active transactions roll back; committed data survives. Returns
    /// the modeled recovery duration, proportional to the committed row
    /// count (the paper notes MySQL "recovers fast" for its datasets).
    pub fn crash(&mut self) -> SimDuration {
        self.rollback_all();
        // Every open connection is severed by the crash.
        let conns: Vec<u64> = self.conns.keys().copied().collect();
        for c in conns {
            let _ = self.close_conn(ConnId(c));
        }
        self.stats.crashes += 1;
        self.recovery_cost()
    }

    /// Returns the modeled redo-scan recovery time for the current dataset.
    pub fn recovery_cost(&self) -> SimDuration {
        // Base mount cost plus ~1 µs per committed row of log scanning.
        SimDuration::from_millis(250) + SimDuration::from_micros(self.row_count() as u64)
    }

    // ---- corruption and repair (fault-injection surface) --------------

    /// Corrupts a cell out-of-band, bypassing transactions and locks.
    ///
    /// The pre-corruption row image is retained so a later
    /// [`Database::repair`] (the Table 2 "table repair" manual action) can
    /// restore it. Corrupting the same row twice keeps the oldest image.
    pub fn corrupt_cell(
        &mut self,
        table: &str,
        pk: i64,
        column: usize,
        value: Value,
    ) -> Result<(), DbError> {
        let ti = self.table_idx(table)?;
        let ncols = self.tables[ti].def.columns.len();
        if column >= ncols {
            return Err(DbError::NoSuchColumn {
                table: table.to_string(),
                column,
            });
        }
        let t = &mut self.tables[ti];
        let row = t.rows.get_mut(&pk).ok_or(DbError::NoSuchRow {
            table: table.to_string(),
            pk,
        })?;
        let before = row.clone();
        row[column] = value;
        for ix in &mut t.indexes {
            ix.replace(pk, &before[ix.column], &row[ix.column]);
        }
        t.tainted.entry(pk).or_insert(before);
        Ok(())
    }

    /// Swaps two rows' non-key columns out-of-band (the paper's "wrong but
    /// valid value" corruption, e.g. swapping IDs between two users).
    pub fn corrupt_swap_rows(&mut self, table: &str, a: i64, b: i64) -> Result<(), DbError> {
        let ti = self.table_idx(table)?;
        let t = &mut self.tables[ti];
        if !t.rows.contains_key(&a) {
            return Err(DbError::NoSuchRow {
                table: table.to_string(),
                pk: a,
            });
        }
        if !t.rows.contains_key(&b) {
            return Err(DbError::NoSuchRow {
                table: table.to_string(),
                pk: b,
            });
        }
        let row_a = t.rows[&a].clone();
        let row_b = t.rows[&b].clone();
        let mut new_a = row_a.clone();
        new_a[1..].clone_from_slice(&row_b[1..]);
        let mut new_b = row_b.clone();
        new_b[1..].clone_from_slice(&row_a[1..]);
        t.tainted.entry(a).or_insert(row_a);
        t.tainted.entry(b).or_insert(row_b);
        t.put(a, new_a);
        t.put(b, new_b);
        Ok(())
    }

    /// Marks a row as diverged from the known-good instance without
    /// changing it, retaining its current image for [`Database::repair`].
    ///
    /// This is oracle bookkeeping for the comparison detector: when a
    /// fault makes the application overwrite the *wrong* row (e.g., a
    /// corrupted key generator handing out existing ids), the write is
    /// mechanically normal but the database now differs from a fault-free
    /// twin's — exactly the state Table 2 marks as needing manual repair.
    /// Call this *before* the wrong write so repair restores the pre-write
    /// image.
    pub fn taint_row(&mut self, table: &str, pk: i64) -> Result<(), DbError> {
        let ti = self.table_idx(table)?;
        let t = &mut self.tables[ti];
        let row = t.rows.get(&pk).ok_or(DbError::NoSuchRow {
            table: table.to_string(),
            pk,
        })?;
        let image = row.clone();
        t.tainted.entry(pk).or_insert(image);
        Ok(())
    }

    /// Returns true if the row is marked corrupted by injection.
    ///
    /// The comparison-based failure detector uses this as its oracle: a
    /// response computed from a tainted row differs from the known-good
    /// instance's response.
    pub fn is_tainted(&self, table: &str, pk: i64) -> bool {
        self.table(table)
            .map(|t| t.tainted.contains_key(&pk))
            .unwrap_or(false)
    }

    /// Returns the number of corrupted rows across all tables.
    pub fn tainted_rows(&self) -> usize {
        self.tables.iter().map(|t| t.tainted.len()).sum()
    }

    /// Returns true if no injected corruption is outstanding.
    pub fn is_consistent(&self) -> bool {
        self.tainted_rows() == 0
    }

    /// Restores all corrupted rows from their pre-corruption images.
    ///
    /// Models the manual "table repair" of Table 2. Returns the number of
    /// rows repaired.
    pub fn repair(&mut self) -> usize {
        let mut repaired = 0;
        for t in &mut self.tables {
            for (pk, old) in std::mem::take(&mut t.tainted) {
                t.put(pk, old);
                repaired += 1;
            }
        }
        repaired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn users_schema() -> Vec<TableDef> {
        vec![TableDef {
            name: "users",
            columns: &["id", "name", "rating"],
        }]
    }

    fn db_with_alice() -> (Database, ConnId) {
        let mut db = Database::new(users_schema());
        let conn = db.open_conn();
        let txn = db.begin(conn).unwrap();
        db.insert(
            txn,
            "users",
            vec![Value::Int(1), Value::from("alice"), Value::Int(10)],
        )
        .unwrap();
        db.commit(txn).unwrap();
        (db, conn)
    }

    #[test]
    fn insert_commit_read() {
        let (db, _) = db_with_alice();
        let row = db.read_committed("users", 1).unwrap().unwrap();
        assert_eq!(row[1].as_str(), Some("alice"));
        assert_eq!(db.stats().commits, 1);
    }

    #[test]
    fn rollback_undoes_insert() {
        let mut db = Database::new(users_schema());
        let conn = db.open_conn();
        let txn = db.begin(conn).unwrap();
        db.insert(
            txn,
            "users",
            vec![Value::Int(1), Value::from("a"), Value::Int(0)],
        )
        .unwrap();
        db.rollback(txn).unwrap();
        assert!(db.read_committed("users", 1).unwrap().is_none());
        assert_eq!(db.stats().aborts, 1);
    }

    #[test]
    fn rollback_undoes_update_and_delete_in_order() {
        let (mut db, conn) = db_with_alice();
        let txn = db.begin(conn).unwrap();
        db.update(txn, "users", 1, &[(2, Value::Int(99))]).unwrap();
        db.delete(txn, "users", 1).unwrap();
        assert!(db.read(txn, "users", 1).unwrap().is_none());
        db.rollback(txn).unwrap();
        let row = db.read_committed("users", 1).unwrap().unwrap();
        assert_eq!(row[2], Value::Int(10), "original rating restored");
    }

    #[test]
    fn txn_sees_own_writes() {
        let (mut db, conn) = db_with_alice();
        let txn = db.begin(conn).unwrap();
        db.update(txn, "users", 1, &[(2, Value::Int(42))]).unwrap();
        let row = db.read(txn, "users", 1).unwrap().unwrap();
        assert_eq!(row[2], Value::Int(42));
        db.commit(txn).unwrap();
        assert_eq!(
            db.read_committed("users", 1).unwrap().unwrap()[2],
            Value::Int(42)
        );
    }

    #[test]
    fn lock_conflict_between_txns() {
        let (mut db, conn) = db_with_alice();
        let t1 = db.begin(conn).unwrap();
        let t2 = db.begin(conn).unwrap();
        db.update(t1, "users", 1, &[(2, Value::Int(1))]).unwrap();
        let err = db
            .update(t2, "users", 1, &[(2, Value::Int(2))])
            .unwrap_err();
        assert!(matches!(err, DbError::LockConflict { .. }));
        db.commit(t1).unwrap();
        // Lock released; t2 can now proceed.
        db.update(t2, "users", 1, &[(2, Value::Int(2))]).unwrap();
        db.commit(t2).unwrap();
    }

    #[test]
    fn duplicate_key_rejected() {
        let (mut db, conn) = db_with_alice();
        let txn = db.begin(conn).unwrap();
        let err = db
            .insert(
                txn,
                "users",
                vec![Value::Int(1), Value::from("bob"), Value::Int(0)],
            )
            .unwrap_err();
        assert!(matches!(err, DbError::DuplicateKey { .. }));
    }

    #[test]
    fn arity_and_null_key_rejected() {
        let mut db = Database::new(users_schema());
        let conn = db.open_conn();
        let txn = db.begin(conn).unwrap();
        assert!(matches!(
            db.insert(txn, "users", vec![Value::Int(1)]).unwrap_err(),
            DbError::ArityMismatch { .. }
        ));
        assert!(matches!(
            db.insert(
                txn,
                "users",
                vec![Value::Null, Value::from("x"), Value::Int(0)]
            )
            .unwrap_err(),
            DbError::NullKey { .. }
        ));
    }

    #[test]
    fn finished_txn_is_unusable() {
        let (mut db, conn) = db_with_alice();
        let txn = db.begin(conn).unwrap();
        db.commit(txn).unwrap();
        assert_eq!(db.read(txn, "users", 1).unwrap_err(), DbError::NoSuchTxn);
        assert_eq!(db.commit(txn).unwrap_err(), DbError::NoSuchTxn);
    }

    #[test]
    fn crash_rolls_back_active_txns_and_keeps_committed() {
        let (mut db, conn) = db_with_alice();
        let txn = db.begin(conn).unwrap();
        db.update(txn, "users", 1, &[(1, Value::from("mallory"))])
            .unwrap();
        let recovery = db.crash();
        assert!(recovery > SimDuration::ZERO);
        assert_eq!(
            db.read_committed("users", 1).unwrap().unwrap()[1].as_str(),
            Some("alice"),
            "uncommitted update rolled back by crash"
        );
        assert_eq!(db.active_txns(), 0);
        assert_eq!(db.open_conns(), 0, "crash severs connections");
        assert_eq!(db.stats().crashes, 1);
    }

    #[test]
    fn close_conn_aborts_its_txns_and_releases_locks() {
        let (mut db, conn) = db_with_alice();
        let orphan_conn = db.open_conn();
        let t1 = db.begin(orphan_conn).unwrap();
        db.update(t1, "users", 1, &[(2, Value::Int(0))]).unwrap();
        // Another connection cannot take the lock while t1 holds it.
        let t2 = db.begin(conn).unwrap();
        assert!(db.update(t2, "users", 1, &[(2, Value::Int(5))]).is_err());
        let aborted = db.close_conn(orphan_conn).unwrap();
        assert_eq!(aborted, 1);
        // Lock is free now.
        db.update(t2, "users", 1, &[(2, Value::Int(5))]).unwrap();
        db.commit(t2).unwrap();
        assert_eq!(
            db.read_committed("users", 1).unwrap().unwrap()[2],
            Value::Int(5)
        );
    }

    #[test]
    fn corruption_taints_and_repair_restores() {
        let (mut db, _) = db_with_alice();
        assert!(db.is_consistent());
        db.corrupt_cell("users", 1, 1, Value::Null).unwrap();
        assert!(db.is_tainted("users", 1));
        assert!(!db.is_consistent());
        assert!(db.read_committed("users", 1).unwrap().unwrap()[1].is_null());
        let repaired = db.repair();
        assert_eq!(repaired, 1);
        assert!(db.is_consistent());
        assert_eq!(
            db.read_committed("users", 1).unwrap().unwrap()[1].as_str(),
            Some("alice")
        );
    }

    #[test]
    fn double_corruption_keeps_oldest_image() {
        let (mut db, _) = db_with_alice();
        db.corrupt_cell("users", 1, 2, Value::Int(-1)).unwrap();
        db.corrupt_cell("users", 1, 2, Value::Int(-2)).unwrap();
        db.repair();
        assert_eq!(
            db.read_committed("users", 1).unwrap().unwrap()[2],
            Value::Int(10)
        );
    }

    #[test]
    fn swap_rows_corruption() {
        let (mut db, conn) = db_with_alice();
        let txn = db.begin(conn).unwrap();
        db.insert(
            txn,
            "users",
            vec![Value::Int(2), Value::from("bob"), Value::Int(20)],
        )
        .unwrap();
        db.commit(txn).unwrap();
        db.corrupt_swap_rows("users", 1, 2).unwrap();
        assert_eq!(
            db.read_committed("users", 1).unwrap().unwrap()[1].as_str(),
            Some("bob")
        );
        assert!(db.is_tainted("users", 1));
        assert!(db.is_tainted("users", 2));
        db.repair();
        assert_eq!(
            db.read_committed("users", 1).unwrap().unwrap()[1].as_str(),
            Some("alice")
        );
    }

    #[test]
    fn scan_filters_and_limits() {
        let (mut db, conn) = db_with_alice();
        let txn = db.begin(conn).unwrap();
        for i in 2..=10 {
            db.insert(
                txn,
                "users",
                vec![Value::Int(i), Value::from(format!("u{i}")), Value::Int(i)],
            )
            .unwrap();
        }
        db.commit(txn).unwrap();
        let pks = |db: &mut Database, m, limit| -> Vec<i64> {
            db.scan("users", m, limit)
                .unwrap()
                .map(|(pk, _)| pk)
                .collect()
        };
        let rated_10 = Match::Eq {
            column: 2,
            value: 10,
        };
        // Alice (pk 1, rating 10) matches too; scan is in pk order.
        assert_eq!(pks(&mut db, rated_10, 5), [1, 10]);
        assert_eq!(pks(&mut db, rated_10, 1), [1]);
        assert_eq!(pks(&mut db, Match::All, 3), [1, 2, 3]);
        let reads = db.stats().reads;
        assert_eq!(db.scan("users", rated_10, 5).unwrap().len(), 2);
        assert_eq!(db.stats().reads, reads + 3, "1 + selected rows");
        assert_eq!(db.max_pk("users").unwrap(), Some(10));
    }

    #[test]
    fn unknown_table_and_row_errors() {
        let (mut db, conn) = db_with_alice();
        let txn = db.begin(conn).unwrap();
        assert!(matches!(
            db.read(txn, "ghosts", 1).unwrap_err(),
            DbError::NoSuchTable(_)
        ));
        assert!(matches!(
            db.update(txn, "users", 99, &[(1, Value::Null)])
                .unwrap_err(),
            DbError::NoSuchRow { .. }
        ));
        assert!(matches!(
            db.delete(txn, "users", 99).unwrap_err(),
            DbError::NoSuchRow { .. }
        ));
        assert!(matches!(
            db.update(txn, "users", 1, &[(0, Value::Int(9))])
                .unwrap_err(),
            DbError::NoSuchColumn { .. },
        ));
    }

    #[test]
    fn recovery_cost_grows_with_rows() {
        let (mut db, conn) = db_with_alice();
        let small = db.recovery_cost();
        let txn = db.begin(conn).unwrap();
        for i in 2..2_000 {
            db.insert(
                txn,
                "users",
                vec![Value::Int(i), Value::from("u"), Value::Int(0)],
            )
            .unwrap();
        }
        db.commit(txn).unwrap();
        assert!(db.recovery_cost() > small);
    }
}
