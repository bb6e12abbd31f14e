//! The per-request call context — the application's capability handle.
//!
//! A single thread shepherds a user request through the web tier and
//! multiple components (Section 3.1). [`CallContext`] is that thread's
//! view of the platform: it mediates component invocation (naming lookup,
//! container checks, interceptors, instance pools, transaction metadata),
//! database access (transaction-scoped, with rollback on failure or kill)
//! and session-store access — while transparently accounting CPU cost,
//! wire latency, the components touched (for microreboot kill sets and
//! recovery-manager diagnosis) and the corruption taint that only the
//! comparison detector can see.

use components::container::{InstanceOutcome, TxnAttr};
use components::descriptor::{ComponentId, ComponentKind};
use components::registry::Resolved;
use simcore::{SimDuration, SimTime};
use statestore::db::Row;
use statestore::session::{SessionId, SessionObject, StoreError};
use statestore::{Match, TxnId, Value};

use crate::app::CallError;
use crate::calib;
use crate::request::BodyMarkers;
use crate::server::ServerInner;

/// How a hung call holds its resources.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HangKind {
    /// Deadlock: the thread parks, the CPU is released.
    Park,
    /// Infinite loop: the thread burns its CPU until killed.
    Hog,
}

/// The capability handle a request handler runs against.
pub struct CallContext<'a> {
    pub(crate) inner: &'a mut ServerInner,
    now: SimTime,
    arg: i64,
    /// The client's session, if its cookie resolved.
    pub(crate) session: Option<SessionId>,
    /// A new cookie to hand back (login).
    pub(crate) set_cookie: Option<SessionId>,
    /// Whether to clear the client's cookie (logout).
    pub(crate) clear_cookie: bool,
    /// CPU consumed so far (holds a worker).
    pub(crate) cpu: SimDuration,
    /// Non-CPU wire latency accumulated (e.g., SSM round trips).
    pub(crate) latency: SimDuration,
    /// Whether injected corruption influenced this request.
    pub(crate) tainted: bool,
    /// Body anomalies to render.
    pub(crate) markers: BodyMarkers,
    /// The component blamed for a failure, for diagnosis.
    pub(crate) failed_component: Option<&'static str>,
    /// The open request transaction, if any.
    pub(crate) txn: Option<TxnId>,
    /// Components entered by this request.
    pub(crate) touched: Vec<ComponentId>,
    /// Set when the request hung inside a component.
    pub(crate) hang: Option<(ComponentId, HangKind)>,
    /// Sticky flag: a (corrupt) transaction method map told us to run
    /// without a transaction, so writes autocommit and cannot roll back.
    pub(crate) autocommit: bool,
    /// Per-request cache of the session object: the container loads the
    /// HttpSession once per request and persists it at request end.
    session_cache: Option<Option<SessionObject>>,
    /// Whether this request touched its session (drives the write-back
    /// charge at request end).
    session_accessed: bool,
    /// Rows written outside the request transaction (autocommit under a
    /// corrupt transaction method map): they cannot be rolled back and
    /// become divergence if the request later fails.
    pub(crate) autocommitted: Vec<(&'static str, i64)>,
    /// Taint that propagates into writes: the request's *inputs* (session
    /// state, instance attributes, generated keys) were corrupted, so
    /// values it computes — and stores — differ from the fault-free twin's.
    /// Deliberately NOT set by reading already-tainted database rows:
    /// those reads produce tainted *responses*, but treating their writes
    /// as fresh divergence would make taint viral and residual damage
    /// unbounded.
    taint_propagates: bool,
}

impl<'a> CallContext<'a> {
    pub(crate) fn new(
        inner: &'a mut ServerInner,
        now: SimTime,
        session: Option<SessionId>,
        arg: i64,
    ) -> Self {
        CallContext {
            inner,
            now,
            arg,
            session,
            set_cookie: None,
            clear_cookie: false,
            cpu: SimDuration::ZERO,
            latency: SimDuration::ZERO,
            tainted: false,
            markers: BodyMarkers::default(),
            failed_component: None,
            txn: None,
            touched: Vec::new(),
            hang: None,
            autocommit: false,
            session_cache: None,
            session_accessed: false,
            autocommitted: Vec::new(),
            taint_propagates: false,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The request's operation argument (item id, category id, ...).
    pub fn arg(&self) -> i64 {
        self.arg
    }

    /// Charges application CPU time to the request.
    pub fn charge(&mut self, cpu: SimDuration) {
        self.cpu += cpu;
    }

    /// Marks the response as influenced by corruption (oracle only).
    pub fn taint(&mut self) {
        self.tainted = true;
    }

    /// Declares that the handler extracted a corrupted-but-plausible value
    /// it will compute with: the request's *writes* now diverge from the
    /// fault-free twin's (oracle bookkeeping — merely *reading* a tainted
    /// object taints the response, but only used-in-anger wrong values
    /// turn into persistent state divergence).
    pub fn mark_divergent_inputs(&mut self) {
        self.tainted = true;
        self.taint_propagates = true;
    }

    /// Renders a "please log in" page (flagged as a failure when the
    /// client believes it is already logged in).
    pub fn mark_login_prompt(&mut self) {
        self.markers.login_prompt = true;
    }

    /// Renders visibly invalid data (e.g., a negative item id).
    pub fn mark_invalid_data(&mut self) {
        self.markers.invalid_data = true;
    }

    fn exception(&mut self, component: Option<&'static str>) -> CallError {
        self.markers.exception_text = true;
        if self.failed_component.is_none() {
            self.failed_component = component;
        }
        CallError::Exception
    }

    // ---- component invocation ------------------------------------------

    /// Invokes business method `method` on component `name`, running `f`
    /// as its body.
    ///
    /// This is the interceptor chain: naming lookup, sentinel check,
    /// container state check, fault semantics, instance-pool service,
    /// transaction-attribute lookup and in-flight accounting all happen
    /// here, before and after `f`.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        method: &'static str,
        f: impl FnOnce(&mut CallContext<'a>) -> Result<T, CallError>,
    ) -> Result<T, CallError> {
        self.cpu += calib::CALL_OVERHEAD;
        let id = match self.inner.registry.resolve(name) {
            Err(_) => return Err(self.exception(Some(name))),
            Ok(Resolved::RetryAfter(d)) => return Err(CallError::Retry(d)),
            Ok(Resolved::Component(id)) => id,
        };
        if self.inner.registry.is_wrong(name) {
            // The lookup silently resolved to the wrong component; the
            // invocation then hits a foreign interface — the
            // ClassCastException analogue (lookup-time checks cannot catch
            // this, only the call itself fails).
            return Err(self.exception(Some(name)));
        }
        // Intermittent faults self-heal on a deadline and fail calls
        // probabilistically. The chance is drawn before the container
        // borrow below (the rng lives next to the containers in
        // `ServerInner`), and only when the fault is armed, so fault-free
        // runs consume no randomness.
        let intermittent_fails = {
            let now_us = self.now.as_micros();
            let f = &mut self.inner.containers[id.0].faults;
            if f.intermittent_permille > 0 && now_us >= f.intermittent_heals_at_us {
                f.intermittent_permille = 0;
                f.intermittent_heals_at_us = 0;
            }
            let permille = f.intermittent_permille;
            permille > 0 && self.inner.rng.chance(f64::from(permille) / 1000.0)
        };
        {
            let c = &mut self.inner.containers[id.0];
            if !c.is_active() {
                return Err(CallError::Retry(calib::RETRY_AFTER));
            }
            if c.faults.transient_exceptions > 0 {
                c.faults.transient_exceptions -= 1;
                return Err(self.exception(Some(name)));
            }
            if intermittent_fails {
                return Err(self.exception(Some(name)));
            }
            if c.faults.deadlocked {
                c.call_enter();
                self.hang = Some((id, HangKind::Park));
                self.touch(id);
                self.failed_component = Some(name);
                return Err(CallError::Hang);
            }
            if c.faults.infinite_loop {
                c.call_enter();
                self.hang = Some((id, HangKind::Hog));
                self.touch(id);
                self.failed_component = Some(name);
                return Err(CallError::Hang);
            }
            if c.faults.leak_per_call > 0 {
                let n = c.faults.leak_per_call;
                c.leak(n);
            }
            if c.descriptor.kind == ComponentKind::StatelessSessionBean {
                match c.pool.serve() {
                    InstanceOutcome::Clean => {}
                    InstanceOutcome::FailedAndDiscarded(_) => {
                        return Err(self.exception(Some(name)));
                    }
                    InstanceOutcome::ServedWrong => {
                        self.tainted = true;
                        self.taint_propagates = true;
                    }
                }
            }
            let is_entity_store =
                c.descriptor.kind == ComponentKind::EntityBean && method == "store";
            match c.txn_map.attr_for(method) {
                Err(_) => return Err(self.exception(Some(name))),
                Ok(TxnAttr::Required) => {}
                // Container-managed persistence requires a transaction
                // context for entity writes: a (corruptly) flipped
                // attribute raises the TransactionRequiredException
                // analogue. Elsewhere it silently strips transactionality
                // from subsequent writes.
                Ok(TxnAttr::NotSupported) if is_entity_store => {
                    return Err(self.exception(Some(name)));
                }
                Ok(TxnAttr::NotSupported) => self.autocommit = true,
            }
            c.call_enter();
        }
        self.touch(id);
        let result = f(self);
        match &result {
            Err(CallError::Hang) => {
                // The thread never leaves the hung callee; leave the
                // in-flight count raised until a microreboot clears it.
            }
            _ => self.inner.containers[id.0].call_exit(),
        }
        if result.is_err() && self.failed_component.is_none() {
            self.failed_component = Some(name);
        }
        result
    }

    fn touch(&mut self, id: ComponentId) {
        if !self.touched.contains(&id) {
            self.touched.push(id);
        }
    }

    // ---- database access -------------------------------------------------

    fn ensure_txn(&mut self) -> Result<TxnId, CallError> {
        if let Some(t) = self.txn {
            return Ok(t);
        }
        let conn = self.inner.db_conn();
        let t = {
            let mut db = self.inner.db.borrow_mut();
            db.begin(conn)
        };
        match t {
            Ok(t) => {
                self.txn = Some(t);
                Ok(t)
            }
            Err(_) => Err(self.exception(None)),
        }
    }

    /// Reads a row; `None` if absent.
    pub fn db_read(&mut self, table: &str, pk: i64) -> Result<Option<Row>, CallError> {
        self.cpu += calib::DB_READ_COST;
        let txn = self.txn;
        let result = {
            let mut db = self.inner.db.borrow_mut();
            let tainted = db.is_tainted(table, pk);
            let r = match txn {
                Some(t) => db.read(t, table, pk),
                None => db.read_committed(table, pk),
            };
            (r, tainted)
        };
        if result.1 {
            self.tainted = true;
        }
        result.0.map_err(|_| self.exception(None))
    }

    /// Scans a table (read-only) and returns the match count (at most
    /// `limit`), marking taint if any selected row is corrupted.
    pub fn db_scan(&mut self, table: &str, m: Match, limit: usize) -> Result<usize, CallError> {
        self.cpu += calib::DB_SCAN_COST;
        let scanned = self
            .inner
            .db
            .borrow_mut()
            .scan(table, m, limit)
            .map(|s| (s.len(), s.any_tainted()));
        match scanned {
            Ok((n, tainted)) => {
                self.tainted |= tainted;
                Ok(n)
            }
            Err(_) => Err(self.exception(None)),
        }
    }

    /// Returns the largest primary key in `table`.
    pub fn db_max_pk(&mut self, table: &str) -> Result<Option<i64>, CallError> {
        self.cpu += calib::DB_READ_COST;
        let r = self.inner.db.borrow().max_pk(table);
        r.map_err(|_| self.exception(None))
    }

    fn db_write<F>(&mut self, op: F) -> Result<(), CallError>
    where
        F: FnOnce(&mut statestore::Database, TxnId) -> Result<(), statestore::DbError>,
    {
        self.cpu += calib::DB_WRITE_COST;
        if self.autocommit {
            // A (corrupt) NotSupported attribute: run the write in its own
            // immediately-committed transaction. A later abort cannot undo
            // it — this is how wrong txn-map corruption leaves the database
            // needing manual repair.
            let conn = self.inner.db_conn();
            let mut db = self.inner.db.borrow_mut();
            let t = match db.begin(conn) {
                Ok(t) => t,
                Err(_) => {
                    drop(db);
                    return Err(self.exception(None));
                }
            };
            let r = op(&mut db, t);
            let outcome = match r {
                Ok(()) => db.commit(t).map_err(|_| ()),
                Err(_) => {
                    let _ = db.rollback(t);
                    Err(())
                }
            };
            drop(db);
            outcome.map_err(|_| self.exception(None))
        } else {
            let t = self.ensure_txn()?;
            let r = {
                let mut db = self.inner.db.borrow_mut();
                op(&mut db, t)
            };
            r.map_err(|_| self.exception(None))
        }
    }

    fn note_autocommit(&mut self, table: &'static str, pk: i64) {
        if self.autocommit && !self.autocommitted.contains(&(table, pk)) {
            self.autocommitted.push((table, pk));
        }
        // Taint propagation (comparison-detector oracle): a request whose
        // inputs were corrupted computes different values than the
        // fault-free twin, so everything it writes diverges too —
        // wrong-but-valid corruption turns into persistent database
        // damage exactly as Table 2's ≈ rows describe.
        if self.taint_propagates {
            let _ = self.inner.db.borrow_mut().taint_row(table, pk);
        }
    }

    /// Inserts a row inside the request transaction.
    pub fn db_insert(&mut self, table: &'static str, row: Row) -> Result<(), CallError> {
        let pk = row[0].as_int().unwrap_or(0);
        let r = self.db_write(|db, t| db.insert(t, table, row));
        if r.is_ok() {
            self.note_autocommit(table, pk);
        }
        r
    }

    /// Updates row cells inside the request transaction.
    pub fn db_update(
        &mut self,
        table: &'static str,
        pk: i64,
        updates: &[(usize, Value)],
    ) -> Result<(), CallError> {
        let r = self.db_write(|db, t| db.update(t, table, pk, updates));
        if r.is_ok() {
            self.note_autocommit(table, pk);
        }
        r
    }

    /// Deletes a row inside the request transaction.
    pub fn db_delete(&mut self, table: &'static str, pk: i64) -> Result<(), CallError> {
        let r = self.db_write(move |db, t| db.delete(t, table, pk));
        if r.is_ok() {
            self.note_autocommit(table, pk);
        }
        r
    }

    /// Inserts a row or — if the key already exists — overwrites the
    /// existing row's non-key columns.
    ///
    /// Returns true when it overwrote. The overwrite path records the
    /// clobbered row as diverged from the known-good instance (the
    /// comparison-detector oracle) and taints this response: this is how a
    /// *wrong* primary-key generator turns into silent database damage
    /// needing manual repair (Table 2's ≈ rows).
    pub fn db_insert_or_overwrite(
        &mut self,
        table: &'static str,
        row: Row,
    ) -> Result<bool, CallError> {
        let pk = match row[0].as_int() {
            Some(pk) => pk,
            None => return Err(self.exception(None)),
        };
        let exists = {
            let db = self.inner.db.borrow();
            db.read_committed(table, pk).ok().flatten().is_some()
        };
        if !exists {
            self.db_insert(table, row)?;
            return Ok(false);
        }
        // Oracle bookkeeping before the wrong write.
        let _ = self.inner.db.borrow_mut().taint_row(table, pk);
        self.tainted = true;
        self.taint_propagates = true;
        let updates: Vec<(usize, Value)> = row.into_iter().enumerate().skip(1).collect();
        self.db_update(table, pk, &updates)?;
        Ok(true)
    }

    // ---- session access --------------------------------------------------

    fn charge_session_access(&mut self) {
        self.cpu += self.inner.session.access_cpu();
        self.latency += self.inner.session.access_latency();
    }

    /// Returns the client's session id, if it presented a cookie.
    pub fn session_id(&self) -> Option<SessionId> {
        self.session
    }

    /// Reads the client's session object.
    ///
    /// `Ok(None)` means "no usable session" — no cookie, expired, lost in a
    /// restart, or discarded by the store's integrity check. The handler
    /// typically renders a login prompt in that case.
    ///
    /// The container loads the HttpSession once per request: repeated reads
    /// hit a per-request cache and cost nothing extra. A request that
    /// touched its session pays one write-back at request end (the SSM
    /// checkpoint pattern), accounted by the server.
    pub fn session_read(&mut self) -> Result<Option<SessionObject>, CallError> {
        let Some(sid) = self.session else {
            return Ok(None);
        };
        if let Some(cached) = &self.session_cache {
            let cached = cached.clone();
            if let Some(obj) = &cached {
                if obj.is_tainted() {
                    self.tainted = true;
                }
            }
            return Ok(cached);
        }
        self.charge_session_access();
        self.session_accessed = true;
        match self.inner.session.read(sid) {
            Ok(Some(obj)) => {
                if obj.is_tainted() {
                    self.tainted = true;
                }
                self.session_cache = Some(Some(obj.clone()));
                Ok(Some(obj))
            }
            Ok(None) => {
                self.session_cache = Some(None);
                Ok(None)
            }
            Err(StoreError::CorruptDiscarded(_)) => {
                self.session_cache = Some(None);
                Ok(None)
            }
            Err(StoreError::Unavailable) => {
                self.markers.store_error = true;
                Err(self.exception(None))
            }
        }
    }

    /// Writes the client's session object.
    ///
    /// Fails if the client has no session (use [`CallContext::new_session`]
    /// first). The store write happens immediately; its cost is part of
    /// the request-end write-back charge.
    pub fn session_write(&mut self, obj: SessionObject) -> Result<(), CallError> {
        let Some(sid) = self.session else {
            return Err(self.exception(None));
        };
        self.session_accessed = true;
        self.session_cache = Some(Some(obj.clone()));
        match self.inner.session.write(sid, obj) {
            Ok(()) => Ok(()),
            Err(_) => {
                self.markers.store_error = true;
                Err(self.exception(None))
            }
        }
    }

    /// Charges the request-end session write-back, if the request touched
    /// its session. Called by the server after the handler returns.
    pub(crate) fn finalize_session(&mut self) {
        if self.session_accessed {
            self.charge_session_access();
        }
    }

    /// Creates a fresh session (login) and sets the response cookie.
    pub fn new_session(&mut self) -> SessionId {
        let sid = self.inner.alloc_session_id();
        self.session = Some(sid);
        self.set_cookie = Some(sid);
        sid
    }

    /// Destroys the client's session (logout) and clears its cookie.
    pub fn end_session(&mut self) -> Result<(), CallError> {
        if let Some(sid) = self.session.take() {
            self.charge_session_access();
            let _ = self.inner.session.remove(sid);
        }
        self.session_cache = Some(None);
        self.clear_cookie = true;
        Ok(())
    }
}
