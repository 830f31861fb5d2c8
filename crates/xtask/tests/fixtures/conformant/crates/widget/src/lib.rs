//! Conformant fixture: opcodes stated once as table rows that agree
//! with the spec, named wire constants at every call site, one global
//! lock order, no I/O under a guard.

pub mod api;

use api::op;
use std::sync::Mutex;

/// A fake connection.
pub struct Conn;

impl Conn {
    /// Sends one request.
    pub fn call(&self, _opcode: u8, _body: &[u8]) {}
}

/// Clean call sites: the constants are named.
pub fn ping(conn: &Conn) {
    conn.call(op::PING, b"");
}

/// Clean call sites: the constants are named.
pub fn reset(conn: &Conn) {
    conn.call(op::RESET, b"");
}

/// Two locks, always taken journal-then-table.
pub struct State {
    journal: Mutex<Vec<u8>>,
    table: Mutex<u64>,
}

impl State {
    /// Acquires journal then table.
    pub fn totals(&self) -> u64 {
        let journal = self.journal.lock().unwrap();
        let table = self.table.lock().unwrap();
        journal.len() as u64 + *table
    }

    /// Same order from a second call site: no cycle.
    pub fn is_fresh(&self) -> bool {
        let journal = self.journal.lock().unwrap();
        let table = self.table.lock().unwrap();
        journal.is_empty() && *table == 0
    }
}
