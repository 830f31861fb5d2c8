//! Fixture wire api for the `widget` role — deliberately divergent
//! from `docs/SPEC.md` so every L006 check fires.

/// The widget's operation table: one row per opcode.
#[macro_export]
macro_rules! widget_ops {
    ($emit:path) => {
        $emit! {
            /// Matches the spec (the clean row).
            1 PING first fn ping() -> () => empty;
            /// Deliberately renumbered: the spec says 3.
            4 SET first fn set(value: u64 => u64) -> () => empty;
            /// Declared in code but absent from the spec.
            5 EXTRA first fn extra() -> () => empty;
            /// Collides with `PING` on the wire (and has no spec row).
            1 DUP first fn dup() -> () => empty;
            /// Sends a string where the spec's request column says `u64 key`.
            6 GET first fn get(key: &str => string) -> Vec<u64> => seq<u64>;
            /// Answers a bare `u64` where the spec's reply column says `option<u64 n>`.
            7 COUNT by_collection fn count() -> usize => u64;
        }
    };
}

/// Widget error codes.
pub mod err {
    /// Matches the spec's `BadPing` row.
    pub const BAD_PING: u8 = 16;
}
