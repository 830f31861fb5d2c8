//! Conformant wire api: every row and constant matches `docs/SPEC.md`.

/// The widget's operation table: one row per opcode.
#[macro_export]
macro_rules! widget_ops {
    ($emit:path) => {
        $emit! {
            /// Liveness probe.
            1 PING first fn ping() -> () => empty;
            /// Clears a collection but for the ids in `keep`, answering how
            /// many entries went (nothing, if it did not exist).
            2 RESET by_collection fn reset(keep: &[u64] => seq<u64>) -> Option<usize> => option<u64>;
        }
    };
}

/// Emits `pub mod op`: one constant per row, so call sites name their
/// opcode and the number is written in the table only.
macro_rules! emit_op_constants {
    ($($(#[$doc:meta])* $op:literal $NAME:ident $class:ident
        fn $method:ident $args:tt -> $ret:ty => $reply:ty;)*) => {
        /// The opcodes.
        pub mod op {
            $(#[doc = stringify!($method)]
            pub const $NAME: u8 = $op;)*
        }
    };
}
widget_ops!(emit_op_constants);

/// Widget error codes.
pub mod err {
    /// Malformed ping body.
    pub const BAD_PING: u8 = 16;
}
