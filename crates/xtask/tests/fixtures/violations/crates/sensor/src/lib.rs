//! Deliberately violating fixture: L005 fires, and every waiver
//! behaviour is exercised. The expected findings live in
//! `../../expected.txt`; this file never compiles as part of the
//! workspace (it is lexed, not built).

/// L005 (ad-hoc header literal) fires twice in this one function.
pub fn tag(message: &mut Message) -> String {
    message.set_header("x-request-id", "r-1");
    message.header("x-trace").unwrap_or_default()
}

/// A justified waiver: the finding is reported as waived, not an error.
pub fn mirrored() -> &'static str {
    // mps-lint: allow(L005) -- fixture: mirrors the shared constant
    "x-trace-sent-ms"
}

/// An unjustified waiver: still suppresses, but reports W001.
pub fn shrugged() -> &'static str {
    // mps-lint: allow(L005)
    "x-trace"
}

/// An unused waiver: nothing on the covered lines violates L007 (W002).
pub fn tidy() -> u64 {
    // mps-lint: allow(L007) -- fixture: nothing to waive here
    42
}

#[cfg(test)]
mod tests {
    // Test code is exempt: this literal does not fire.
    #[test]
    fn mirrors_the_trace_header() {
        assert_eq!(super::mirrored(), "x-trace-sent-ms");
    }
}
