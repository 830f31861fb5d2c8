//! Conforming fixture: a crate that passes every lint. Header literals
//! only in `headers.rs`, and exactly one waiver — justified and used.

pub mod headers;

/// Tags a message with the shared constant.
pub fn tag(message: &mut Message, trace: &str) {
    message.set_header(headers::TRACE_HEADER, trace);
}

/// The one legitimate literal, waived with a justification.
pub fn legacy_header() -> &'static str {
    // mps-lint: allow(L005) -- fixture: an old client's header, read once and dropped
    "x-legacy-trace"
}

#[cfg(test)]
mod tests {
    // Test code may spell header keys.
    #[test]
    fn legacy_header_is_an_extension() {
        assert_eq!(super::legacy_header(), "x-legacy-trace");
    }
}
