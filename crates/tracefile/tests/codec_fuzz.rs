//! Failure injection at the front door: text handed to the tracefile
//! decoder — a text trace, a log, anything — is refused with a typed
//! error, never a panic, and a text trace is refused as a foreign file.

use proptest::prelude::*;

use odbgc_tracefile::{decode, DecodeError};

proptest! {
    #[test]
    fn decode_never_panics_on_arbitrary_text(text in ".*") {
        // A random string never carries the magic, a version and
        // CRC-checked phase and end blocks.
        prop_assert!(decode(text.as_bytes()).is_err());
    }

    #[test]
    fn decode_never_panics_on_header_plus_noise(body in "[ -~\\n]{0,400}") {
        // The header `trace cat` prints: the bytes of a text trace.
        let text = format!("odbgc-trace v1\n{body}");
        match decode(text.as_bytes()) {
            Err(DecodeError::BadMagic { found }) => prop_assert_eq!(&found, b"odbg"),
            other => prop_assert!(false, "text trace gave {:?}", other),
        }
    }
}
