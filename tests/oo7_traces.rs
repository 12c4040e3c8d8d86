//! Frozen OO7 traces: the generator's output, pinned byte for byte.
//!
//! Every figure is a function of the traces `Oo7App::generate` emits, so
//! a change to the generator's internals (how it finds a connection
//! target, how it tracks visited parts) must leave every event, and so
//! every tracefile byte, where it was. The golden file records, per
//! trace, the event count, the `encode` length and an FNV-1a hash of the
//! encoded bytes. Re-bless intentionally, on known-good code, with:
//!
//! ```text
//! ODBGC_BLESS=1 cargo test -p odbgc-sim --test oo7_traces
//! ```
//!
//! Coverage: tiny at connectivity 1–5 and Small′ at 3/6/9, each in both
//! connection styles, at seeds 1, 7 and 42.

use std::fmt::Write as _;
use std::path::PathBuf;

use odbgc_oo7::{ConnStyle, Oo7App, Oo7Params};

const SEEDS: [u64; 3] = [1, 7, 42];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/oo7_traces.txt")
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every pinned parameter set, labelled.
fn cases() -> Vec<(String, Oo7Params)> {
    let mut out = Vec::new();
    for style in [ConnStyle::Bidirectional, ConnStyle::Forward] {
        for conn in 1..=5 {
            let p = Oo7Params {
                num_conn_per_atomic: conn,
                conn_style: style,
                ..Oo7Params::tiny()
            };
            out.push((format!("tiny conn={conn} style={style:?}"), p));
        }
        for conn in [3, 6, 9] {
            let p = Oo7Params {
                conn_style: style,
                ..Oo7Params::small_prime(conn)
            };
            out.push((format!("small-prime conn={conn} style={style:?}"), p));
        }
    }
    out
}

fn transcript() -> String {
    let mut out = String::new();
    for (label, params) in cases() {
        for seed in SEEDS {
            let (trace, _) = Oo7App::standard(params, seed).generate();
            let bytes = odbgc_tracefile::encode(&trace);
            writeln!(
                out,
                "{label} seed={seed} events={} bytes={} fnv1a={:016x}",
                trace.len(),
                bytes.len(),
                fnv1a(&bytes)
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn generated_traces_match_golden() {
    let text = transcript();
    let path = golden_path();
    if std::env::var("ODBGC_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &text).unwrap();
        eprintln!("blessed {} ({} bytes)", path.display(), text.len());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden transcript {} ({e}); generate it on known-good \
             code with ODBGC_BLESS=1",
            path.display()
        )
    });
    for (i, (a, b)) in golden.lines().zip(text.lines()).enumerate() {
        assert_eq!(a, b, "first divergence at golden line {}", i + 1);
    }
    assert_eq!(
        golden.lines().count(),
        text.lines().count(),
        "trace count changed"
    );
}
