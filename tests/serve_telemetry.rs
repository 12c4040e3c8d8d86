//! Frozen run documents of a served workload.
//!
//! `tests/golden/serve_session.txt` pins the shards' decisions as Rust
//! values; this transcript pins the JSON that `odbgc serve-bench
//! --telemetry` writes for them, byte for byte: both shard documents of
//! four sessions on two shards of the tiny store under `saio:10%`.
//!
//! Re-bless intentionally, on known-good code, with:
//!
//! ```text
//! ODBGC_BLESS=1 cargo test -p odbgc-cli --test serve_telemetry
//! ```

use std::path::PathBuf;
use std::process::Command;

const ARGS: &str = "serve-bench --policy saio:10% --sessions 4 --shards 2 --ops 500 --sched-seed 7";

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/serve_telemetry.txt")
}

/// Runs the `odbgc` binary with `--telemetry` into a fresh directory and
/// returns both shard documents, each under a header line.
fn transcript() -> String {
    let dir = std::env::temp_dir().join(format!("odbgc-serve-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve.json");
    let out = Command::new(env!("CARGO_BIN_EXE_odbgc"))
        .args(ARGS.split_whitespace())
        .arg("--telemetry")
        .arg(&path)
        .output()
        .expect("run odbgc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut text = String::new();
    for shard in 0..2 {
        let doc = std::fs::read_to_string(dir.join(format!("serve-shard{shard}.json"))).unwrap();
        text.push_str(&format!("== odbgc {ARGS} : shard {shard} ==\n{doc}"));
    }
    std::fs::remove_dir_all(&dir).ok();
    text
}

#[test]
fn shard_documents_match_golden_transcript() {
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
    if text != golden {
        for (i, (a, b)) in golden.lines().zip(text.lines()).enumerate() {
            assert_eq!(a, b, "first divergence at golden line {}", i + 1);
        }
        panic!(
            "transcript length changed: golden {} bytes, current {} bytes",
            golden.len(),
            text.len()
        );
    }
}
