//! Source-level guard: the per-event and per-collection hot paths must
//! stay free of `HashMap`/`HashSet`.
//!
//! The whole point of the flat, index-addressed rewrite (epoch marks,
//! open-addressing remsets, intrusive-LRU buffer pool) is that event
//! application and collection never hash and never allocate per item. A
//! stray `HashSet` reintroduced in a refactor would silently undo that,
//! so this test greps the hot-path sources — comments stripped — and
//! fails on any occurrence. Oracle reimplementations in the differential
//! tests live in `tests/`, which this guard deliberately does not scan.

const HOT_PATH_SOURCES: &[(&str, &str)] = &[
    ("store/src/store.rs", include_str!("../src/store.rs")),
    ("store/src/remset.rs", include_str!("../src/remset.rs")),
    ("store/src/buffer.rs", include_str!("../src/buffer.rs")),
    (
        "store/src/partition.rs",
        include_str!("../src/partition.rs"),
    ),
    ("store/src/object.rs", include_str!("../src/object.rs")),
    (
        "gc/src/collector.rs",
        include_str!("../../gc/src/collector.rs"),
    ),
    (
        "gc/src/parallel.rs",
        include_str!("../../gc/src/parallel.rs"),
    ),
    ("sched/src/lib.rs", include_str!("../../sched/src/lib.rs")),
];

/// Strips `//`-style comments (doc comments included). Good enough for
/// this codebase: no string literal legitimately contains `//` followed
/// by a hash-collection name.
fn strip_comments(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

#[test]
fn hot_paths_never_name_hash_collections() {
    let mut offenses = Vec::new();
    for (name, src) in HOT_PATH_SOURCES {
        for (lineno, line) in src.lines().enumerate() {
            let code = strip_comments(line);
            if code.contains("HashMap") || code.contains("HashSet") {
                offenses.push(format!("{name}:{}: {}", lineno + 1, line.trim()));
            }
        }
    }
    assert!(
        offenses.is_empty(),
        "hash collections reintroduced on hot paths:\n{}",
        offenses.join("\n")
    );
}
