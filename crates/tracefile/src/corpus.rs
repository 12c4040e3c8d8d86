//! A persistent, cross-process trace corpus.
//!
//! The corpus is a directory of tracefiles addressed by a
//! [`CorpusKey`] — a canonical workload description plus a seed. The
//! file name embeds an FNV-1a hash of the workload string (so any change
//! to the workload parameters addresses a different file) and the seed
//! in the clear (so humans can browse the directory):
//!
//! ```text
//! $ODBGC_CORPUS/
//!   1d0e5c43a9b1f702-s1.otb        # tracefile for (workload 1d0e…, seed 1)
//!   1d0e5c43a9b1f702-s2.otb
//!   1d0e5c43a9b1f702.workload      # the workload string, for inspection
//! ```
//!
//! Fills are atomic: a new trace is written to a process-unique temp
//! file in the same directory and `rename(2)`d into place, so concurrent
//! sweep processes never observe a torn file — the worst case is two
//! processes generating the same (deterministic) trace and the second
//! rename being a no-op overwrite. A corpus file that fails to decode
//! (truncated by a crash, damaged on disk) is treated as a miss and
//! regenerated over.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use odbgc_trace::Trace;

/// Addresses one trace in a corpus: a canonical workload string (every
/// generation-relevant parameter, serialized deterministically by the
/// caller) plus the generation seed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CorpusKey {
    workload: String,
    seed: u64,
}

impl CorpusKey {
    /// A key for (workload, seed).
    pub fn new(workload: impl Into<String>, seed: u64) -> Self {
        CorpusKey {
            workload: workload.into(),
            seed,
        }
    }

    /// The canonical workload string.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// FNV-1a hash of the workload string.
    fn workload_hash(&self) -> u64 {
        fnv1a(self.workload.as_bytes())
    }

    /// The corpus-relative tracefile name for this key.
    pub fn file_name(&self) -> String {
        format!("{:016x}-s{}.otb", self.workload_hash(), self.seed)
    }

    /// The corpus-relative name of the workload-description sidecar.
    fn sidecar_name(&self) -> String {
        format!("{:016x}.workload", self.workload_hash())
    }
}

/// 64-bit FNV-1a — stable, dependency-free, and good enough to keep
/// distinct workload strings from colliding in a directory listing.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Hit/miss/fill counters for one corpus handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CorpusStats {
    /// Lookups served by corpus data — either loaded from an on-disk
    /// tracefile directly or re-served by a faster tier sitting on top
    /// (see [`TraceCorpus::note_hit`]).
    pub hits: u64,
    /// Lookups that found no usable tracefile.
    pub misses: u64,
    /// Traces generated (and offered back to the corpus) after a miss.
    pub generated: u64,
    /// Time spent loading tracefiles from disk.
    pub load_time: Duration,
}

impl std::fmt::Display for CorpusStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "corpus: {} hit / {} miss / {} generated, load {} ms",
            self.hits,
            self.misses,
            self.generated,
            self.load_time.as_millis()
        )
    }
}

/// A handle on a corpus directory, with counters.
///
/// The handle is cheap and safe to share between threads; counters are
/// atomics and all filesystem operations are whole-file reads or atomic
/// renames.
#[derive(Debug)]
pub struct TraceCorpus {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    generated: AtomicU64,
    load_nanos: AtomicU64,
    tmp_counter: AtomicU64,
}

impl TraceCorpus {
    /// Opens (creating if needed) the corpus directory.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(TraceCorpus {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            generated: AtomicU64::new(0),
            load_nanos: AtomicU64::new(0),
            tmp_counter: AtomicU64::new(0),
        })
    }

    /// Opens the corpus named by the `ODBGC_CORPUS` environment
    /// variable, if set. An unusable directory is reported on stderr and
    /// treated as "no corpus" — a broken cache must never break a sweep.
    pub fn from_env() -> Option<Self> {
        let dir = std::env::var_os("ODBGC_CORPUS")?;
        if dir.is_empty() {
            return None;
        }
        match TraceCorpus::open(PathBuf::from(&dir)) {
            Ok(corpus) => Some(corpus),
            Err(e) => {
                eprintln!("odbgc: ignoring unusable ODBGC_CORPUS={dir:?}: {e}");
                None
            }
        }
    }

    /// The corpus directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The on-disk path a key maps to.
    pub fn path_of(&self, key: &CorpusKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Loads the trace for `key`, if a usable tracefile exists.
    ///
    /// Counts a hit on success. A missing file returns `None` silently;
    /// an unreadable or corrupt file warns on stderr and returns `None`
    /// (the caller will regenerate and overwrite it).
    pub fn load(&self, key: &CorpusKey) -> Option<Trace> {
        self.load_at(&self.path_of(key))
    }

    /// Like [`TraceCorpus::load`], but takes the already-resolved path —
    /// callers that look the same slot up repeatedly (the sweep hot
    /// loop) resolve the key to a path once and skip re-hashing it on
    /// every hit.
    ///
    /// Loads go through [`crate::open_batches`]: one read of the whole
    /// file, then the batched reader over that image.
    pub fn load_at(&self, path: &Path) -> Option<Trace> {
        let started = Instant::now();
        match crate::open_batches(path).and_then(crate::BatchReader::read_to_trace) {
            Ok(trace) => {
                self.load_nanos
                    .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(trace)
            }
            Err(crate::DecodeError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(crate::DecodeError::Io(e)) => {
                eprintln!("odbgc: cannot open corpus file {path:?}: {e}");
                None
            }
            Err(e) => {
                eprintln!("odbgc: corpus file {path:?} is unusable ({e}); regenerating");
                None
            }
        }
    }

    /// Atomically installs `trace` as the tracefile for `key`, plus a
    /// small workload-description sidecar for human inspection.
    pub fn store(&self, key: &CorpusKey, trace: &Trace) -> std::io::Result<PathBuf> {
        let path = self.path_of(key);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}-{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed),
            key.file_name()
        ));
        let result = (|| {
            let file = std::fs::File::create(&tmp)?;
            let writer = crate::writer::write_trace(std::io::BufWriter::new(file), trace)?;
            writer
                .into_inner()
                .map_err(|e| e.into_error())?
                .sync_all()?;
            std::fs::rename(&tmp, &path)
        })();
        if result.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        result?;
        // Best-effort sidecar: losing it loses nothing but browsability.
        let sidecar = self.dir.join(key.sidecar_name());
        if !sidecar.exists() {
            std::fs::write(&sidecar, format!("{}\n", key.workload())).ok();
        }
        Ok(path)
    }

    /// The corpus as a cache tier: load `key`, or generate with `build`,
    /// installing the result for future processes.
    ///
    /// Generation counts one miss and one generated; a store failure is
    /// reported on stderr but does not fail the lookup — the cache is
    /// best-effort, the trace itself is always returned.
    pub fn get_or_insert_with(&self, key: &CorpusKey, build: impl FnOnce() -> Trace) -> Trace {
        self.load_or_generate(key, build).0
    }

    /// Like [`TraceCorpus::get_or_insert_with`], additionally reporting
    /// where the trace came from: `true` means loaded from disk, `false`
    /// means generated (tiered caches use this to attribute later
    /// re-serves correctly).
    pub fn load_or_generate(
        &self,
        key: &CorpusKey,
        build: impl FnOnce() -> Trace,
    ) -> (Trace, bool) {
        self.load_or_generate_at(&self.path_of(key), key, build)
    }

    /// Like [`TraceCorpus::load_or_generate`], with the key's path
    /// already resolved (it must equal [`TraceCorpus::path_of`]`(key)`).
    /// The hit path does no key hashing at all; the key is only needed
    /// again on the cold fill path, for the sidecar and temp naming.
    pub fn load_or_generate_at(
        &self,
        path: &Path,
        key: &CorpusKey,
        build: impl FnOnce() -> Trace,
    ) -> (Trace, bool) {
        if let Some(trace) = self.load_at(path) {
            return (trace, true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let trace = build();
        self.generated.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = self.store(key, &trace) {
            eprintln!(
                "odbgc: cannot store trace {:?} in corpus: {e}",
                self.path_of(key)
            );
        }
        (trace, false)
    }

    /// Counts a hit that did not touch the disk: a cache tier above the
    /// corpus re-served data it originally loaded from here. Keeping the
    /// tally in one place makes `hits` the number of lookups the corpus
    /// ultimately satisfied, whatever tier answered.
    pub fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counters so far.
    pub fn stats(&self) -> CorpusStats {
        CorpusStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            generated: self.generated.load(Ordering::Relaxed),
            load_time: Duration::from_nanos(self.load_nanos.load(Ordering::Relaxed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odbgc_trace::TraceBuilder;

    fn sample(tag: u32) -> Trace {
        let mut b = TraceBuilder::new();
        let a = b.create_unlinked(tag, 0);
        b.access(a);
        b.finish()
    }

    fn temp_corpus(name: &str) -> TraceCorpus {
        let dir =
            std::env::temp_dir().join(format!("odbgc-corpus-test-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        TraceCorpus::open(dir).unwrap()
    }

    #[test]
    fn keys_separate_workloads_and_seeds() {
        let a1 = CorpusKey::new("w-a", 1);
        let a2 = CorpusKey::new("w-a", 2);
        let b1 = CorpusKey::new("w-b", 1);
        assert_ne!(a1.file_name(), a2.file_name());
        assert_ne!(a1.file_name(), b1.file_name());
        assert!(a1.file_name().ends_with("-s1.otb"));
    }

    #[test]
    fn miss_generates_then_hit_loads() {
        let corpus = temp_corpus("miss-hit");
        let key = CorpusKey::new("workload", 7);
        let first = corpus.get_or_insert_with(&key, || sample(64));
        let stats = corpus.stats();
        assert_eq!((stats.hits, stats.misses, stats.generated), (0, 1, 1));
        assert!(corpus.path_of(&key).exists());

        let second = corpus.get_or_insert_with(&key, || panic!("must not regenerate"));
        assert_eq!(first, second);
        let stats = corpus.stats();
        assert_eq!((stats.hits, stats.misses, stats.generated), (1, 1, 1));
        assert!(stats.to_string().contains("1 hit / 1 miss / 1 generated"));
        std::fs::remove_dir_all(corpus.dir()).ok();
    }

    #[test]
    fn a_second_handle_sees_the_fill() {
        // Two handles on the same directory model two processes.
        let corpus = temp_corpus("cross");
        let key = CorpusKey::new("workload", 3);
        corpus.get_or_insert_with(&key, || sample(32));

        let other = TraceCorpus::open(corpus.dir()).unwrap();
        let loaded = other.get_or_insert_with(&key, || panic!("fill must be visible"));
        assert_eq!(loaded, sample(32));
        assert_eq!(other.stats().hits, 1);
        assert_eq!(other.stats().generated, 0);
        std::fs::remove_dir_all(corpus.dir()).ok();
    }

    #[test]
    fn corrupt_file_is_regenerated() {
        let corpus = temp_corpus("corrupt");
        let key = CorpusKey::new("workload", 5);
        corpus.get_or_insert_with(&key, || sample(16));
        // Sabotage the stored file.
        let path = corpus.path_of(&key);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes.truncate(n - 2);
        std::fs::write(&path, &bytes).unwrap();

        let fresh = TraceCorpus::open(corpus.dir()).unwrap();
        let loaded = fresh.get_or_insert_with(&key, || sample(16));
        assert_eq!(loaded, sample(16));
        assert_eq!(fresh.stats().hits, 0, "corrupt file is not a hit");
        assert_eq!(fresh.stats().generated, 1);
        // The regenerated file is whole again.
        let again = TraceCorpus::open(corpus.dir()).unwrap();
        again.get_or_insert_with(&key, || panic!("must load after repair"));
        assert_eq!(again.stats().hits, 1);
        std::fs::remove_dir_all(corpus.dir()).ok();
    }

    #[test]
    fn sidecar_documents_the_workload() {
        let corpus = temp_corpus("sidecar");
        let key = CorpusKey::new("oo7-std-v1;conn3", 1);
        corpus.get_or_insert_with(&key, || sample(8));
        let sidecar = corpus.dir().join(key.sidecar_name());
        let text = std::fs::read_to_string(sidecar).unwrap();
        assert_eq!(text.trim(), "oo7-std-v1;conn3");
        std::fs::remove_dir_all(corpus.dir()).ok();
    }
}
