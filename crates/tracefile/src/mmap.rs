//! Whole-file tracefile backings: a read-only memory map with a plain
//! read-to-`Vec` fallback behind the same type.
//!
//! The workspace builds without crates.io, so the map is a minimal
//! hand-rolled `mmap(2)` binding (64-bit Unix only) rather than a
//! dependency. [`TraceData`] hides which backing was used: either way it
//! dereferences to the file's bytes and plugs into
//! [`SliceBlocks`](crate::SliceBlocks) for zero-copy block reading.
//!
//! ## Safety argument
//!
//! * The mapping is `PROT_READ` + `MAP_PRIVATE`: nothing is ever written
//!   through it, and writes by other processes to the same file are not
//!   required to be coherent with our view.
//! * Every byte is CRC32-verified at block granularity *before* any
//!   event decoding touches it, so a torn or doctored file surfaces as a
//!   typed [`DecodeError`](crate::DecodeError), never as UB — the decode
//!   layer performs the same bounds checks it performs on heap buffers.
//! * The length is captured once from the file's metadata at map time
//!   and never re-read, so accesses stay inside the mapped range. The
//!   one residual hazard of any file mapping — another process
//!   *shrinking* the file while mapped, which faults on access to the
//!   vanished tail — cannot arise from this crate's own discipline:
//!   [`TraceCorpus`](crate::TraceCorpus) fills replace files by atomic
//!   rename and never truncate in place.
//!
//! ## When the fallback engages
//!
//! [`TraceData::open`] falls back to `std::fs::read` when the target is
//! not 64-bit Unix, when the file is empty (zero-length maps are
//! rejected by the kernel), or when `mmap` itself fails. The fallback
//! costs one up-front copy but decodes identically.

use std::fs::File;
use std::io;
use std::path::Path;

/// A whole tracefile image: memory-mapped when possible, owned bytes
/// otherwise. Dereferences to the file's contents either way.
#[derive(Debug)]
pub struct TraceData {
    backing: Backing,
}

#[derive(Debug)]
enum Backing {
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped(sys::MmapRegion),
    Owned(Vec<u8>),
}

impl TraceData {
    /// Opens `path`, preferring a read-only memory map and silently
    /// falling back to reading the whole file into memory (see the
    /// module docs for exactly when).
    pub fn open(path: &Path) -> io::Result<TraceData> {
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            if let Ok(file) = File::open(path) {
                if let Ok(region) = sys::MmapRegion::map(&file) {
                    return Ok(TraceData {
                        backing: Backing::Mapped(region),
                    });
                }
            }
        }
        Ok(TraceData {
            backing: Backing::Owned(std::fs::read(path)?),
        })
    }

    /// True when the backing is an actual memory map (false means the
    /// read-to-`Vec` fallback engaged).
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Mapped(_) => true,
            Backing::Owned(_) => false,
        }
    }
}

impl AsRef<[u8]> for TraceData {
    fn as_ref(&self) -> &[u8] {
        match &self.backing {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Mapped(region) => region.as_slice(),
            Backing::Owned(bytes) => bytes,
        }
    }
}

impl std::ops::Deref for TraceData {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_ref()
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    //! The minimal `mmap(2)` surface this crate needs. `std` always
    //! links libc on Unix, so declaring the two symbols ourselves keeps
    //! the workspace dependency-free.

    use std::ffi::{c_int, c_void};
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// A read-only, private mapping of one whole file.
    pub(super) struct MmapRegion {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the region is immutable for its whole life (PROT_READ and
    // no API hands out &mut), so sharing it across threads is as safe
    // as sharing a &[u8].
    unsafe impl Send for MmapRegion {}
    unsafe impl Sync for MmapRegion {}

    impl std::fmt::Debug for MmapRegion {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("MmapRegion")
                .field("len", &self.len)
                .finish()
        }
    }

    impl MmapRegion {
        /// Maps the whole of `file` read-only. Zero-length files are an
        /// error (the kernel rejects empty maps); callers fall back.
        pub(super) fn map(file: &File) -> io::Result<MmapRegion> {
            let len = file.metadata()?.len();
            let len = usize::try_from(len).map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidInput, "file too large to map")
            })?;
            if len == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "cannot map an empty file",
                ));
            }
            // SAFETY: we request a fresh PROT_READ/MAP_PRIVATE mapping of
            // a file we hold open; the kernel picks the address. The only
            // outputs are MAP_FAILED or a valid mapping of exactly `len`
            // bytes, which Drop unmaps.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr.is_null() || ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(MmapRegion { ptr, len })
        }

        pub(super) fn as_slice(&self) -> &[u8] {
            // SAFETY: `ptr` is a live mapping of exactly `len` readable
            // bytes until Drop runs; the returned borrow cannot outlive
            // `self`.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for MmapRegion {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` are the exact values mmap returned;
            // unmapping a private read-only region cannot fail in a way
            // we could act on.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odbgc_trace::TraceBuilder;

    fn temp_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("odbgc-mmap-test-{name}-{}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn mapped_and_buffered_see_the_same_bytes() {
        let mut b = TraceBuilder::new();
        let a = b.create_unlinked(16, 0);
        for _ in 0..100 {
            b.access(a);
        }
        let bytes = crate::encode(&b.finish());
        let path = temp_file("same-bytes", &bytes);
        let mapped = TraceData::open(&path).unwrap();
        let buffered = TraceData {
            backing: Backing::Owned(std::fs::read(&path).unwrap()),
        };
        assert_eq!(&*mapped, bytes.as_slice());
        assert_eq!(&*buffered, bytes.as_slice());
        assert!(!buffered.is_mapped());
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert!(mapped.is_mapped(), "64-bit unix should actually map");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_falls_back_to_owned() {
        let path = temp_file("empty", b"");
        let data = TraceData::open(&path).unwrap();
        assert!(!data.is_mapped());
        assert!(data.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let path = std::env::temp_dir().join("odbgc-mmap-test-definitely-missing.otb");
        assert!(TraceData::open(&path).is_err());
    }
}
