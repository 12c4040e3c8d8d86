//! Corruption robustness: every way a tracefile can be damaged produces
//! a *distinct, typed* `DecodeError` — and none of them panics.
//!
//! Tracefiles live on real disks and move between processes, so these
//! are not hypothetical inputs: truncation is what a crashed writer
//! leaves behind, bit flips are what bad storage serves, bad magic is
//! what pointing `--trace` at the wrong file (a text trace, say) does,
//! and a future version is what an old binary sees after an upgrade.

use odbgc_trace::{SlotIdx, Trace, TraceBuilder};
use odbgc_tracefile::{crc32::crc32, BatchReader, DecodeError, SliceBlocks, FORMAT_VERSION, MAGIC};

/// A representative trace: phases, creates with mixed slots, writes,
/// roots — large enough to exercise every tag.
fn sample_trace() -> Trace {
    let mut b = TraceBuilder::new();
    b.phase("GenDB");
    let mut last = b.create_unlinked(64, 2);
    for i in 0..200 {
        let next = b.create(32 + i % 5, vec![Some(last), None]);
        b.slot_write(next, SlotIdx::new(1), Some(last));
        b.access(next);
        if i % 7 == 0 {
            b.root_add(next);
        }
        if i % 11 == 0 {
            b.slot_clear(next, SlotIdx::new(0));
        }
        last = next;
    }
    b.phase("Reorg1");
    b.root_remove(last);
    b.finish()
}

fn encoded() -> Vec<u8> {
    odbgc_tracefile::encode(&sample_trace())
}

/// Fully drains a tracefile through the decoder — the same code
/// `open_batches` runs over a file's image — returning the event count
/// on success and the typed error on damage.
fn decode_all(bytes: &[u8]) -> Result<usize, DecodeError> {
    let mut reader = BatchReader::new(SliceBlocks::new(bytes)?)?;
    let mut n = 0;
    while let Some(batch) = reader.next_batch()? {
        n += batch.len();
    }
    Ok(n)
}

#[test]
fn pristine_file_decodes_fully() {
    let n = decode_all(&encoded()).expect("pristine file");
    assert_eq!(n, sample_trace().len());
}

#[test]
fn truncated_file_is_a_typed_truncation() {
    let bytes = encoded();
    // Truncation at every structurally interesting depth: inside the
    // 8-byte header, inside a block header, inside a payload, inside a
    // checksum, and at a block boundary (end block missing entirely).
    for keep in [
        0,
        3,
        7,
        9,
        12,
        bytes.len() / 2,
        bytes.len() - 5,
        bytes.len() - 1,
    ] {
        let cut = &bytes[..keep];
        match decode_all(cut) {
            Err(DecodeError::Truncated { offset, .. }) => {
                assert!(offset <= keep as u64, "offset {offset} beyond cut {keep}")
            }
            other => panic!("truncation at {keep} gave {other:?}"),
        }
    }
}

#[test]
fn flipped_byte_in_a_block_is_a_checksum_mismatch() {
    let bytes = encoded();
    // Find the first event block (kind 2) by walking the block chain
    // from the end of the 8-byte header, and flip a byte in the middle
    // of its payload.
    let mut pos = 8;
    loop {
        let kind = bytes[pos];
        let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().unwrap()) as usize;
        if kind == 2 {
            let mut damaged = bytes.clone();
            damaged[pos + 5 + len / 2] ^= 0x40;
            match decode_all(&damaged) {
                Err(DecodeError::ChecksumMismatch {
                    stored, computed, ..
                }) => assert_ne!(stored, computed),
                other => panic!("bit flip gave {other:?}"),
            }
            return;
        }
        pos += 1 + 4 + len + 4;
    }
}

#[test]
fn bad_magic_is_distinct_from_corruption() {
    let mut bytes = encoded();
    bytes[0..4].copy_from_slice(b"GIF8");
    match decode_all(&bytes) {
        Err(DecodeError::BadMagic { found }) => assert_eq!(&found, b"GIF8"),
        other => panic!("bad magic gave {other:?}"),
    }
    // A completely foreign short file is also BadMagic, not a panic.
    assert!(matches!(
        decode_all(b"odbg"),
        Err(DecodeError::BadMagic { .. })
    ));
    // Anything shorter than the magic is truncation.
    assert!(matches!(
        decode_all(b"OT"),
        Err(DecodeError::Truncated { .. })
    ));
}

#[test]
fn future_version_is_rejected_as_unsupported() {
    let mut bytes = encoded();
    let future = FORMAT_VERSION + 41;
    bytes[4..6].copy_from_slice(&future.to_le_bytes());
    match decode_all(&bytes) {
        Err(DecodeError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, future);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("future version gave {other:?}"),
    }
}

#[test]
fn event_count_mismatch_is_corrupt_even_with_valid_checksums() {
    // Rewrite the end block to declare one event too many, with a
    // *correct* checksum — only the cross-block count invariant can
    // catch this.
    let bytes = encoded();
    let mut pos = 8;
    loop {
        let kind = bytes[pos];
        let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().unwrap()) as usize;
        if kind == 3 {
            let mut forged = bytes[..pos].to_vec();
            let n = sample_trace().len() as u64 + 1;
            let mut payload = Vec::new();
            // Varint-encode the forged count.
            let mut v = n;
            loop {
                let byte = (v & 0x7F) as u8;
                v >>= 7;
                if v == 0 {
                    payload.push(byte);
                    break;
                }
                payload.push(byte | 0x80);
            }
            forged.push(3);
            forged.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            forged.extend_from_slice(&payload);
            forged.extend_from_slice(&crc32(&payload).to_le_bytes());
            match decode_all(&forged) {
                Err(DecodeError::Corrupt { message, .. }) => {
                    assert!(message.contains("events"), "unhelpful message: {message}")
                }
                other => panic!("forged count gave {other:?}"),
            }
            return;
        }
        pos += 1 + 4 + len + 4;
    }
}

#[test]
fn trailing_garbage_after_end_block_is_corrupt() {
    let mut bytes = encoded();
    bytes.extend_from_slice(b"junk");
    assert!(matches!(
        decode_all(&bytes),
        Err(DecodeError::Corrupt { .. })
    ));
}

#[test]
fn every_single_byte_flip_is_survived_without_panic() {
    // The decoder must be total: whatever one flipped byte does to the
    // structure (length fields, kinds, varints, checksums, the lot),
    // the result is Ok or a typed Err — never a panic or an absurd
    // allocation. Flags bytes are reserved-and-ignored, so a flip there
    // may legitimately still decode.
    let bytes = encoded();
    for i in 0..bytes.len() {
        let mut damaged = bytes.clone();
        damaged[i] ^= 0xA5;
        let _ = decode_all(&damaged);
    }
}

#[test]
fn every_truncation_length_is_survived_without_panic() {
    let bytes = encoded();
    // Every prefix short of the full file must fail with a typed error.
    for keep in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
        assert!(
            decode_all(&bytes[..keep]).is_err(),
            "prefix of {keep} bytes decoded as complete"
        );
    }
}

#[test]
fn small_oo7_tracefile_survives_damage_too() {
    // The synthetic trace above has no OO7 structure; run the headline
    // checks against a real (tiny) generated workload as well.
    let (trace, _) = odbgc_oo7::Oo7App::standard(odbgc_oo7::Oo7Params::tiny(), 1).generate();
    let bytes = odbgc_tracefile::encode(&trace);
    assert_eq!(odbgc_tracefile::decode(&bytes).unwrap(), trace);

    let mut damaged = bytes.clone();
    damaged[bytes.len() / 2] ^= 0x01;
    assert!(matches!(
        decode_all(&damaged),
        Err(DecodeError::ChecksumMismatch { .. }) | Err(DecodeError::Corrupt { .. })
    ));
    assert!(matches!(
        decode_all(&bytes[..bytes.len() * 2 / 3]),
        Err(DecodeError::Truncated { .. })
    ));
}

#[test]
fn file_reader_diagnoses_damage_identically_to_memory() {
    // The in-memory slice assertions above cover the decode logic; this
    // covers real files: damaged variants written to disk and opened
    // through `open_batches` must produce the very same typed errors as
    // the in-memory image — truncated and empty files included, with no
    // panic.
    let dir = std::env::temp_dir().join(format!(
        "odbgc-tracefile-file-corruption-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let bytes = encoded();

    let mut variants: Vec<(String, Vec<u8>)> = Vec::new();
    for keep in [0, 3, 7, 12, bytes.len() / 2, bytes.len() - 1] {
        variants.push((format!("truncated-{keep}"), bytes[..keep].to_vec()));
    }
    let mut flipped = bytes.clone();
    flipped[bytes.len() / 2] ^= 0x40;
    variants.push(("bit-flip".into(), flipped));
    let mut foreign = bytes.clone();
    foreign[0..4].copy_from_slice(b"GIF8");
    variants.push(("bad-magic".into(), foreign));
    let mut future = bytes.clone();
    future[4..6].copy_from_slice(&(FORMAT_VERSION + 7).to_le_bytes());
    variants.push(("future-version".into(), future));
    let mut trailing = bytes.clone();
    trailing.extend_from_slice(b"junk");
    variants.push(("trailing-junk".into(), trailing));
    variants.push(("pristine".into(), bytes));

    for (name, data) in variants {
        let path = dir.join(format!("{name}.otb"));
        std::fs::write(&path, &data).unwrap();
        let in_memory = decode_all(&data);
        let from_file = odbgc_tracefile::open_batches(&path).and_then(|mut r| {
            let mut n = 0;
            while let Some(batch) = r.next_batch()? {
                n += batch.len();
            }
            Ok(n)
        });
        match (&in_memory, &from_file) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{name}: event counts differ"),
            (Err(a), Err(b)) => assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "{name}: file path diagnoses differently"
            ),
            _ => panic!("{name}: in-memory {in_memory:?} vs file {from_file:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn magic_constant_is_what_the_docs_say() {
    assert_eq!(&MAGIC, b"OTBF");
}
