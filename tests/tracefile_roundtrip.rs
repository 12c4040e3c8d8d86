//! Property tests: the binary tracefile format is a lossless round-trip
//! for any trace the type system can represent, whole-file or block by
//! block, in memory or on disk.

use proptest::prelude::*;

use odbgc_trace::synthetic::{churn, ChurnConfig};
use odbgc_trace::{Event, ObjectId, PhaseId, SlotIdx, Trace};
use odbgc_tracefile::{decode, encode, BatchReader, SliceBlocks};

/// Strategy for an arbitrary (not necessarily semantically valid) event,
/// with ids drawn from the full u64 range so the zigzag-delta encoding's
/// wrapping arithmetic gets exercised, not just small ids.
fn arb_event() -> impl Strategy<Value = Event> {
    let obj = prop_oneof![0u64..1000, any::<u64>()].prop_map(ObjectId::new);
    let opt_obj = proptest::option::of(obj.clone());
    prop_oneof![
        (
            obj.clone(),
            1u32..10_000,
            proptest::collection::vec(opt_obj.clone(), 0..8)
        )
            .prop_map(|(id, size, slots)| Event::Create {
                id,
                size,
                slots: slots.into_boxed_slice(),
            }),
        obj.clone().prop_map(|id| Event::Access { id }),
        (obj.clone(), 0u32..8, opt_obj).prop_map(|(src, slot, new)| Event::SlotWrite {
            src,
            slot: SlotIdx::new(slot),
            new,
        }),
        obj.clone().prop_map(|id| Event::RootAdd { id }),
        obj.prop_map(|id| Event::RootRemove { id }),
        (0u16..4).prop_map(|id| Event::Phase {
            id: PhaseId::new(id)
        }),
    ]
}

fn trace_from(events: Vec<Event>) -> Trace {
    let n_phases = events
        .iter()
        .filter_map(|e| match e {
            Event::Phase { id } => Some(id.index() + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let phase_names: Vec<String> = (0..n_phases).map(|i| format!("phase{i}")).collect();
    Trace::from_parts(events, phase_names)
}

proptest! {
    #[test]
    fn arbitrary_traces_round_trip_in_binary(
        events in proptest::collection::vec(arb_event(), 0..300)
    ) {
        let trace = trace_from(events);
        let bytes = encode(&trace);
        prop_assert_eq!(decode(&bytes).expect("binary decode"), trace);
    }

    #[test]
    fn streaming_reader_agrees_with_whole_file_decode(
        events in proptest::collection::vec(arb_event(), 0..300)
    ) {
        // Reading block by block through the reused arena yields the
        // same events in the same order as the whole-file decode, for
        // any representable trace.
        let trace = trace_from(events);
        let bytes = encode(&trace);
        let mut reader = BatchReader::new(SliceBlocks::new(bytes.as_slice()).expect("header"))
            .expect("phase table");
        let mut batched: Vec<Event> = Vec::new();
        while let Some(batch) = reader.next_batch().expect("batch") {
            batched.extend_from_slice(batch);
        }
        let whole = decode(&bytes).expect("decode");
        prop_assert_eq!(batched.as_slice(), whole.events());
        prop_assert_eq!(&whole, &trace);
        prop_assert_eq!(reader.phase_names(), trace.phase_names());
        prop_assert_eq!(reader.events_read(), trace.len() as u64);
    }

    #[test]
    fn churn_traces_round_trip_in_binary(seed in any::<u64>(), steps in 1usize..300) {
        let cfg = ChurnConfig { steps, ..ChurnConfig::default() };
        let trace = churn(&cfg, seed);
        prop_assert_eq!(decode(&encode(&trace)).expect("decode"), trace);
    }

    #[test]
    fn encoding_is_deterministic(
        events in proptest::collection::vec(arb_event(), 0..100)
    ) {
        let trace = trace_from(events);
        prop_assert_eq!(encode(&trace), encode(&trace));
    }
}

#[test]
fn small_oo7_trace_round_trips() {
    for seed in [1, 2, 7] {
        let (trace, _) = odbgc_oo7::Oo7App::standard(odbgc_oo7::Oo7Params::tiny(), seed).generate();
        let bytes = encode(&trace);
        assert_eq!(decode(&bytes).unwrap(), trace);
    }
}

#[test]
fn file_on_disk_round_trips() {
    let dir = std::env::temp_dir().join(format!("odbgc-tracefile-file-rt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.otb");
    let (trace, _) = odbgc_oo7::Oo7App::standard(odbgc_oo7::Oo7Params::tiny(), 9).generate();
    std::fs::write(&path, encode(&trace)).unwrap();

    let from_file = odbgc_tracefile::open_batches(&path)
        .and_then(BatchReader::read_to_trace)
        .unwrap();
    assert_eq!(from_file, trace);
    std::fs::remove_dir_all(&dir).ok();
}
