//! Who owns what in serve mode. Both front-ends deal numbered items
//! round robin over owners — sessions over shards ([`shard_of`]), and
//! shards over the threads of [`serve`](crate::serve())'s crew or of
//! `odbgc-net`'s loops: item `k` of `n` owners belongs to owner `k % n`
//! ([`owner_of`]), at slot `k / n` among that owner's items
//! ([`slot_of`]). [`run_crew`] runs one owner per thread on that rule.
//! An owner is the only thread that touches its shards, so a due
//! collection runs between two of its turns (the paper's §3 order) with
//! no lock.

/// The shard session `session` runs on, of `shards`.
pub fn shard_of(session: u32, shards: usize) -> usize {
    owner_of(session as usize, shards)
}

/// The owner of item `item` of `owners` owners.
pub fn owner_of(item: usize, owners: usize) -> usize {
    item % owners
}

/// Where item `item` sits among its owner's items, kept in index order.
pub fn slot_of(item: usize, owners: usize) -> usize {
    item / owners
}

/// `items` dealt to `owners` owners by [`owner_of`], each hand in index order.
pub(crate) fn deal<T>(items: impl IntoIterator<Item = T>, owners: usize) -> Vec<Vec<T>> {
    let mut hands: Vec<Vec<T>> = (0..owners).map(|_| Vec::new()).collect();
    for (k, item) in items.into_iter().enumerate() {
        hands[owner_of(k, owners)].push(item);
    }
    hands
}

/// Deals `items` to `owners` owners and runs owner `i` as `owner(i,
/// hand)`: owner 0 on the caller, owner `i > 0` on a scoped thread named
/// `{thread_prefix}{i}`. Returns the owners' results in owner order and
/// the items in index order. A panic of any owner reaches the caller
/// after every owner has returned (of several, the lowest owner's).
///
/// # Panics
///
/// If `owners` is 0, or a thread cannot be spawned.
pub fn run_crew<T: Send, R: Send>(
    items: Vec<T>,
    owners: usize,
    thread_prefix: &str,
    owner: impl Fn(usize, &mut [T]) -> R + Sync,
) -> (Vec<R>, Vec<T>) {
    assert!(owners >= 1, "a crew needs at least one owner");
    let count = items.len();
    let mut hands = deal(items, owners);
    let owner = &owner;
    let ran: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
        let (first, rest) = hands.split_first_mut().expect("a crew has an owner");
        let others: Vec<_> = (1..)
            .zip(rest)
            .map(|(i, hand)| {
                std::thread::Builder::new()
                    .name(format!("{thread_prefix}{i}"))
                    .spawn_scoped(scope, move || owner(i, hand))
                    .expect("spawn a crew member")
            })
            .collect();
        let first = owner(0, first);
        let others = others.into_iter().map(|member| member.join());
        std::iter::once(Ok(first)).chain(others).collect()
    });
    let results = ran
        .into_iter()
        .map(|r| r.unwrap_or_else(|p| std::panic::resume_unwind(p)));
    let mut hands: Vec<_> = hands.into_iter().map(Vec::into_iter).collect();
    let items = (0..count).map(|k| hands[owner_of(k, owners)].next().expect("dealt"));
    (results.collect(), items.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    #[test]
    fn owner_i_gets_items_i_then_i_plus_n_in_order() {
        for owners in [1, 2, 3] {
            let (hands, items) = run_crew((0..5).collect(), owners, "crew-test-", |i, hand| {
                (i, hand.to_vec())
            });
            let want: Vec<_> = (0..owners)
                .map(|i| (i, (i..5).step_by(owners).collect::<Vec<usize>>()))
                .collect();
            assert_eq!(hands, want, "{owners} owners");
            assert_eq!(items, vec![0, 1, 2, 3, 4], "{owners} owners");
            for (i, hand) in hands {
                for (slot, &k) in hand.iter().enumerate() {
                    assert_eq!((owner_of(k, owners), slot_of(k, owners)), (i, slot));
                }
            }
        }
    }

    #[test]
    fn items_come_back_in_index_order_with_the_owners_changes() {
        for owners in [1, 2, 3] {
            let items: Vec<(usize, usize)> = (0..5).map(|k| (k, usize::MAX)).collect();
            let (_, items) = run_crew(items, owners, "crew-test-", |i, hand| {
                for item in hand.iter_mut() {
                    item.1 = i;
                }
            });
            let want: Vec<_> = (0..5).map(|k| (k, owner_of(k, owners))).collect();
            assert_eq!(items, want, "{owners} owners");
        }
    }

    #[test]
    fn owner_zero_runs_on_the_caller_and_the_rest_are_named() {
        let caller = std::thread::current().id();
        let (names, _) = run_crew(vec![(); 3], 3, "crew-test-", |_, _| {
            let me = std::thread::current();
            if me.id() == caller {
                "caller".to_owned()
            } else {
                me.name().unwrap_or("unnamed").to_owned()
            }
        });
        assert_eq!(names, ["caller", "crew-test-1", "crew-test-2"]);
    }

    #[test]
    fn a_panic_in_owner_one_reaches_the_caller_after_the_others_return() {
        let returned: [AtomicBool; 3] = Default::default();
        let caught = std::panic::catch_unwind(|| {
            run_crew(vec![(); 3], 3, "crew-test-", |i, _| {
                if i == 1 {
                    panic!("owner 1 died");
                }
                // Owner 1 panics while the others are still running.
                std::thread::sleep(Duration::from_millis(20));
                returned[i].store(true, Ordering::SeqCst);
            })
        });
        let payload = caught.expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"owner 1 died"));
        assert!(returned[0].load(Ordering::SeqCst), "owner 0 returned first");
        assert!(returned[2].load(Ordering::SeqCst), "owner 2 returned first");
    }

    #[test]
    fn sessions_go_to_shards_by_the_same_rule() {
        assert_eq!(shard_of(7, 3), owner_of(7, 3));
        assert_eq!(shard_of(7, 3), 1);
        assert_eq!(shard_of(u32::MAX, 1), 0);
        assert_eq!(deal(0..5, 2), vec![vec![0, 2, 4], vec![1, 3]]);
    }
}
