//! Unit tests of the storage layer: relations, dedup tables, tombstones
//! and the incremental index in its three layouts.

use super::*;

fn c(v: u32) -> Const {
    Const(v)
}

/// Drains a posting cursor over `[lo, hi)` into a row-id vector.
fn collect_range(
    idx: &IncrementalIndex,
    rel: &ColumnarRelation,
    key: &[Const],
    lo: usize,
    hi: usize,
) -> Vec<u32> {
    let mut p = idx.probe_range(rel, key, lo, hi);
    let mut rows = Vec::new();
    loop {
        let r = idx.next_match(&mut p);
        if r == NO_ROW {
            break;
        }
        rows.push(r);
    }
    rows
}

/// Full-range posting list of a key.
fn collect(idx: &IncrementalIndex, rel: &ColumnarRelation, key: &[Const]) -> Vec<u32> {
    collect_range(idx, rel, key, 0, rel.num_rows())
}

#[test]
fn insert_dedup_and_membership() {
    let mut rel = ColumnarRelation::new(2);
    assert!(rel.insert(&[c(1), c(2)]));
    assert!(!rel.insert(&[c(1), c(2)]));
    assert!(rel.insert(&[c(2), c(1)]));
    assert_eq!(rel.num_rows(), 2);
    assert!(rel.contains(&[c(1), c(2)]));
    assert!(!rel.contains(&[c(3), c(3)]));
    assert_eq!(rel.row(0), &[c(1), c(2)]);
    assert_eq!(rel.row(1), &[c(2), c(1)]);
}

#[test]
fn find_row_returns_dense_insertion_ids() {
    let mut rel = ColumnarRelation::new(2);
    for i in 0..100u32 {
        rel.insert(&[c(i), c(i + 1)]);
    }
    for i in 0..100u32 {
        assert_eq!(rel.find_row(&[c(i), c(i + 1)]), i);
    }
    assert_eq!(rel.find_row(&[c(1), c(1)]), NO_ROW);
}

#[test]
fn dead_row_ids_are_the_rows_that_are_not_live() {
    let mut rel = ColumnarRelation::new(1);
    for i in 0..200u32 {
        rel.insert(&[c(i)]);
    }
    assert_eq!(rel.dead_row_ids().count(), 0);
    for r in [0, 5, 63, 64, 127, 130, 199] {
        rel.tombstone(r);
    }
    // Rows appended after the last tombstone lie past the bitset.
    rel.insert(&[c(500)]);
    let want: Vec<u32> = rel.row_ids(..).filter(|&r| !rel.is_live(r)).collect();
    assert_eq!(rel.dead_row_ids().collect::<Vec<_>>(), want);
    assert_eq!(want, [0, 5, 63, 64, 127, 130, 199]);
}

#[test]
fn zero_arity_relation_holds_at_most_one_row() {
    let mut rel = ColumnarRelation::new(0);
    assert!(!rel.contains(&[]));
    assert!(rel.insert(&[]));
    assert!(!rel.insert(&[]));
    assert_eq!(rel.num_rows(), 1);
    assert!(rel.contains(&[]));
    assert_eq!(rel.row(0), &[] as &[Const]);
}

#[test]
fn dedup_survives_growth() {
    let mut rel = ColumnarRelation::new(1);
    for i in 0..1000 {
        assert!(rel.insert(&[c(i)]));
    }
    for i in 0..1000 {
        assert!(!rel.insert(&[c(i)]));
        assert!(rel.contains(&[c(i)]));
    }
    assert_eq!(rel.num_rows(), 1000);
}

#[test]
fn index_chains_are_newest_first() {
    let mut rel = ColumnarRelation::new(2);
    // key = column 0; three rows share key 7
    rel.insert(&[c(7), c(0)]);
    rel.insert(&[c(8), c(1)]);
    rel.insert(&[c(7), c(2)]);
    rel.insert(&[c(7), c(3)]);
    let mut idx = IncrementalIndex::new(0, vec![0]);
    idx.extend(&rel);
    let rows = collect(&idx, &rel, &[c(7)]);
    assert_eq!(rows, vec![3, 2, 0], "newest-first, strictly decreasing");
    assert_eq!(collect(&idx, &rel, &[c(9)]), Vec::<u32>::new());
}

#[test]
fn incremental_extension_matches_full_rebuild() {
    let mut rel = ColumnarRelation::new(2);
    let mut incremental = IncrementalIndex::new(0, vec![1]);
    for step in 0..10 {
        for i in 0..50u32 {
            rel.insert(&[c(step * 50 + i), c(i % 7)]);
        }
        incremental.extend(&rel);
    }
    let mut fresh = IncrementalIndex::new(0, vec![1]);
    fresh.extend(&rel);
    for k in 0..7u32 {
        assert_eq!(
            collect(&incremental, &rel, &[c(k)]),
            collect(&fresh, &rel, &[c(k)]),
            "key {k}"
        );
    }
}

#[test]
fn shard_ranges_partition_top_down() {
    for (lo, hi, k) in [(0, 100, 8), (5, 6, 4), (7, 7, 3), (0, 3, 8), (10, 1000, 1)] {
        let shards = shard_ranges(lo, hi, k);
        assert_eq!(shards.len(), k);
        // top-down, contiguous, exactly covering [lo, hi)
        let mut top = hi;
        for &(a, b) in &shards {
            assert_eq!(b, top, "contiguous top-down");
            assert!(a <= b);
            top = a;
        }
        assert_eq!(top, lo);
        let total: usize = shards.iter().map(|(a, b)| b - a).sum();
        assert_eq!(total, hi - lo);
        // balanced: sizes differ by at most one
        let sizes: Vec<usize> = shards.iter().map(|(a, b)| b - a).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "{lo}..{hi} x{k}: {sizes:?}");
    }
}

#[test]
fn tombstone_removes_membership_and_reinsert_gets_new_id() {
    let mut rel = ColumnarRelation::new(2);
    rel.insert(&[c(1), c(2)]);
    rel.insert(&[c(3), c(4)]);
    assert!(rel.tombstone(0));
    assert!(!rel.tombstone(0), "already dead");
    assert!(!rel.contains(&[c(1), c(2)]));
    assert_eq!(rel.find_row(&[c(1), c(2)]), NO_ROW);
    assert!(rel.contains(&[c(3), c(4)]));
    assert!(!rel.is_live(0));
    assert!(rel.is_live(1));
    assert_eq!(rel.num_live(), 1);
    assert_eq!(rel.num_rows(), 2, "row ids never shift");
    // Re-insert appends a fresh id; the dead row stays dead.
    assert!(rel.insert(&[c(1), c(2)]));
    assert_eq!(rel.find_row(&[c(1), c(2)]), 2);
    assert!(!rel.is_live(0));
    assert_eq!(rel.num_live(), 2);
    let live: Vec<_> = rel.rows_iter().collect();
    assert_eq!(live, vec![&[c(3), c(4)][..], &[c(1), c(2)][..]]);
}

#[test]
fn tombstones_survive_growth_and_mass_churn() {
    let mut rel = ColumnarRelation::new(1);
    for i in 0..500u32 {
        rel.insert(&[c(i)]);
    }
    for i in (0..500u32).step_by(2) {
        assert!(rel.tombstone(i as usize));
    }
    // Growth rebuilds the dedup table from live rows only.
    for i in 500..1500u32 {
        assert!(rel.insert(&[c(i)]));
    }
    for i in 0..500u32 {
        assert_eq!(rel.contains(&[c(i)]), i % 2 == 1, "{i}");
    }
    assert_eq!(rel.num_live(), 250 + 1000);
    // Dead tuples re-insert at fresh ids, exactly once.
    for i in (0..500u32).step_by(2) {
        assert!(rel.insert(&[c(i)]));
        assert!(!rel.insert(&[c(i)]));
    }
    assert_eq!(rel.num_live(), 1500);
    assert_eq!(rel.num_rows(), 1750);
}

#[test]
fn rows_appended_after_a_tombstone_are_live() {
    let mut rel = ColumnarRelation::new(1);
    rel.insert(&[c(0)]);
    rel.tombstone(0);
    for i in 1..200u32 {
        rel.insert(&[c(i)]);
        assert!(rel.is_live(i), "{i}");
    }
}

#[test]
fn epoch_tags_resurrect_rows_for_pinned_readers() {
    let mut rel = ColumnarRelation::new(1);
    rel.insert(&[c(0)]); // row 0, alive from epoch 0
    // Round producing epoch 1: insert row 1.
    rel.set_epoch(1);
    rel.insert(&[c(1)]);
    // Round producing epoch 2: retract row 0.
    rel.set_epoch(2);
    rel.tombstone(0);
    // Round producing epoch 3: re-insert the tuple (fresh row id 2).
    rel.set_epoch(3);
    rel.insert(&[c(0)]);

    // A reader pinned at epoch 1 (frontier 2) sees rows 0 and 1: row
    // 0 died in epoch 2 (> 1), row 2 is past the frontier.
    let snap: Vec<Vec<Const>> =
        rel.rows_iter_at(2, 1).map(|r| r.to_vec()).collect();
    assert_eq!(snap, vec![vec![c(0)], vec![c(1)]]);
    // A reader pinned at epoch 2 (frontier 2) no longer sees row 0.
    let snap: Vec<Vec<Const>> =
        rel.rows_iter_at(2, 2).map(|r| r.to_vec()).collect();
    assert_eq!(snap, vec![vec![c(1)]]);
    // A reader at the current epoch (frontier 3) sees the re-insert.
    let snap: Vec<Vec<Const>> =
        rel.rows_iter_at(3, 3).map(|r| r.to_vec()).collect();
    assert_eq!(snap, vec![vec![c(1)], vec![c(0)]]);
    // A frontier beyond the store clamps.
    assert_eq!(rel.rows_iter_at(100, 3).count(), 2);
}

#[test]
fn reclaim_drops_only_unpinnable_tags() {
    let mut rel = ColumnarRelation::new(1);
    for i in 0..4u32 {
        rel.insert(&[c(i)]);
    }
    rel.set_epoch(1);
    rel.tombstone(0);
    rel.set_epoch(2);
    rel.tombstone(1);
    rel.set_epoch(3);
    rel.tombstone(2);
    // Readers pinned at >= 1 remain: tags <= 1 are reclaimable.
    rel.reclaim_tombstones(1);
    // The epoch-1 death (row 0) lost its tag — dead at every epoch.
    assert!(!rel.visible_at(0, 0), "untagged dead row is dead everywhere");
    // Later deaths still resurrect for earlier pins.
    assert!(rel.visible_at(1, 1), "row 1 died in epoch 2");
    assert!(!rel.visible_at(1, 2));
    assert!(rel.visible_at(2, 2), "row 2 died in epoch 3");
    // Full reclamation: nothing resurrects any more.
    rel.reclaim_tombstones(3);
    assert!(!rel.visible_at(1, 1));
    assert!(!rel.visible_at(2, 2));
    assert!(rel.visible_at(3, 0), "live rows are visible at any epoch");
}

#[test]
fn plain_relations_never_populate_the_epoch_table() {
    let mut rel = ColumnarRelation::new(1);
    rel.insert(&[c(7)]);
    rel.tombstone(0); // epoch mode off: no tag
    assert!(!rel.visible_at(0, 0), "dead without a tag is just dead");
    assert_eq!(rel.rows_iter_at(1, 0).count(), 0);
}

#[test]
fn compact_renumbers_survivors_and_rebuilds_dedup() {
    let mut rel = ColumnarRelation::new(2);
    for i in 0..300u32 {
        rel.insert(&[c(i), c(i + 1)]);
    }
    for i in (0..300).step_by(3) {
        rel.tombstone(i);
    }
    let remap = rel.compact();
    assert_eq!(remap.len(), 300);
    assert_eq!(rel.num_rows(), 200);
    assert_eq!(rel.num_dead(), 0);
    let mut expect = 0u32;
    for (old, &new) in remap.iter().enumerate() {
        if old % 3 == 0 {
            assert_eq!(new, NO_ROW, "dead row {old} dropped");
        } else {
            assert_eq!(new, expect, "dense, order-preserving");
            expect += 1;
        }
    }
    for i in 0..300u32 {
        let present = i % 3 != 0;
        assert_eq!(rel.contains(&[c(i), c(i + 1)]), present, "{i}");
        if present {
            assert_eq!(rel.find_row(&[c(i), c(i + 1)]), remap[i as usize]);
        }
    }
    // Inserts keep working after the rebuild, at dense fresh ids.
    assert!(rel.insert(&[c(0), c(1)]));
    assert_eq!(rel.find_row(&[c(0), c(1)]), 200);
    assert!(!rel.insert(&[c(1), c(2)]), "survivor still deduped");
}

#[test]
fn compact_clears_epoch_tags_but_keeps_the_epoch() {
    let mut rel = ColumnarRelation::new(1);
    rel.insert(&[c(0)]);
    rel.insert(&[c(1)]);
    rel.set_epoch(5);
    rel.tombstone(0);
    assert_eq!(rel.tomb_tags().len(), 1);
    let remap = rel.compact();
    assert_eq!(remap, vec![NO_ROW, 0]);
    assert_eq!(rel.tomb_tags().len(), 0);
    assert_eq!(rel.epoch, 5);
    // New tombstones keep getting tagged with the preserved epoch.
    rel.tombstone(0);
    assert_eq!(rel.tomb_tags().get(&0), Some(&5));
}

#[test]
fn from_persist_round_trips_contents_and_liveness() {
    let mut rel = ColumnarRelation::new(2);
    for i in 0..100u32 {
        rel.insert(&[c(i), c(i * 2)]);
    }
    rel.set_epoch(3);
    for i in (0..100).step_by(7) {
        rel.tombstone(i);
    }
    let mut rebuilt = ColumnarRelation::from_persist(
        rel.arity(),
        rel.data().to_vec(),
        rel.num_rows(),
        rel.dead_words().to_vec(),
    );
    // The tombstoned-row count is the bitset's popcount; the relation
    // comes back out of epoch mode, with no tags.
    assert_eq!(rebuilt.num_dead(), rel.num_dead());
    assert_eq!((rebuilt.epoch, rebuilt.tomb_tags().len()), (0, 0));
    rebuilt.set_epoch(3);
    // The dedup table comes back lazily: stale until the first
    // mutating touch, then bit-equivalent in behavior.
    rebuilt.ensure_slots();
    assert_eq!(rebuilt.num_rows(), rel.num_rows());
    assert_eq!(rebuilt.num_live(), rel.num_live());
    for i in 0..100u32 {
        let t = [c(i), c(i * 2)];
        assert_eq!(rebuilt.contains(&t), rel.contains(&t), "{i}");
        assert_eq!(rebuilt.find_row(&t), rel.find_row(&t), "{i}");
        assert_eq!(rebuilt.is_live(i), rel.is_live(i));
        assert_eq!(rebuilt.visible_at(i, 3), rel.visible_at(i, 3));
    }
}

#[test]
fn stale_dedup_rebuilds_on_first_write() {
    let mut rel = ColumnarRelation::new(2);
    for i in 0..50u32 {
        rel.insert(&[c(i), c(i + 1)]);
    }
    let mut restored = ColumnarRelation::from_persist(
        rel.arity(),
        rel.data().to_vec(),
        rel.num_rows(),
        rel.dead_words().to_vec(),
    );
    // No explicit ensure: the insert itself must rebuild first, so
    // a duplicate of a restored row still dedups...
    assert!(!restored.insert(&[c(3), c(4)]));
    // ...and a novel row gets the next dense id.
    assert!(restored.insert(&[c(99), c(100)]));
    assert_eq!(restored.find_row(&[c(99), c(100)]), 50);
    assert_eq!(restored.num_rows(), 51);
}

#[test]
fn index_reset_then_extend_matches_fresh() {
    let mut rel = ColumnarRelation::new(2);
    for i in 0..100u32 {
        rel.insert(&[c(i % 5), c(i)]);
    }
    let mut idx = IncrementalIndex::new(0, vec![0]);
    idx.extend(&rel);
    idx.reset();
    assert_eq!(idx.watermark(), 0);
    idx.extend(&rel);
    let mut fresh = IncrementalIndex::new(0, vec![0]);
    fresh.extend(&rel);
    for k in 0..5u32 {
        assert_eq!(collect(&idx, &rel, &[c(k)]), collect(&fresh, &rel, &[c(k)]), "key {k}");
    }
}

#[test]
fn empty_mask_chains_every_row() {
    let mut rel = ColumnarRelation::new(1);
    for i in 0..20u32 {
        rel.insert(&[c(i)]);
    }
    let mut idx = IncrementalIndex::new(0, vec![]);
    idx.extend(&rel);
    let rows = collect(&idx, &rel, &[]);
    assert_eq!(rows.len(), 20);
    assert_eq!(rows, (0..20u32).rev().collect::<Vec<_>>());
}

/// Every key, every snapshot window: a posting — hot chain, then
/// frozen segment — is the brute-force descending scan of `[lo, hi)`
/// for the rows whose mask projection is the key.
#[test]
fn segmented_and_chained_layouts_enumerate_identically() {
    for mask in [vec![0usize], vec![1], vec![0, 1]] {
        let mut rel = ColumnarRelation::new(3);
        let mut idx = IncrementalIndex::new(0, mask.clone());
        // Interleave extensions (some tiny, some spanning several
        // freeze thresholds) so segments and hot chains coexist.
        let mut n = 0u32;
        for batch in [3usize, 90, 7, 400, 1, 150] {
            for _ in 0..batch {
                // ~11 distinct keys on column 0, ~7 on column 1;
                // column 2 keeps the rows distinct (insert dedups)
                rel.insert(&[c(n % 11), c(n % 7), c(n)]);
                n += 1;
            }
            idx.extend(&rel);
        }
        assert!(idx.seg_pool_words() > 0, "mask {mask:?}: segments built");
        assert!(!idx.next.is_empty(), "mask {mask:?}: hot chains left");
        let keys: Vec<Vec<Const>> = match mask.len() {
            1 => (0..12u32).map(|k| vec![c(k)]).collect(),
            _ => (0..12u32).flat_map(|a| (0..8u32).map(move |b| vec![c(a), c(b)])).collect(),
        };
        let rows = rel.num_rows();
        for key in &keys {
            for (lo, hi) in [(0, rows), (0, 97), (97, rows), (200, 450), (rows, rows)] {
                let scan: Vec<u32> = rel
                    .row_ids(lo..hi)
                    .rev()
                    .filter(|&r| mask.iter().zip(key).all(|(&p, &k)| rel.value(r, p) == k))
                    .collect();
                assert_eq!(
                    collect_range(&idx, &rel, key, lo, hi),
                    scan,
                    "mask {mask:?} key {key:?} range [{lo}, {hi})"
                );
            }
        }
    }
}

/// The freeze policy keeps amortized work linear: the frozen store
/// at least doubles per freeze, and everything frozen stays probed.
#[test]
fn freeze_policy_doubles_and_preserves_postings() {
    let mut rel = ColumnarRelation::new(2);
    let mut idx = IncrementalIndex::new(0, vec![0]);
    let mut frozen_sizes = Vec::new();
    let mut last_pool = 0usize;
    for i in 0..5000u32 {
        // distinct tuples (insert dedups), low-cardinality key column
        rel.insert(&[c(i % 3), c(i)]);
        idx.extend(&rel);
        if idx.seg_pool_words() != last_pool {
            frozen_sizes.push(idx.seg_pool_words());
            last_pool = idx.seg_pool_words();
        }
    }
    assert!(frozen_sizes.len() >= 2, "multiple freezes over 5000 rows");
    for w in frozen_sizes.windows(2) {
        assert!(w[1] >= 2 * w[0], "frozen store at least doubles: {frozen_sizes:?}");
    }
    for k in 0..3u32 {
        let rows = collect(&idx, &rel, &[c(k)]);
        let want: Vec<u32> = (0..5000u32).rev().filter(|r| r % 3 == k).collect();
        assert_eq!(rows, want, "key {k}");
    }
}

#[test]
fn single_key_fast_path_matches_general_probe() {
    let mut rel = ColumnarRelation::new(3);
    for i in 0..500u32 {
        rel.insert(&[c(i % 13), c(i), c(i % 5)]);
    }
    let mut idx = IncrementalIndex::new(0, vec![2]);
    idx.extend(&rel);
    for k in 0..6u32 {
        // probe_range delegates to probe1_range for single masks;
        // both entry points must agree.
        assert_eq!(
            collect(&idx, &rel, &[c(k)]),
            {
                let mut p = idx.probe1_range(&rel, c(k), 0, rel.num_rows());
                let mut rows = Vec::new();
                loop {
                    let r = idx.next_match(&mut p);
                    if r == NO_ROW {
                        break;
                    }
                    rows.push(r);
                }
                rows
            },
            "key {k}"
        );
    }
    assert_eq!(idx.num_keys(), 5);
    assert!(collect(&idx, &rel, &[c(99)]).is_empty());
}

/// A multi-column key table holds representative rows: probing it
/// with one raw value must fail loudly, in release builds too.
#[test]
#[should_panic(expected = "single-column mask")]
fn probe1_range_rejects_a_multi_column_index() {
    let mut rel = ColumnarRelation::new(2);
    rel.insert(&[c(1), c(2)]);
    let mut idx = IncrementalIndex::new(0, vec![0, 1]);
    idx.extend(&rel);
    idx.probe1_range(&rel, c(1), 0, 1);
}

#[test]
fn footprint_counts_segment_pool() {
    let mut rel = ColumnarRelation::new(2);
    for i in 0..300u32 {
        rel.insert(&[c(i % 4), c(i)]);
    }
    let mut idx = IncrementalIndex::new(0, vec![0]);
    idx.extend(&rel);
    assert!(idx.seg_pool_words() > 0);
    assert!(idx.footprint_words() >= idx.seg_pool_words());
    idx.reset();
    assert_eq!(idx.seg_pool_words(), 0);
    assert_eq!(idx.footprint_words(), 0);
    // Re-extending re-freezes.
    idx.extend(&rel);
    assert!(idx.seg_pool_words() > 0);
}

/// The row ceiling at its boundary, without 2^31 rows: the append's
/// check gives a relation of `MAX_ROWS - 1` rows its last row id, which
/// still encodes as an inline slot that is not `NO_KEY`, and stays below
/// every sentinel.
#[test]
fn the_row_id_ceiling_keeps_inline_slots_and_ids_apart_from_the_sentinels() {
    let last = next_row_id(MAX_ROWS - 1);
    assert_eq!(last as usize, MAX_ROWS - 1);
    assert_ne!(INLINE | last, NO_KEY);
    assert_eq!((INLINE | last) & !INLINE, last);
    assert!(last < INLINE, "no id carries the tag bit, so none is a sentinel");
}

/// A relation of `MAX_ROWS` rows refuses the next one at the append.
#[test]
#[should_panic(expected = "a relation holds at most")]
fn a_row_past_the_ceiling_is_refused() {
    next_row_id(MAX_ROWS);
}

/// One row per key costs the key-table slot alone: at most half full,
/// so 2–4 words per key (a key record and a pool entry would add five).
#[test]
fn an_index_of_one_row_keys_holds_at_most_five_words_per_key() {
    for n in [1usize, 5, 1000, 1025, 4096, 50_020, 65_536] {
        let mut rel = ColumnarRelation::new(2);
        for i in 0..n as u32 {
            rel.insert(&[c(i.wrapping_mul(0x9E37_79B9)), c(i)]);
        }
        for mask in [vec![0], vec![0, 1]] {
            let mut idx = IncrementalIndex::new(0, mask.clone());
            idx.extend(&rel);
            assert_eq!(idx.num_keys(), n);
            let words = idx.footprint_words();
            assert!(words <= 5 * n.max(2), "n {n} mask {mask:?}: {words} words");
        }
    }
}

/// The table is sized from the keys, not the rows: an index rebuilt
/// after a reset over 65 536 rows of 64 keys holds its rows once plus a
/// few words per key. A table sized for one key per row would hold
/// 131 072 slots more.
#[test]
fn a_reset_index_sizes_its_key_table_from_the_keys() {
    const N: u32 = 65_536;
    let mut rel = ColumnarRelation::new(2);
    let mut idx = IncrementalIndex::new(0, vec![0]);
    for i in 0..N {
        rel.insert(&[c(i % 64), c(i)]);
        if i % 4096 == 0 {
            idx.extend(&rel);
        }
    }
    idx.extend(&rel);
    idx.reset();
    idx.extend(&rel);
    assert_eq!(idx.num_keys(), 64);
    assert!(idx.footprint_words() <= N as usize + 64 * 8, "{} words", idx.footprint_words());
    for k in 0..64u32 {
        let want: Vec<u32> = (0..N).rev().filter(|r| r % 64 == k).collect();
        assert_eq!(collect(&idx, &rel, &[c(k)]), want, "key {k}");
    }
}

/// How often the layout oracle reached the incremental path's
/// promotion arm, by where the key's first row was.
#[derive(Debug, Default)]
struct Promotions {
    chained: usize,
    frozen: usize,
}

/// Each index of the oracle against the brute-force descending scan of
/// the rows below `hi` and from `lo` with its key, for a sample of the
/// keys the relation holds, one it does not, and random windows
/// (tombstoned rows included: an index does not track liveness).
fn check_postings(
    idxs: &[&IncrementalIndex],
    rel: &ColumnarRelation,
    rng: &mut proptest::test_runner::TestRng,
) -> Result<(), String> {
    let n = rel.num_rows();
    let mask = idxs[0].mask().to_vec();
    let key_of = |r: u32| mask.iter().map(|&p| rel.value(r, p)).collect::<Vec<_>>();
    let mut keys: Vec<Vec<Const>> = rel.row_ids(..).map(key_of).collect();
    keys.sort();
    keys.dedup();
    for idx in idxs {
        if idx.num_keys() != keys.len() {
            return Err(format!("num_keys {} for {} distinct keys", idx.num_keys(), keys.len()));
        }
    }
    let step = keys.len() / 16 + 1;
    let absent = vec![c(u32::MAX - 3); mask.len()];
    for key in keys.iter().step_by(step).chain([&absent]) {
        let mut windows = vec![(0, n)];
        for _ in 0..2 {
            let (a, b) = (rng.below(n as u64 + 1) as usize, rng.below(n as u64 + 1) as usize);
            windows.push((a.min(b), a.max(b)));
        }
        for (lo, hi) in windows {
            let scan: Vec<u32> = rel.row_ids(lo..hi).rev().filter(|&r| key_of(r) == *key).collect();
            for idx in idxs {
                let got = collect_range(idx, rel, key, lo, hi);
                if got != scan {
                    return Err(format!("key {key:?} [{lo}, {hi}): {got:?} != {scan:?}"));
                }
            }
        }
    }
    Ok(())
}

/// Extends `idx` over `rel`, counting the promotion arm's entries: a
/// key inline before the extend and in the delta is promoted once, from
/// the chain or, if its row lies below `frozen`, into a one-row segment.
fn extend_counting(idx: &mut IncrementalIndex, rel: &ColumnarRelation, seen: &mut Promotions) {
    if idx.watermark() > 0 {
        let delta: Vec<u32> = rel.row_ids(idx.watermark()..).collect();
        for s in idx.slots.iter().copied().filter(|&s| s != NO_KEY && s & INLINE != 0) {
            let r0 = s & !INLINE;
            if delta.iter().any(|&r| keys_equal(&idx.mask, rel, r0, r)) {
                if (r0 as usize) < idx.frozen {
                    seen.frozen += 1;
                } else {
                    seen.chained += 1;
                }
            }
        }
    }
    idx.extend(rel);
}

/// The layout oracle: over relations whose keys have one row each, mixed
/// multiplicities or a single key, an index built by one bulk extend and
/// then deltas of 1..k rows, and one extended a row at a time, both
/// equal the brute-force scan after every extend — through tombstones,
/// and through compactions that reset and re-extend them — and count
/// every distinct key. Both promotion arms must be reached.
#[test]
fn bulk_and_incremental_builds_equal_the_brute_force_scan() {
    use proptest::prelude::Strategy;
    use proptest::test_runner::TestRng;
    const CASES: usize = 96;
    let mut rng = TestRng::from_name("bulk_and_incremental_builds_equal_the_brute_force_scan");
    let cases = (
        0u8..3,
        0usize..3,
        proptest::collection::vec((0u32..1 << 16, 0u8..8), 1..260),
        0usize..260,
        1usize..40,
    );
    let mut seen = Promotions::default();
    for case in 0..CASES {
        let (shape, mask, picks, bulk, k) = cases.new_value(&mut rng);
        let n = picks.len() as u32;
        // Column 0 holds the key; column 1 a second key part; column 2
        // keeps the rows distinct.
        let row = |i: u32, (pick, _): (u32, u8)| match shape {
            0 => [c(i), c(i % 3), c(i)],
            1 => [c(pick % (n / 3 + 1)), c(pick % 2), c(i)],
            _ => [c(7), c(1), c(i)],
        };
        let mask = [vec![0], vec![0, 1], vec![1, 0]][mask].clone();
        let mut rel = ColumnarRelation::new(3);
        let mut bulk_idx = IncrementalIndex::new(0, mask.clone());
        let mut rowwise = IncrementalIndex::new(0, mask.clone());
        let mut next_extend = bulk.min(picks.len());
        for (i, &p) in picks.iter().enumerate() {
            rel.insert(&row(i as u32, p));
            extend_counting(&mut rowwise, &rel, &mut seen);
            if i + 1 < next_extend {
                continue;
            }
            extend_counting(&mut bulk_idx, &rel, &mut seen);
            next_extend = i + 1 + 1 + (p.0 as usize) % k;
            match p.1 {
                // A tombstone: the index still holds the row.
                0 | 1 => {
                    rel.tombstone(p.0 as usize % rel.num_rows());
                }
                // A compaction renumbers the rows: both indexes start over.
                2 if rel.num_dead() > 0 => {
                    rel.compact();
                    for idx in [&mut bulk_idx, &mut rowwise] {
                        idx.reset();
                        idx.extend(&rel);
                    }
                }
                _ => {}
            }
            if let Err(e) = check_postings(&[&bulk_idx, &rowwise], &rel, &mut rng) {
                panic!("case {}/{CASES} (shape {shape}, mask {mask:?}, row {i}): {e}", case + 1);
            }
        }
    }
    println!("{seen:?}");
    assert!(seen.chained >= 300 && seen.frozen >= 300, "{seen:?}");
}
