//! Fault injection over the snapshot persistence layer
//! (`selprop_datalog::persist`), driven through **real** materialization
//! snapshots — not synthetic containers.
//!
//! The crash-safety contract, exercised exhaustively:
//!
//! - truncating a snapshot at **every** byte boundary yields a clean
//!   [`PersistError`] (never a panic, never a silently wrong store);
//! - corrupting **any** single byte yields a clean error — the trailing
//!   checksum (lane-interleaved FNV-1a 64) catches every one-byte
//!   change, and the header checks (magic, version, stored length)
//!   catch framing damage before the payload is even parsed;
//! - a crash between writing the temp file and the atomic rename leaves
//!   the previous snapshot intact and restorable;
//! - an intact snapshot of a large closure round-trips bit-for-bit and
//!   behaves identically under subsequent updates.

use selprop_datalog::eval::Strategy;
use selprop_datalog::storage::MAX_ROWS;
use selprop_datalog::{
    parse_program, Materialization, PersistError, Pred, Program, RuleId, Server, UpdateRound,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh directory per call: the tests of this file run on parallel
/// threads of one process, so a name made of the process id alone is
/// shared — and one test's clean-up used to delete it under another.
fn scratch_dir(tag: &str) -> PathBuf {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "selprop-{tag}-{}-{}",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const SRC: &str = "?- anc(john, Y).\n\
                   anc(X, Y) :- par(X, Y).\n\
                   anc(X, Y) :- anc(X, Z), par(Z, Y).";

fn chain_edges(p: &mut Program, n: usize) -> Vec<Vec<selprop_datalog::Const>> {
    let mut prev = p.symbols.constant("john");
    (1..=n)
        .map(|i| {
            let c = p.symbols.constant(&format!("c{i}"));
            let t = vec![prev, c];
            prev = c;
            t
        })
        .collect()
}

/// A small store with every kind of persisted state: live rows, dead
/// rows with epoch tags, a dropped rule slot, and a non-zero epoch —
/// built through the server so the epoch machinery is engaged.
fn interesting_snapshot() -> Vec<u8> {
    let mut p = parse_program(SRC).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let edges = chain_edges(&mut p, 12);
    let server = Server::new(&p, Strategy::SemiNaive);
    server.apply(&UpdateRound::new().insert_all(par, &edges));
    // Pin a snapshot so the retraction's tombstone tags are *retained*
    // in the saved image (reclamation is deferred past the save).
    let pin = server.snapshot();
    server.apply(&UpdateRound::new().retract_all(par, &edges[6..8]));
    assert_eq!(server.apply(&UpdateRound::new().drop_rule(RuleId(1))).rules_dropped, 1);
    let dir = scratch_dir("fault");
    let path = dir.join("interesting.snap");
    server.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    drop(pin);
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

#[test]
fn every_truncation_boundary_fails_cleanly() {
    let bytes = interesting_snapshot();
    assert!(
        Materialization::from_bytes(&bytes).is_ok(),
        "the intact snapshot must restore"
    );
    for len in 0..bytes.len() {
        let err = Materialization::from_bytes(&bytes[..len])
            .err()
            .unwrap_or_else(|| panic!("truncation to {len}/{} bytes must fail", bytes.len()));
        // Truncations fail at the framing layer: the header length check
        // (or, for sub-header prefixes, the magic/length probes) fires
        // before any payload byte is interpreted.
        assert!(
            matches!(
                err,
                PersistError::TooShort | PersistError::LengthMismatch { .. }
            ),
            "truncation to {len} bytes: unexpected error {err:?}"
        );
    }
}

#[test]
fn every_single_byte_corruption_fails_cleanly() {
    let bytes = interesting_snapshot();
    for offset in 0..bytes.len() {
        for flip in [0x01u8, 0xFF] {
            let mut bad = bytes.clone();
            bad[offset] ^= flip;
            assert!(
                Materialization::from_bytes(&bad).is_err(),
                "corrupting byte {offset} (xor {flip:#x}) must not restore a store"
            );
        }
    }
}

#[test]
fn corrupted_header_fields_report_their_specific_error() {
    let bytes = interesting_snapshot();

    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        Materialization::from_bytes(&bad_magic),
        Err(PersistError::BadMagic)
    ));

    // The version field sits right after the 8-byte magic; a future
    // version must be rejected as such, before checksum or payload.
    let mut bad_version = bytes.clone();
    bad_version[8] ^= 0x40;
    assert!(matches!(
        Materialization::from_bytes(&bad_version),
        Err(PersistError::BadVersion(_))
    ));

    // Trailing garbage breaks the stored-length check.
    let mut padded = bytes;
    padded.extend_from_slice(b"junk");
    assert!(matches!(
        Materialization::from_bytes(&padded),
        Err(PersistError::LengthMismatch { .. })
    ));
}

/// The container checksum as `persist`'s module docs specify it:
/// eight-lane interleaved FNV-1a 64, lane `i` seeded with byte `i` of
/// the length, the lanes folded by one more FNV step each.
fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let step = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(PRIME);
    let mut lanes = [OFFSET; 8];
    let seeded = (bytes.len() as u64).to_le_bytes();
    for (i, &b) in seeded.iter().chain(bytes).enumerate() {
        lanes[i % 8] = step(lanes[i % 8], b);
    }
    lanes.iter().fold(OFFSET, |h, &lane| (h ^ lane).wrapping_mul(PRIME))
}

/// `bytes` with its version field set to `version`, its length field to
/// the actual length and the trailing checksum recomputed: a container
/// whose framing is valid throughout.
fn restamped(bytes: &[u8], version: u32) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[8..12].copy_from_slice(&version.to_le_bytes());
    out[12..20].copy_from_slice(&(bytes.len() as u64).to_le_bytes());
    let body = out.len() - 8;
    let check = fnv1a64(&out[..body]);
    out[body..].copy_from_slice(&check.to_le_bytes());
    out
}

/// Every version bump dropped bytes from the middle of the payload. A
/// version-3 file — intact framing, valid checksum — must be refused by
/// its version, never handed to the current decoder to be mis-parsed.
#[test]
fn a_version_3_container_is_refused_not_misparsed() {
    let bytes = interesting_snapshot();
    let current = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    assert_eq!(restamped(&bytes, current), bytes, "the helper reproduces the container checksum");
    assert!(matches!(
        Materialization::from_bytes(&restamped(&bytes, 3)),
        Err(PersistError::BadVersion(3))
    ));
}

/// Strategy tag 3 was a parallel strategy with an explicit shard count
/// (`threads`, then `shards`, after the tag). The strategy is gone, and
/// a container carrying the tag — intact framing, every later section
/// where the old decoder expected it — is refused, not decoded as
/// something else.
#[test]
fn a_strategy_tag_3_container_is_refused_as_corrupt() {
    let mut p = parse_program(SRC).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let edges = chain_edges(&mut p, 4);
    let mut m = Materialization::new(&p, Strategy::SemiNaiveParallel { threads: 2 });
    m.apply(&UpdateRound::new().insert_all(par, &edges));
    let bytes = m.to_bytes();
    // The payload opens with the strategy: tag 2, then `threads`.
    assert_eq!((bytes[20], &bytes[21..29]), (2, &2u64.to_le_bytes()[..]));
    let mut sharded = bytes[..29].to_vec();
    sharded[20] = 3;
    sharded.extend_from_slice(&7u64.to_le_bytes());
    sharded.extend_from_slice(&bytes[29..]);
    let current = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    assert!(matches!(
        Materialization::from_bytes(&restamped(&sharded, current)),
        Err(PersistError::Corrupt("unknown strategy tag"))
    ));
}

/// Strategy tag 0 was the naive strategy. It is gone, and a container
/// carrying the tag — intact framing, the rest of the payload a
/// semi-naive store's — is refused, not decoded as something else.
#[test]
fn a_strategy_tag_0_container_is_refused_as_corrupt() {
    let mut p = parse_program(SRC).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let edges = chain_edges(&mut p, 4);
    let mut m = Materialization::new(&p, Strategy::SemiNaive);
    m.apply(&UpdateRound::new().insert_all(par, &edges));
    let mut bytes = m.to_bytes();
    assert_eq!(bytes[20], 1, "the payload opens with the strategy tag");
    bytes[20] = 0;
    let current = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    assert!(matches!(
        Materialization::from_bytes(&restamped(&bytes, current)),
        Err(PersistError::Corrupt("unknown strategy tag"))
    ));
}

/// A parallel store's thread count is any `u64` in a snapshot. A count
/// of 2⁶² or more used to overflow the shard count (`OVERSHARD ×
/// threads`) in the first round after a restore, a panic under the
/// server's write lock that poisoned it for every reader. A round runs
/// on at most `MAX_THREADS` threads; the store keeps the count as given,
/// so the forged file still re-encodes byte for byte.
#[test]
fn a_thread_count_past_the_cap_runs_capped() {
    let mut p = parse_program(SRC).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let edges = chain_edges(&mut p, 6);
    let mut seq = Materialization::new(&p, Strategy::SemiNaive);
    seq.apply(&UpdateRound::new().insert_all(par, &edges));
    let expect = seq.answer().sorted();

    let mut wide = Materialization::new(&p, Strategy::SemiNaiveParallel { threads: usize::MAX });
    wide.apply(&UpdateRound::new().insert_all(par, &edges));
    assert_eq!(wide.answer().sorted(), expect);

    let mut two = Materialization::new(&p, Strategy::SemiNaiveParallel { threads: 2 });
    two.apply(&UpdateRound::new().insert_all(par, &edges[..3]));
    let mut forged = two.to_bytes();
    // The payload opens with the strategy: tag 2, then `threads`.
    assert_eq!((forged[20], &forged[21..29]), (2, &2u64.to_le_bytes()[..]));
    forged[21..29].copy_from_slice(&(1u64 << 62).to_le_bytes());
    let current = u32::from_le_bytes(forged[8..12].try_into().unwrap());
    let forged = restamped(&forged, current);
    let restored = Materialization::from_bytes(&forged).expect("the forged count restores");
    assert_eq!(restored.to_bytes(), forged, "re-encoding changed a byte");

    let dir = scratch_dir("threads");
    let path = dir.join("forged.snap");
    std::fs::write(&path, &forged).unwrap();
    let server = Server::restore(&path).unwrap();
    server.apply(&UpdateRound::new().insert_all(par, &edges[3..]));
    assert_eq!(server.answer().sorted(), expect);
    assert_eq!(server.query(&p.goal).sorted(), expect, "the server still answers");
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot of `q(X) :- e(X), flag.` whose 0-ary relation `flag`
/// claims `count` rows behind a valid checksum, with an empty tombstone
/// bitset — every one of them live.
fn nullary_forgery(count: u64) -> (Vec<u8>, selprop_datalog::Pred) {
    let p = parse_program("?- q(X).\nq(X) :- e(X), flag.").unwrap();
    let [e, flag] = ["e", "flag"].map(|n| p.symbols.get_predicate(n).unwrap());
    let mut db = selprop_datalog::Database::new();
    db.insert(e, vec![selprop_datalog::Const(0)]);
    db.insert(flag, Vec::new());
    let bytes = Materialization::from_database(&p, &db, Strategy::SemiNaive).to_bytes();
    // Section 9's entry for `flag`: predicate, EDB, arity 0, one row.
    let entry: Vec<u8> =
        [&flag.0.to_le_bytes()[..], &[0], &0u64.to_le_bytes(), &1u64.to_le_bytes()].concat();
    let at: Vec<usize> = (0..bytes.len() - entry.len())
        .filter(|&i| bytes[i..i + entry.len()] == entry[..])
        .collect();
    assert_eq!(at.len(), 1, "flag's entry found once");
    let rows_at = at[0] + 4 + 1 + 8;
    let mut forged = bytes.clone();
    forged[rows_at..rows_at + 8].copy_from_slice(&count.to_le_bytes());
    let current = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    (restamped(&forged, current), flag)
}

/// Asserts that `forged` is refused as `Corrupt(why)` by the store and
/// by the server.
fn assert_refused_as(forged: &[u8], flag: selprop_datalog::Pred, why: &str) {
    let refused = |r: Result<_, PersistError>| matches!(r, Err(PersistError::Corrupt(w)) if w == why);
    assert!(refused(Materialization::from_bytes(forged).map(|m| m.num_facts(flag))));
    let dir = scratch_dir("nullary");
    let path = dir.join("forged.snap");
    std::fs::write(&path, forged).unwrap();
    assert!(refused(Server::restore(&path).map(|s| s.snapshot().num_facts(flag))));
    std::fs::remove_dir_all(&dir).ok();
}

/// A relation's row count is bounded by the bytes its rows take — except
/// a 0-ary one's, whose rows take none. A forged count there, behind a
/// valid checksum, decoded to a store whose first read walked every row
/// and whose first write sized a dedup table by them. `()` has one live
/// row at most; any other count the row ceiling admits is refused, by
/// the store and by the server.
#[test]
fn a_forged_row_count_on_a_0_ary_relation_is_refused_as_corrupt() {
    let (forged, flag) = nullary_forgery(MAX_ROWS as u64);
    assert_refused_as(&forged, flag, "0-ary relation with more than one live row");
}

/// A relation holds at most `MAX_ROWS` rows, the ceiling its append
/// checks. A snapshot claiming more is refused by its row count, before
/// the relation is assembled: on a 0-ary relation the cheapest forgery,
/// a count of `MAX_ROWS + 1` over an empty tombstone bitset, takes no
/// byte of row data.
#[test]
fn a_row_count_above_the_ceiling_is_refused_as_corrupt() {
    let (forged, flag) = nullary_forgery(MAX_ROWS as u64 + 1);
    assert_refused_as(&forged, flag, "relation row count above the row ceiling");
}

/// `tests/data/program_a_v5.snap` holds program A over the chain
/// `john → c1 → … → c4`, then `par(c3, c4)` retracted: the store of
/// `program_a_v4.snap`, re-encoded when version 5 dropped every field no
/// restore reads. It must restore, answer like a from-scratch build of
/// the same store, and re-encode to the identical bytes.
#[test]
fn a_golden_version_5_snapshot_restores_and_reencodes_identically() {
    let golden = include_bytes!("data/program_a_v5.snap");
    assert_eq!(golden[20], 1, "a semi-naive store");
    let restored = Materialization::from_bytes(golden).expect("the golden snapshot restores");
    assert_eq!(restored.to_bytes(), golden, "re-encoding changed a byte");

    let mut p = parse_program(SRC).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let edges = chain_edges(&mut p, 4);
    let mut fresh = Materialization::new(&p, Strategy::SemiNaive);
    fresh.apply(&UpdateRound::new().insert_all(par, &edges));
    fresh.apply(&UpdateRound::new().retract_all(par, &edges[3..]));
    assert_eq!(restored.answer().sorted(), fresh.answer().sorted());
    assert_eq!(restored.answer().len(), 3, "anc(john, Y) for Y in c1, c2, c3");
    assert_eq!(restored.database().sorted_models(), fresh.database().sorted_models());
}

/// `tests/data/program_a_v4.snap` is the same store in the version-4
/// layout, whose payload held fields version 5 dropped. Intact framing,
/// valid checksum — and refused by its version, by the store and by the
/// server.
#[test]
fn a_golden_version_4_snapshot_is_refused_by_its_version() {
    let golden = include_bytes!("data/program_a_v4.snap");
    assert!(matches!(Materialization::from_bytes(golden), Err(PersistError::BadVersion(4))));
    let dir = scratch_dir("v4");
    let path = dir.join("program_a_v4.snap");
    std::fs::write(&path, golden).unwrap();
    assert!(matches!(Server::restore(&path), Err(PersistError::BadVersion(4))));
    std::fs::remove_dir_all(&dir).ok();
}

/// `from_bytes` and `Server::restore` of `forged` (restamped with the
/// current version) both fail with `Corrupt(what)`.
fn assert_refused(forged: &[u8], what: &str, tag: &str) {
    let current = u32::from_le_bytes(forged[8..12].try_into().unwrap());
    let forged = restamped(forged, current);
    let refused = |r: Result<_, PersistError>| matches!(r, Err(PersistError::Corrupt(w)) if w == what);
    assert!(refused(Materialization::from_bytes(&forged).map(|m| m.answer())), "{what}");
    let dir = scratch_dir(tag);
    let path = dir.join("forged.snap");
    std::fs::write(&path, &forged).unwrap();
    assert!(refused(Server::restore(&path).map(|s| s.answer())), "{what}, through the server");
    std::fs::remove_dir_all(&dir).ok();
}

/// A goal is read over its predicate's relation, so the decoder refuses
/// a goal atom of another arity — here the golden snapshot's
/// `anc(john, Y)` given a third argument — through `from_bytes` and
/// `Server::restore` alike. Such a file used to restore, and its first
/// `answer()` indexed past the end of a row.
#[test]
fn a_goal_of_another_arity_than_its_relation_is_refused() {
    let golden = include_bytes!("data/program_a_v5.snap");
    let word = |at: usize| u64::from_le_bytes(golden[at..at + 8].try_into().unwrap());
    // The payload opens with the strategy tag and the goal: a predicate,
    // an argument count and five bytes (a tag, a `u32`) per argument.
    assert_eq!((golden[20], word(25)), (1, 2), "a semi-naive store with a binary goal");
    let mut forged = golden.to_vec();
    forged[25..33].copy_from_slice(&3u64.to_le_bytes());
    forged.splice(43..43, golden[38..43].iter().copied());
    assert_refused(&forged, "goal atom does not match its relation", "goal-arity");
}

/// A deletion walk's age test reads row order within a relation, which
/// every justification a store writes follows: a body row in the head's
/// own relation sits below the head. The decoder refuses a file where
/// one does not — here the golden snapshot with one recursive `anc`
/// row's `anc` body row set to the row itself — through `from_bytes`
/// and `Server::restore` alike.
#[test]
fn a_justification_through_a_later_row_of_its_own_relation_is_refused() {
    let golden = include_bytes!("data/program_a_v5.snap");
    let p = parse_program(SRC).unwrap();
    let anc = p.symbols.get_predicate("anc").unwrap();
    let word = |at: usize| u64::from_le_bytes(golden[at..at + 8].try_into().unwrap()) as usize;
    let u32_at = |at: usize| u32::from_le_bytes(golden[at..at + 4].try_into().unwrap());
    let (_, buf_at) = golden_relation(golden, anc, true, 10);
    // Entries are `[rule, body rows]`: rule 0 has one body atom, the
    // recursive rule 1 two, `anc` first.
    let (mut lo, mut head) = (0, 0);
    while u32_at(buf_at + 4 * lo) != 1 {
        lo += 2;
        head += 1;
    }
    let body_at = buf_at + 4 * (lo + 1);
    assert!(lo + 3 <= word(buf_at - 8), "a row recorded through the recursive rule");
    assert!((u32_at(body_at) as usize) < head, "the golden file keeps the order");
    let mut forged = golden.to_vec();
    forged[body_at..body_at + 4].copy_from_slice(&(head as u32).to_le_bytes());
    assert_refused(&forged, "justification body row not below its head row", "own-relation-order");
}

/// Section 9's entry of `pred`, a binary relation of `rows` rows, in the
/// golden snapshot: predicate, IDB flag, arity, row count, then the
/// cells, the tombstone bitset (a length and words) and the
/// justification buffer (a length and `u32`s). Returns the bitset's
/// words and where the buffer's words start.
fn golden_relation(golden: &[u8], pred: Pred, idb: bool, rows: usize) -> (Vec<u64>, usize) {
    let word = |at: usize| u64::from_le_bytes(golden[at..at + 8].try_into().unwrap());
    let entry: Vec<u8> = [
        &pred.0.to_le_bytes()[..],
        &[u8::from(idb)],
        &2u64.to_le_bytes(),
        &(rows as u64).to_le_bytes(),
    ]
    .concat();
    let at: Vec<usize> = (0..golden.len() - entry.len())
        .filter(|&i| golden[i..i + entry.len()] == entry[..])
        .collect();
    assert_eq!(at.len(), 1, "the relation's entry found once");
    let dead_at = at[0] + entry.len() + rows * 2 * 4;
    let words = word(dead_at) as usize;
    let dead = (0..words).map(|k| word(dead_at + 8 + 8 * k)).collect();
    (dead, dead_at + 8 + 8 * words + 8)
}

/// A live row's justification is its current derivation: DRed keeps its
/// body rows live, and compaction remaps them through it — a dead body
/// row has no new id. The decoder refuses a file where a live row's
/// does not — here the golden snapshot with a live `anc` row derived by
/// `anc(X, Y) :- par(X, Y)` pointed at the dead `par(c3, c4)` row —
/// through `from_bytes` and `Server::restore` alike.
#[test]
fn a_live_row_justified_through_a_dead_row_is_refused() {
    let golden = include_bytes!("data/program_a_v5.snap");
    let p = parse_program(SRC).unwrap();
    let [anc, par] = ["anc", "par"].map(|n| p.symbols.get_predicate(n).unwrap());
    let u32_at = |at: usize| u32::from_le_bytes(golden[at..at + 4].try_into().unwrap());
    let (par_dead, _) = golden_relation(golden, par, false, 4);
    assert_eq!(par_dead.iter().map(|w| w.count_ones()).sum::<u32>(), 1, "one dead par row");
    let dead_par = par_dead[0].trailing_zeros();
    let (anc_dead, buf_at) = golden_relation(golden, anc, true, 10);
    assert_eq!(anc_dead.iter().map(|w| w.count_ones()).sum::<u32>(), 4, "four dead anc rows");
    // Entries are `[rule, body rows]`: rule 0 has one body atom, `par`,
    // the recursive rule 1 two. Find a live row of rule 0.
    let (mut lo, mut head) = (0, 0);
    while u32_at(buf_at + 4 * lo) != 0 || anc_dead[0] >> head & 1 == 1 {
        lo += if u32_at(buf_at + 4 * lo) == 0 { 2 } else { 3 };
        head += 1;
        assert!(head < 10, "a live anc row recorded through rule 0");
    }
    let body_at = buf_at + 4 * (lo + 1);
    let mut forged = golden.to_vec();
    forged[body_at..body_at + 4].copy_from_slice(&dead_par.to_le_bytes());
    assert_refused(&forged, "live row justified through a dead row", "dead-body-row");
}

/// A live row's justification names an active rule: a deletion walk
/// never reaches a row justified only by a dropped rule, so a restored
/// store would keep a row outside the model. The golden snapshot with
/// rule 1's activity byte cleared — its live `anc` rows still recorded
/// through it — is refused, through `from_bytes` and `Server::restore`
/// alike.
#[test]
fn a_live_row_justified_by_a_dropped_rule_is_refused() {
    let golden = include_bytes!("data/program_a_v5.snap");
    let word = |at: usize| u64::from_le_bytes(golden[at..at + 8].try_into().unwrap()) as usize;
    // An atom is a predicate, an argument count and a tagged `u32` per
    // argument. The payload opens with the strategy tag, the goal and
    // the rules (a count, then per rule its head, a count and its body);
    // the rule activity follows, a count and one byte per slot.
    assert_eq!(golden[20], 1, "a semi-naive store");
    let atom_end = |at: usize| at + 4 + 8 + 5 * word(at + 4);
    let mut at = atom_end(21);
    let rules = word(at);
    at += 8;
    for _ in 0..rules {
        at = atom_end(at);
        let body = word(at);
        at += 8;
        for _ in 0..body {
            at = atom_end(at);
        }
    }
    assert_eq!((word(at), &golden[at + 8..at + 10]), (2, &[1, 1][..]), "two active rules");
    let mut forged = golden.to_vec();
    forged[at + 9] = 0;
    assert_refused(&forged, "live row justified by a dropped rule", "dropped-rule");
}

/// A snapshot of `p(X) :- e(X)` and `q(X) :- e(X)` over three `e`
/// facts, and where `p`'s justification buffer starts: its length 6,
/// then one entry `[rule 0, e row]` per row, the `e` rows 0, 1 and 2 in
/// some order.
fn two_heads_snapshot() -> (Vec<u8>, usize) {
    let mut p = parse_program("?- p(X).\np(X) :- e(X).\nq(X) :- e(X).").unwrap();
    let e = p.symbols.get_predicate("e").unwrap();
    let mut db = selprop_datalog::Database::new();
    for c in ["a", "b", "c"] {
        db.insert(e, vec![p.symbols.constant(c)]);
    }
    let bytes = Materialization::from_database(&p, &db, Strategy::SemiNaive).to_bytes();
    let p_buffer = |at: usize| {
        let word = |k: usize| u32::from_le_bytes(bytes[at + 8 + 4 * k..][..4].try_into().unwrap());
        let mut rows: Vec<u32> = (0..3).map(|k| word(2 * k + 1)).collect();
        rows.sort_unstable();
        bytes[at..at + 8] == 6u64.to_le_bytes() && (0..3).all(|k| word(2 * k) == 0) && rows == [0, 1, 2]
    };
    let at: Vec<usize> = (0..bytes.len() - 32).filter(|&i| p_buffer(i)).collect();
    assert_eq!(at.len(), 1, "p's justification buffer found once");
    (bytes, at[0])
}

/// A justification names the rule that derived its row, and that rule
/// heads the row's relation. A file in which a `p` row names `q`'s rule
/// decoded to a store whose `Provenance::check` failed; it is refused,
/// by the store and by the server.
#[test]
fn a_justification_through_a_rule_of_another_relation_is_refused() {
    let (mut forged, at) = two_heads_snapshot();
    forged[at + 8..at + 12].copy_from_slice(&1u32.to_le_bytes());
    assert_refused(&forged, "justification rule heads another relation", "rule-head");
}

/// A live row's justifications bottom out in database facts. Over
/// `e(a)`, `p(X) :- q(X)`, `q(X) :- p(X)` and `q(X) :- e(X)` record
/// `q(a)` through rule 2; a file naming rule 1 instead has `q(a)` read
/// `p(a)` and `p(a)` read `q(a)`, every entry well-shaped. Its restored
/// store still answered `p(a)` once `e(a)` was retracted. It is refused,
/// by the store and by the server.
#[test]
fn a_justification_cycle_across_relations_is_refused() {
    let mut p = parse_program("?- p(X).\np(X) :- q(X).\nq(X) :- p(X).\nq(X) :- e(X).").unwrap();
    let e = p.symbols.get_predicate("e").unwrap();
    let mut db = selprop_datalog::Database::new();
    db.insert(e, vec![p.symbols.constant("a")]);
    let bytes = Materialization::from_database(&p, &db, Strategy::SemiNaive).to_bytes();
    // q's empty tombstone bitset, then its justification buffer: its
    // length 2 and `[rule 2, e row 0]`.
    let entry: Vec<u8> =
        [&0u64.to_le_bytes()[..], &2u64.to_le_bytes(), &2u32.to_le_bytes(), &0u32.to_le_bytes()].concat();
    let at: Vec<usize> = (0..bytes.len() - entry.len())
        .filter(|&i| bytes[i..i + entry.len()] == entry[..])
        .collect();
    assert_eq!(at.len(), 1, "q's justification buffer found once");
    let mut forged = bytes;
    forged[at[0] + 16..at[0] + 20].copy_from_slice(&1u32.to_le_bytes());
    assert_refused(&forged, "justifications form a cycle", "cycle");
}

/// A justification buffer is its rows' entries and nothing else: one
/// the rule lengths leave a word of, or end inside an entry, is refused.
#[test]
fn a_justification_buffer_the_rules_do_not_consume_exactly_is_refused() {
    let (bytes, at) = two_heads_snapshot();
    let uneven = "justification buffer not consumed exactly";
    let resized = |words: u64, keep: usize, extra: &[u8]| {
        let mut forged = bytes[..at].to_vec();
        forged.extend_from_slice(&words.to_le_bytes());
        forged.extend_from_slice(&bytes[at + 8..at + 8 + 4 * keep]);
        forged.extend_from_slice(extra);
        forged.extend_from_slice(&bytes[at + 8 + 4 * 6..]);
        forged
    };
    assert_refused(&resized(7, 6, &[0; 4]), uneven, "buffer-long");
    assert_refused(&resized(5, 5, &[]), uneven, "buffer-short");
}

#[test]
fn sampled_faults_on_a_large_closure_snapshot() {
    // A 100-edge chain closes to 5050 ancestor pairs — a snapshot in the
    // hundred-kilobyte range. Exhaustive per-byte injection would be
    // quadratic, so sample offsets densely instead (every 251st byte,
    // plus the first and last 64).
    let mut p = parse_program(SRC).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let edges = chain_edges(&mut p, 100);
    let mut m = Materialization::new(&p, Strategy::SemiNaive);
    m.apply(&UpdateRound::new().insert_all(par, &edges));
    m.apply(&UpdateRound::new().retract_all(par, &edges[40..42]));
    let bytes = m.to_bytes();
    assert!(bytes.len() > 50_000, "expected a large snapshot, got {}", bytes.len());

    let mut offsets: Vec<usize> = (0..bytes.len()).step_by(251).collect();
    offsets.extend(0..64.min(bytes.len()));
    offsets.extend(bytes.len().saturating_sub(64)..bytes.len());
    for &offset in &offsets {
        let mut bad = bytes.clone();
        bad[offset] ^= 0xA5;
        assert!(
            Materialization::from_bytes(&bad).is_err(),
            "corrupting byte {offset} of the large snapshot must fail"
        );
    }
    for &len in offsets.iter().filter(|&&o| o < bytes.len()) {
        assert!(
            Materialization::from_bytes(&bytes[..len]).is_err(),
            "truncating the large snapshot to {len} bytes must fail"
        );
    }

    // The intact image restores faithfully and keeps evolving correctly.
    let mut m2 = Materialization::from_bytes(&bytes).unwrap();
    assert_eq!(m2.to_bytes(), bytes, "round-trip is bit-for-bit");
    assert_eq!(
        m.database().sorted_models(),
        m2.database().sorted_models()
    );
    m.apply(&UpdateRound::new().insert_all(par, &edges[40..41]));
    m2.apply(&UpdateRound::new().insert_all(par, &edges[40..41]));
    assert_eq!(
        m.database().sorted_models(),
        m2.database().sorted_models(),
        "original and restored stores stay equivalent under updates"
    );
    assert_eq!(m.stats(), m2.stats(), "work counters advance identically");
}

#[test]
fn crash_before_rename_preserves_the_previous_snapshot() {
    let dir = scratch_dir("crash");
    let path = dir.join("store.snap");

    let mut p = parse_program(SRC).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let edges = chain_edges(&mut p, 8);
    let mut m = Materialization::new(&p, Strategy::SemiNaive);
    m.apply(&UpdateRound::new().insert_all(par, &edges[..4]));
    m.save(&path).unwrap();
    let saved = m.to_bytes();

    // The store moves on and a second save "crashes" partway: the temp
    // file holds a torn prefix, the rename never happened.
    m.apply(&UpdateRound::new().insert_all(par, &edges[4..]));
    let newer = m.to_bytes();
    let tmp = dir.join("store.snap.tmp");
    std::fs::write(&tmp, &newer[..newer.len() / 2]).unwrap();

    // Restore finds the previous snapshot, intact.
    let restored = Materialization::restore(&path).unwrap();
    assert_eq!(restored.to_bytes(), saved, "previous snapshot untouched by the crash");
    // And the torn temp file itself never restores silently.
    assert!(Materialization::restore(&tmp).is_err());

    // A completed save (temp + rename) replaces it atomically.
    m.save(&path).unwrap();
    assert_eq!(Materialization::restore(&path).unwrap().to_bytes(), newer);

    std::fs::remove_dir_all(&dir).ok();
}
