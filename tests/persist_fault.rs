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
use selprop_datalog::{
    parse_program, Materialization, PersistError, Program, RuleId, Server,
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
    server.insert_facts(par, &edges);
    // Pin a snapshot so the retraction's tombstone tags are *retained*
    // in the saved image (reclamation is deferred past the save).
    let pin = server.snapshot();
    server.retract_facts(par, &edges[6..8]);
    assert!(server.drop_rule(RuleId(1)));
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

/// Version 4 dropped bytes from the middle of the payload. A version-3
/// file — intact framing, valid checksum — must be refused by its
/// version, never handed to the version-4 decoder to be mis-parsed.
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
    m.insert_facts(par, &edges);
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
    m.insert_facts(par, &edges);
    let mut bytes = m.to_bytes();
    assert_eq!(bytes[20], 1, "the payload opens with the strategy tag");
    bytes[20] = 0;
    let current = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    assert!(matches!(
        Materialization::from_bytes(&restamped(&bytes, current)),
        Err(PersistError::Corrupt("unknown strategy tag"))
    ));
}

/// Section 11's presence byte is always 1: every store that can be
/// saved records justifications. A container carrying 0 there — intact
/// framing, valid checksum — decoded to a store without them, which
/// panicked on its first over-deleting round, inside a restored
/// server's write lock. It is refused, by the store and by the server.
#[test]
fn a_provenance_tag_0_container_is_refused_as_corrupt() {
    let p = parse_program(SRC).unwrap();
    let bytes = Materialization::new(&p, Strategy::SemiNaive).to_bytes();
    // The payload (before the 8-byte checksum) ends with the presence
    // byte and, per relation (`anc`, `par`), two empty `u32` runs.
    let tail = bytes.len() - 8 - 33;
    assert_eq!(bytes[tail], 1);
    assert!(bytes[tail + 1..bytes.len() - 8].iter().all(|&b| b == 0));
    let mut forged = bytes[..tail].to_vec();
    forged.push(0);
    forged.extend_from_slice(&[0; 8]);
    let current = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let forged = restamped(&forged, current);
    assert!(matches!(
        Materialization::from_bytes(&forged),
        Err(PersistError::Corrupt("unknown provenance tag"))
    ));
    let dir = scratch_dir("prov-tag");
    let path = dir.join("forged.snap");
    std::fs::write(&path, &forged).unwrap();
    assert!(matches!(
        Server::restore(&path),
        Err(PersistError::Corrupt("unknown provenance tag"))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

/// A relation's row count is bounded by the bytes its rows take — except
/// a 0-ary one's, whose rows take none. A forged count there, behind a
/// valid checksum, decoded to a store whose first read walked 2^40 rows
/// and whose first write sized a dedup table by them. `()` has one live
/// row at most; any other count is refused, by the store and by the
/// server.
#[test]
fn a_forged_row_count_on_a_0_ary_relation_is_refused_as_corrupt() {
    let p = parse_program("?- q(X).\nq(X) :- e(X), flag.").unwrap();
    let [e, flag] = ["e", "flag"].map(|n| p.symbols.get_predicate(n).unwrap());
    let mut db = selprop_datalog::Database::new();
    db.insert(e, vec![selprop_datalog::Const(0)]);
    db.insert(flag, Vec::new());
    let bytes = Materialization::from_database(&p, &db, Strategy::SemiNaive).to_bytes();
    // Section 10's entry for `flag`: predicate, EDB, arity 0, one row,
    // watermark 1.
    let entry: Vec<u8> = [&flag.0.to_le_bytes()[..], &[0], &0u64.to_le_bytes()]
        .concat()
        .into_iter()
        .chain([1u64, 1].iter().flat_map(|n| n.to_le_bytes()))
        .collect();
    let at: Vec<usize> = (0..bytes.len() - entry.len())
        .filter(|&i| bytes[i..i + entry.len()] == entry[..])
        .collect();
    assert_eq!(at.len(), 1, "flag's entry found once");
    let rows_at = at[0] + 4 + 1 + 8;
    let mut forged = bytes.clone();
    forged[rows_at..rows_at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    let current = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let forged = restamped(&forged, current);
    let refused = |r: Result<_, PersistError>| {
        matches!(r, Err(PersistError::Corrupt("0-ary relation with more than one live row")))
    };
    assert!(refused(Materialization::from_bytes(&forged).map(|m| m.num_facts(flag))));
    let dir = scratch_dir("nullary");
    let path = dir.join("forged.snap");
    std::fs::write(&path, &forged).unwrap();
    assert!(refused(Server::restore(&path).map(|s| s.snapshot().num_facts(flag))));
    std::fs::remove_dir_all(&dir).ok();
}

/// `tests/data/program_a_v4.snap` was written by the commit before the
/// payload codec moved into `materialize/codec.rs`: program A over the
/// chain `john → c1 → … → c4`, then `par(c3, c4)` retracted. It must
/// restore, answer like a from-scratch build of the same store, and
/// re-encode to the identical bytes — the codec's move changed no byte,
/// and its section 9 (the body permutations `[0]` and `[0, 1]`) is what
/// each rule's plan `[0]` re-encodes to.
#[test]
fn a_golden_version_4_snapshot_restores_and_reencodes_identically() {
    let golden = include_bytes!("data/program_a_v4.snap");
    assert_eq!(golden[20], 1, "a semi-naive store");
    let restored = Materialization::from_bytes(golden).expect("the golden snapshot restores");
    assert_eq!(restored.to_bytes(), golden, "re-encoding changed a byte");

    let mut p = parse_program(SRC).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let edges = chain_edges(&mut p, 4);
    let mut fresh = Materialization::new(&p, Strategy::SemiNaive);
    fresh.insert_facts(par, &edges);
    fresh.retract_facts(par, &edges[3..]);
    assert_eq!(restored.answer().sorted(), fresh.answer().sorted());
    assert_eq!(restored.answer().len(), 3, "anc(john, Y) for Y in c1, c2, c3");
    assert_eq!(restored.database().sorted_models(), fresh.database().sorted_models());
}

/// A restored store keeps no merge log, so a deletion walk's age test
/// reads row order within a relation, which every justification a store
/// writes follows: a body row in the head's own relation sits below the
/// head. The decoder refuses a file where one does not — here the golden
/// snapshot with one recursive `anc` row's `anc` body row set to the
/// row itself — through `from_bytes` and `Server::restore` alike.
#[test]
fn a_justification_through_a_later_row_of_its_own_relation_is_refused() {
    let golden = include_bytes!("data/program_a_v4.snap");
    let word = |at: usize| u64::from_le_bytes(golden[at..at + 8].try_into().unwrap()) as usize;
    let u32_at = |at: usize| u32::from_le_bytes(golden[at..at + 4].try_into().unwrap());
    // The payload ends with the justification section — per relation
    // its offsets, then its buffer, each a length and `u32`s — and the
    // checksum. `par` (EDB, last) stores two empty runs; `anc`'s buffer
    // and offsets are the runs before them whose length words match.
    let run_before = |end: usize| {
        (0..end / 4)
            .find(|&n| end >= 8 + 4 * n && word(end - 8 - 4 * n) == n)
            .map(|n| (end - 4 * n, n))
            .expect("a length-prefixed run ends here")
    };
    let par_end = golden.len() - 8;
    assert_eq!((word(par_end - 16), word(par_end - 8)), (0, 0), "par records nothing");
    let (buf_at, buf_len) = run_before(par_end - 16);
    let (off_at, rows) = run_before(buf_at - 8);
    let entry = |row: usize| u32_at(off_at + 4 * row) as usize;
    let head = (0..rows)
        .find(|&row| u32_at(buf_at + 4 * entry(row)) == 1)
        .expect("a row recorded through the recursive rule");
    assert!(entry(head) + 3 <= buf_len);
    let body_at = buf_at + 4 * (entry(head) + 1);
    assert!((u32_at(body_at) as usize) < head, "the golden file keeps the order");
    let mut forged = golden.to_vec();
    forged[body_at..body_at + 4].copy_from_slice(&(head as u32).to_le_bytes());
    let current = u32::from_le_bytes(golden[8..12].try_into().unwrap());
    let forged = restamped(&forged, current);
    let refused = |r: Result<_, PersistError>| {
        matches!(r, Err(PersistError::Corrupt("justification body row not below its head row")))
    };
    assert!(refused(Materialization::from_bytes(&forged).map(|m| m.answer())));
    let dir = scratch_dir("own-relation-order");
    let path = dir.join("forged.snap");
    std::fs::write(&path, &forged).unwrap();
    assert!(refused(Server::restore(&path).map(|s| s.answer())));
    std::fs::remove_dir_all(&dir).ok();
}

/// Section 9 holds one body permutation per rule, which a reader only
/// checks to be a permutation. It is written from the rule's plan `[0]`.
/// Files written while a build ran each rule on the plan of the atom the
/// greedy order picks first hold that plan's permutation instead: for
/// Section 7's recursive rule the empty IDB atom `p(X1, Y1)` first,
/// step depths `[1, 0, 2]` where plan `[0]` writes `[0, 1, 2]`. Such a
/// file restores to the same store and re-encodes to what the store
/// writes now.
#[test]
fn a_snapshot_holding_the_greedy_body_order_restores_and_reencodes() {
    let mut p = parse_program(
        "?- p(c, Y).\n\
         p(X, Y) :- b1(X, X1), b2(X1, Y).\n\
         p(X, Y) :- b1(X, X1), p(X1, Y1), b2(Y1, Y).",
    )
    .unwrap();
    let [b1, b2] = ["b1", "b2"].map(|n| p.symbols.get_predicate(n).unwrap());
    let n: Vec<_> = ["c", "n1", "n2", "n3", "n4", "n5"].map(|c| p.symbols.constant(c)).into();
    let mut db = selprop_datalog::Database::new();
    for i in 0..2 {
        db.insert(b1, vec![n[i], n[i + 1]]);
    }
    for i in 2..5 {
        db.insert(b2, vec![n[i], n[i + 1]]);
    }
    let m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    assert_eq!(m.answer().len(), 1, "p(c, n4)");
    let bytes = m.to_bytes();

    // The order-mode tag (1, planned), then per rule its permutation as a
    // count and the step depth of each body atom.
    let section_9 = |recursive: [u32; 3]| {
        let mut s = vec![1u8];
        s.extend(2u64.to_le_bytes());
        s.extend([0u32, 1].iter().flat_map(|d| d.to_le_bytes()));
        s.extend(3u64.to_le_bytes());
        s.extend(recursive.iter().flat_map(|d| d.to_le_bytes()));
        s
    };
    let written = section_9([0, 1, 2]);
    let at: Vec<usize> = (0..bytes.len() - written.len())
        .filter(|&i| bytes[i..i + written.len()] == written[..])
        .collect();
    assert_eq!(at.len(), 1, "section 9 found once");
    let mut forged = bytes.clone();
    forged[at[0]..at[0] + written.len()].copy_from_slice(&section_9([1, 0, 2]));
    let current = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let forged = restamped(&forged, current);
    assert!(forged != bytes, "the greedy order is not plan [0]'s");

    let back = Materialization::from_bytes(&forged).expect("the greedy order is a permutation");
    assert_eq!(back.database().sorted_models(), m.database().sorted_models());
    assert_eq!(back.answer().sorted(), m.answer().sorted());
    assert_eq!(back.to_bytes(), bytes, "re-encoded from plan [0]");
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
    m.insert_facts(par, &edges);
    m.retract_facts(par, &edges[40..42]);
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
    m.insert_facts(par, &edges[40..41]);
    m2.insert_facts(par, &edges[40..41]);
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
    m.insert_facts(par, &edges[..4]);
    m.save(&path).unwrap();
    let saved = m.to_bytes();

    // The store moves on and a second save "crashes" partway: the temp
    // file holds a torn prefix, the rename never happened.
    m.insert_facts(par, &edges[4..]);
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
