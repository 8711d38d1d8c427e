//! Crash-injection property suite: recovery restores exactly the last
//! committed state.
//!
//! Each case builds a random transaction history over a checkpointed
//! catalog, recording a reference fingerprint after every commit, then
//! injects crash-shaped damage into the store files:
//!
//! * **Torn WAL tail** — the file is truncated at an arbitrary byte offset
//!   (a crash mid-append). Recovery must equal the reference state after
//!   the last `COMMIT` record that wholly survived the cut.
//! * **Flipped WAL byte** — a random bit flip anywhere after the header.
//!   The CRC framing must stop replay at the damaged record, recovering the
//!   commit prefix before it (a redo log cannot skip holes).
//! * **Flipped page-file byte** — recovery must either detect the damage
//!   (checksum error) or be provably unaffected (the flip landed in a frame
//!   hole, which recovery never reads); it must never decode garbage state.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use dataspread_posindex::RowKey;
use dataspread_relstore::snapshot::{load_catalog, save_catalog, DATA_FILE, WAL_FILE};
use dataspread_relstore::wal::{scan_wal, WalRecord, WAL_HEADER_SIZE};
use dataspread_relstore::{Catalog, ColumnDef, Schema, StoreHandle};
use dataspread_testkit::{cases, Rng};
use dataspread_types::{DataType, Value};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let p = std::env::temp_dir().join(format!("dsp-crash-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Full logical state of the table: keys and rows in presentation order.
type Fingerprint = Vec<(RowKey, Vec<Value>)>;

fn fingerprint(catalog: &Catalog) -> Fingerprint {
    catalog.get("t").unwrap().scan().unwrap()
}

fn random_value(rng: &mut Rng) -> Value {
    match rng.weighted(&[3, 2, 1]) {
        0 => Value::Int(rng.i64() % 1000),
        1 => Value::text(rng.lowercase(0, 12)),
        _ => Value::Empty,
    }
}

/// Apply one random mutation through the normal table API (each is one WAL
/// redo record). Inserts dominate so the table grows.
fn random_op(rng: &mut Rng, catalog: &mut Catalog) {
    let mut t = catalog.get_mut("t").unwrap();
    let n = t.row_count();
    match rng.weighted(&[4, 2, 2, 1]) {
        0 => {
            let pos = rng.index(n + 1);
            t.insert_at(pos, vec![Value::Int(rng.i64() % 100), random_value(rng)])
                .unwrap();
        }
        1 if n > 0 => {
            let key = t.key_at(rng.index(n)).unwrap();
            // Column 0 is INT; column 1 (Any) takes any value.
            if rng.bool() {
                t.update_cell(key, 0, Value::Int(rng.i64() % 500)).unwrap();
            } else {
                t.update_cell(key, 1, random_value(rng)).unwrap();
            }
        }
        2 if n > 0 => {
            let key = t.key_at(rng.index(n)).unwrap();
            t.update_row(key, vec![Value::Int(rng.i64() % 500), random_value(rng)])
                .unwrap();
        }
        3 if n > 0 => {
            let key = t.key_at(rng.index(n)).unwrap();
            t.delete_row(key).unwrap();
        }
        _ => {
            t.insert(vec![Value::Int(7), Value::text("fallback")])
                .unwrap();
        }
    }
}

/// Build a store: checkpoint a seeded table, then run `txns` random
/// transactions (1–3 ops each) through the WAL. Returns the reference
/// fingerprints after each commit (index 0 = checkpoint state) and the
/// store handle.
fn build_history(
    rng: &mut Rng,
    dir: &std::path::Path,
    txns: usize,
) -> (Vec<Fingerprint>, StoreHandle, Catalog) {
    let mut catalog = Catalog::new();
    let schema = Schema::new(vec![
        ColumnDef::new("a", DataType::Int),
        ColumnDef::new("b", DataType::Any),
    ])
    .unwrap();
    catalog.create_table("t", schema).unwrap();
    for i in 0..rng.index(8) {
        catalog
            .get_mut("t")
            .unwrap()
            .insert(vec![Value::Int(i as i64), Value::text("seed")])
            .unwrap();
    }
    let handle = save_catalog(dir, &catalog, b"", 1).unwrap();
    handle.attach_all(&catalog);
    let mut states = vec![fingerprint(&catalog)];
    for _ in 0..txns {
        handle.wal.begin().unwrap();
        for _ in 0..rng.usize_in(1, 4) {
            random_op(rng, &mut catalog);
        }
        handle.wal.commit().unwrap();
        states.push(fingerprint(&catalog));
    }
    (states, handle, catalog)
}

/// Offsets just past each COMMIT record in the full WAL.
fn commit_ends(wal_path: &std::path::Path) -> Vec<u64> {
    let scan = scan_wal(wal_path).unwrap().unwrap();
    scan.records
        .iter()
        .filter(|(rec, _)| matches!(rec, WalRecord::Commit { .. }))
        .map(|(_, end)| *end)
        .collect()
}

#[test]
fn torn_wal_tail_recovers_exact_commit_prefix() {
    cases(10, 0x00C4_A511, |rng| {
        let dir = fresh_dir("torn");
        let txns = rng.usize_in(2, 7);
        let (states, handle, catalog) = build_history(rng, &dir, txns);
        drop((handle, catalog)); // crash
        let wal_path = dir.join(WAL_FILE);
        let full = std::fs::read(&wal_path).unwrap();
        let ends = commit_ends(&wal_path);
        assert_eq!(ends.len(), txns);

        for _ in 0..8 {
            let cut = rng.usize_in(WAL_HEADER_SIZE as usize, full.len() + 1);
            std::fs::write(&wal_path, &full[..cut]).unwrap();
            let mut loaded = load_catalog(&dir).unwrap();
            loaded.tail.replay(&mut loaded.catalog).unwrap();
            let expected = ends.iter().filter(|&&e| e <= cut as u64).count();
            assert_eq!(
                fingerprint(&loaded.catalog),
                states[expected],
                "cut at {cut} of {} must recover state {expected}",
                full.len()
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    });
}

#[test]
fn corrupted_wal_byte_recovers_commit_prefix_before_damage() {
    cases(10, 0x00BA_DB17, |rng| {
        let dir = fresh_dir("flip");
        let txns = rng.usize_in(2, 6);
        let (states, handle, catalog) = build_history(rng, &dir, txns);
        drop((handle, catalog));
        let wal_path = dir.join(WAL_FILE);
        let full = std::fs::read(&wal_path).unwrap();
        let ends = commit_ends(&wal_path);

        for _ in 0..8 {
            let off = rng.usize_in(WAL_HEADER_SIZE as usize, full.len());
            let bit = 1u8 << rng.index(8);
            let mut damaged = full.clone();
            damaged[off] ^= bit;
            std::fs::write(&wal_path, &damaged).unwrap();
            let mut loaded = load_catalog(&dir).unwrap();
            loaded.tail.replay(&mut loaded.catalog).unwrap();
            // CRC framing truncates at the record containing the flip:
            // exactly the commits wholly before the damage survive.
            let expected = ends.iter().filter(|&&e| e <= off as u64).count();
            assert_eq!(
                fingerprint(&loaded.catalog),
                states[expected],
                "flip at {off} must recover state {expected}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    });
}

#[test]
fn corrupted_wal_header_recovers_checkpoint() {
    let mut rng = Rng::new(0x000E_ADE4);
    let dir = fresh_dir("header");
    let (states, handle, catalog) = build_history(&mut rng, &dir, 3);
    drop((handle, catalog));
    let wal_path = dir.join(WAL_FILE);
    let mut raw = std::fs::read(&wal_path).unwrap();
    raw[9] ^= 0xFF; // inside the generation field: header CRC now fails
    std::fs::write(&wal_path, &raw).unwrap();
    let mut loaded = load_catalog(&dir).unwrap();
    let replayed = loaded.tail.replay(&mut loaded.catalog).unwrap();
    assert_eq!(replayed.table_ops, 0, "unreadable header means no replay");
    assert_eq!(fingerprint(&loaded.catalog), states[0]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_page_file_detected_or_provably_unaffected() {
    cases(8, 0x0FAC_E0FF, |rng| {
        let dir = fresh_dir("pagefile");
        let txns = rng.usize_in(1, 4);
        let (states, handle, catalog) = build_history(rng, &dir, txns);
        drop((handle, catalog));
        let data_path = dir.join(DATA_FILE);
        let full = std::fs::read(&data_path).unwrap();

        for _ in 0..8 {
            let off = rng.index(full.len());
            let bit = 1u8 << rng.index(8);
            let mut damaged = full.clone();
            damaged[off] ^= bit;
            std::fs::write(&data_path, &damaged).unwrap();
            match load_catalog(&dir).and_then(|mut loaded| {
                loaded.tail.replay(&mut loaded.catalog)?;
                Ok(loaded.catalog)
            }) {
                // Detected: header or frame checksum caught the flip.
                Err(_) => {}
                // Unaffected: the flip landed in bytes recovery never
                // reads (frame holes). The recovered state must still be
                // exactly the last committed one.
                Ok(catalog) => {
                    assert_eq!(
                        fingerprint(&catalog),
                        states[txns],
                        "flip at {off}: undetected damage must be harmless"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    });
}
