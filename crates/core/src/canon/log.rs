//! Crash-safe append-only persistence for the canonical decomposition
//! cache.
//!
//! The in-memory [`DecompCache`](super::DecompCache) dies with the daemon;
//! everything it learned — exact, self-certified widths that may have cost
//! minutes of search — dies with it. This module spills admitted entries
//! to a length-prefixed, checksummed record log and replays them on boot,
//! so a restart (graceful or `kill -9`) starts warm.
//!
//! # Record format (version 1)
//!
//! ```text
//! ┌─────────┬───────────────┬───────────────┬─────────────────────────┐
//! │ version │ payload_len   │ crc32(payload)│ payload (payload_len B) │
//! │ 1 byte  │ u32 LE        │ u32 LE        │                         │
//! └─────────┴───────────────┴───────────────┴─────────────────────────┘
//! payload:
//!   hash      u64 LE   — the key's bucket hash, `text_hash(canon)`
//!   width     u64 LE   — the certified width the body reports
//!   canon_len u32 LE ┐
//!   sig_len   u32 LE ├ byte lengths of the three strings
//!   body_len  u32 LE ┘
//!   canon bytes, signature bytes, body bytes (UTF-8, in that order)
//! ```
//!
//! The CRC is the vendored CRC-32/IEEE below (zero dependencies, like the
//! rest of the workspace; slice-by-8, since replay checksums every byte of
//! the log on boot). Each append is a single `write_all` of the
//! fully assembled record, so the only failure mode a process kill can
//! leave behind is a *torn tail* — a record whose header or payload is
//! incomplete.
//!
//! # Recovery rule: truncate at the first corrupt record
//!
//! Replay scans records front to back and stops at the first record that
//! is torn (header or payload extends past EOF), checksum-mismatched,
//! version-unknown, or internally inconsistent (declared lengths that do
//! not add up, non-UTF-8 strings). The file is then truncated to the valid
//! prefix, so subsequent appends continue after the last good record —
//! the log never grows an unreadable middle. Because records are framed
//! only by their length prefix there is no resynchronisation after
//! corruption; dropping the tail is the *safe* choice, never the lossy
//! one, since every dropped entry is merely a cache miss later.
//!
//! # Verification: replay admits nothing it cannot re-verify
//!
//! A checksum proves the bytes survived the disk, not that they are a
//! valid cache entry for *this* solver. [`CacheLog::open`] therefore runs
//! every structurally sound record through a caller-supplied `verify`
//! callback — the daemon re-derives the canonical text and its
//! [`text_hash`](super::text_hash) from the record's own `canon` field, the same
//! hash-bucket-then-exact-equality discipline the in-memory probe uses —
//! and counts rejects instead of admitting them. A rejected record is
//! *not* treated as corruption: it stays in the file (it may belong to a
//! different build) and replay continues past it. That is how a change of
//! the bucket hash is absorbed without a new [`FORMAT_VERSION`]: records
//! written under the old hash fail verification and their instances are
//! solved again, whereas an unknown version byte would truncate the log.

use super::{CacheKey, CachedDecomp};
use std::fs::OpenOptions;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The only record version this build writes and replays.
pub const FORMAT_VERSION: u8 = 1;

/// Bytes before the payload: version (1) + payload_len (4) + crc (4).
const HEADER_LEN: usize = 9;

/// Fixed payload prefix: hash (8) + width (8) + three lengths (12).
const FIXED_PAYLOAD: usize = 28;

/// Upper bound on a single record's payload. Nothing the cache admits
/// comes close; a declared length beyond this is corruption, not data,
/// and must not drive an allocation.
const MAX_PAYLOAD: usize = 1 << 30;

/// CRC-32/IEEE slice-by-8 lookup tables, built at compile time
/// (polynomial `0xEDB88320`, the reflected form used by zip/png/ethernet).
/// `CRC_TABLES[0]` is the bytewise table; `CRC_TABLES[k][b]` is the CRC
/// of byte `b` followed by `k` zero bytes, so one step folds in 8 bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32/IEEE of `bytes` (check value: `crc32(b"123456789") ==
/// 0xCBF4_3926`), eight bytes per table step. Replay checksums the whole
/// log, so this runs over every byte of it on boot.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// One replayable cache entry: the full probe identity plus the value.
#[derive(Clone, Debug)]
pub struct LogRecord {
    /// Probe identity (hash bucket, canonical text, signature).
    pub key: CacheKey,
    /// The cached result (complete body + certified width).
    pub value: CachedDecomp,
}

/// What a boot replay found, for telemetry and operator logs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Structurally sound records that passed verification.
    pub replayed: usize,
    /// Structurally sound records the `verify` callback refused.
    pub verify_rejects: usize,
    /// Bytes dropped from the tail at the first corrupt record (0 for a
    /// clean log).
    pub corrupt_tail_bytes: u64,
    /// Length of the valid prefix the file was truncated to.
    pub valid_prefix_bytes: u64,
}

impl ReplayReport {
    /// `true` iff a corrupt tail was found (and truncated).
    pub fn truncated(&self) -> bool {
        self.corrupt_tail_bytes > 0
    }
}

/// An open, replayed cache log, positioned for appends.
pub struct CacheLog {
    file: std::fs::File,
    path: PathBuf,
    /// Appends since open (monotonic, for telemetry).
    appends: u64,
}

impl CacheLog {
    /// Opens (creating if absent) and replays `path`. Structurally sound
    /// records are handed to `verify`; survivors are returned in append
    /// order — replaying them through `DecompCache::admit` makes the
    /// *last* write of a duplicated key win, exactly like the live cache.
    /// The file is truncated to its valid prefix before the log accepts
    /// appends.
    pub fn open(
        path: &Path,
        mut verify: impl FnMut(&LogRecord) -> bool,
    ) -> io::Result<(CacheLog, Vec<LogRecord>, ReplayReport)> {
        // truncate(false): an existing log is replayed, never clobbered
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;

        let mut records = Vec::new();
        let mut report = ReplayReport::default();
        let mut off = 0usize;
        while off < data.len() {
            let Some((record, len)) = decode_record(&data[off..]) else {
                break; // torn or corrupt: truncate here
            };
            if verify(&record) {
                records.push(record);
                report.replayed += 1;
            } else {
                report.verify_rejects += 1;
            }
            off += len;
        }
        report.valid_prefix_bytes = off as u64;
        report.corrupt_tail_bytes = (data.len() - off) as u64;
        if report.truncated() {
            file.set_len(off as u64)?;
        }
        file.seek(SeekFrom::Start(off as u64))?;
        Ok((CacheLog { file, path: path.to_path_buf(), appends: 0 }, records, report))
    }

    /// Appends one entry as a single checksummed record. The write reaches
    /// the OS before this returns (surviving a process kill); call
    /// [`sync`](CacheLog::sync) to force it to the device.
    pub fn append(&mut self, key: &CacheKey, value: &CachedDecomp) -> io::Result<()> {
        let record = encode_record(key, value);
        self.file.write_all(&record)?;
        self.appends += 1;
        Ok(())
    }

    /// `fsync`s the log (graceful-drain path: nothing admitted is lost
    /// even to a machine crash after this returns).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Appends performed since the log was opened.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Assembles the on-disk bytes of one record (header + payload).
fn encode_record(key: &CacheKey, value: &CachedDecomp) -> Vec<u8> {
    let payload_len =
        FIXED_PAYLOAD + key.canon.len() + key.signature.len() + value.body.len();
    let mut out = Vec::with_capacity(HEADER_LEN + payload_len);
    out.push(FORMAT_VERSION);
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    out.extend_from_slice(&[0; 4]); // crc back-patched below
    let payload_at = out.len();
    out.extend_from_slice(&key.hash.to_le_bytes());
    out.extend_from_slice(&(value.width as u64).to_le_bytes());
    out.extend_from_slice(&(key.canon.len() as u32).to_le_bytes());
    out.extend_from_slice(&(key.signature.len() as u32).to_le_bytes());
    out.extend_from_slice(&(value.body.len() as u32).to_le_bytes());
    out.extend_from_slice(key.canon.as_bytes());
    out.extend_from_slice(key.signature.as_bytes());
    out.extend_from_slice(value.body.as_bytes());
    let crc = crc32(&out[payload_at..]);
    out[5..9].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes the record at the front of `data`. `None` means torn or
/// corrupt (wrong version, bad checksum, inconsistent lengths, non-UTF-8
/// strings) — the caller truncates there.
fn decode_record(data: &[u8]) -> Option<(LogRecord, usize)> {
    if data.len() < HEADER_LEN || data[0] != FORMAT_VERSION {
        return None;
    }
    let payload_len = u32::from_le_bytes(data[1..5].try_into().ok()?) as usize;
    if !(FIXED_PAYLOAD..=MAX_PAYLOAD).contains(&payload_len)
        || data.len() - HEADER_LEN < payload_len
    {
        return None;
    }
    let crc = u32::from_le_bytes(data[5..9].try_into().ok()?);
    let payload = &data[HEADER_LEN..HEADER_LEN + payload_len];
    if crc32(payload) != crc {
        return None;
    }
    let hash = u64::from_le_bytes(payload[0..8].try_into().ok()?);
    let width = u64::from_le_bytes(payload[8..16].try_into().ok()?);
    let canon_len = u32::from_le_bytes(payload[16..20].try_into().ok()?) as usize;
    let sig_len = u32::from_le_bytes(payload[20..24].try_into().ok()?) as usize;
    let body_len = u32::from_le_bytes(payload[24..28].try_into().ok()?) as usize;
    if FIXED_PAYLOAD
        .checked_add(canon_len)
        .and_then(|n| n.checked_add(sig_len))
        .and_then(|n| n.checked_add(body_len))
        != Some(payload_len)
    {
        return None;
    }
    let canon = std::str::from_utf8(&payload[FIXED_PAYLOAD..FIXED_PAYLOAD + canon_len]).ok()?;
    let sig_at = FIXED_PAYLOAD + canon_len;
    let signature = std::str::from_utf8(&payload[sig_at..sig_at + sig_len]).ok()?;
    let body_at = sig_at + sig_len;
    let body = std::str::from_utf8(&payload[body_at..body_at + body_len]).ok()?;
    Some((
        LogRecord {
            key: CacheKey {
                hash,
                canon: canon.to_string(),
                signature: signature.to_string(),
            },
            value: CachedDecomp { body: body.to_string(), width: width as usize },
        },
        HEADER_LEN + payload_len,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::DecompCache;
    use ghd_prng::hash::fx_hash_words;

    fn tmp(name: &str) -> PathBuf {
        let path = std::env::temp_dir()
            .join(format!("ghd-canon-log-{}-{name}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn rec(tag: &str, body: &str) -> (CacheKey, CachedDecomp) {
        (
            CacheKey {
                hash: fx_hash_words(&[tag.len() as u64, 7]),
                canon: tag.to_string(),
                signature: format!("tw --method=bb ({tag})"),
            },
            CachedDecomp { body: body.to_string(), width: 3 },
        )
    }

    fn accept_all(_: &LogRecord) -> bool {
        true
    }

    #[test]
    fn crc32_known_answer() {
        // the standard CRC-32/IEEE check value
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time CRC the slice-by-8 loop replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_slice_by_8_matches_the_bytewise_loop() {
        use ghd_prng::{Rng, Xoshiro256PlusPlus};
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(32);
        let mut bytes = |len: usize| -> Vec<u8> { (0..len).map(|_| rng.next_u64().to_le_bytes()[0]).collect() };
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        // every length up to 64, so every split into 8-byte steps and a tail
        for len in 0..=64 {
            let buf = bytes(len);
            assert_eq!(crc32(&buf), crc32_bytewise(&buf), "length {len}");
        }
        // sub-slices at every alignment
        let buf = bytes(200);
        for start in 0..16 {
            for end in [start, start + 1, start + 7, start + 8, start + 9, 100, 183, 200] {
                let s = &buf[start..end];
                assert_eq!(crc32(s), crc32_bytewise(s), "bytes {start}..{end}");
            }
        }
        let big = bytes(3 << 20);
        assert_eq!(crc32(&big), crc32_bytewise(&big), "3 MB");
        assert_eq!(crc32(&big[3..]), crc32_bytewise(&big[3..]), "3 MB from offset 3");
    }

    #[test]
    fn round_trips_appends_across_reopen() {
        let path = tmp("roundtrip");
        let (mut log, records, report) = CacheLog::open(&path, accept_all).unwrap();
        assert!(records.is_empty());
        assert_eq!(report, ReplayReport::default());
        for i in 0..3 {
            let (k, v) = rec(&format!("entry-{i}"), &format!("width = {i}\n"));
            log.append(&k, &v).unwrap();
        }
        log.sync().unwrap();
        drop(log);

        let (_, records, report) = CacheLog::open(&path, accept_all).unwrap();
        assert_eq!(report.replayed, 3);
        assert!(!report.truncated());
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.key.canon, format!("entry-{i}"));
            assert_eq!(r.value.body, format!("width = {i}\n"));
            assert_eq!(r.value.width, 3);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let path = tmp("torn");
        let (mut log, _, _) = CacheLog::open(&path, accept_all).unwrap();
        let (k0, v0) = rec("good-0", "body-0");
        let (k1, v1) = rec("good-1", "body-1");
        log.append(&k0, &v0).unwrap();
        log.append(&k1, &v1).unwrap();
        drop(log);

        // simulate a kill -9 mid-append: cut the second record short
        let full = std::fs::read(&path).unwrap();
        let first_len = HEADER_LEN + u32::from_le_bytes(full[1..5].try_into().unwrap()) as usize;
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();

        let (mut log, records, report) = CacheLog::open(&path, accept_all).unwrap();
        assert_eq!(report.replayed, 1, "the torn record is dropped");
        assert_eq!(records[0].key.canon, "good-0");
        assert!(report.truncated());
        assert_eq!(report.valid_prefix_bytes, first_len as u64);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            first_len as u64,
            "the file itself is truncated to the valid prefix"
        );
        // the log is healthy again: appends land after the good record
        log.append(&k1, &v1).unwrap();
        drop(log);
        let (_, records, report) = CacheLog::open(&path, accept_all).unwrap();
        assert_eq!(report.replayed, 2);
        assert_eq!(records[1].key.canon, "good-1");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_flip_in_payload_drops_the_tail_not_the_prefix() {
        let path = tmp("bitflip");
        let (mut log, _, _) = CacheLog::open(&path, accept_all).unwrap();
        let entries: Vec<_> = (0..3).map(|i| rec(&format!("e{i}"), "b")).collect();
        for (k, v) in &entries {
            log.append(k, v).unwrap();
        }
        drop(log);

        let mut bytes = std::fs::read(&path).unwrap();
        let first_len = HEADER_LEN + u32::from_le_bytes(bytes[1..5].try_into().unwrap()) as usize;
        // flip one payload byte inside the *second* record
        bytes[first_len + HEADER_LEN + 3] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let (_, records, report) = CacheLog::open(&path, accept_all).unwrap();
        assert_eq!(report.replayed, 1, "checksum failure truncates at record 2");
        assert_eq!(records[0].key.canon, "e0");
        assert!(report.truncated());
        assert!(report.corrupt_tail_bytes > 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_format_version_truncates_immediately() {
        let path = tmp("version");
        let (mut log, _, _) = CacheLog::open(&path, accept_all).unwrap();
        let (k, v) = rec("versioned", "b");
        log.append(&k, &v).unwrap();
        drop(log);

        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = FORMAT_VERSION + 1; // a future (or garbage) version byte
        std::fs::write(&path, &bytes).unwrap();
        let (_, records, report) = CacheLog::open(&path, accept_all).unwrap();
        assert!(records.is_empty(), "unknown versions are never decoded");
        assert_eq!(report.replayed, 0);
        assert_eq!(report.corrupt_tail_bytes, bytes.len() as u64);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn inflated_length_prefix_never_allocates_or_replays() {
        let path = tmp("inflate");
        // a header declaring a 1 GiB payload over a 10-byte file
        let mut bytes = vec![FORMAT_VERSION];
        bytes.extend_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        bytes.extend_from_slice(&[0; 4]);
        bytes.extend_from_slice(b"short");
        std::fs::write(&path, &bytes).unwrap();
        let (_, records, report) = CacheLog::open(&path, accept_all).unwrap();
        assert!(records.is_empty());
        assert!(report.truncated());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicate_records_replay_in_order_and_last_admit_wins() {
        let path = tmp("dup");
        let (mut log, _, _) = CacheLog::open(&path, accept_all).unwrap();
        let (k, v1) = rec("dup-key", "stale body");
        let v2 = CachedDecomp { body: "fresh body".into(), width: 3 };
        log.append(&k, &v1).unwrap();
        log.append(&k, &v2).unwrap();
        drop(log);

        let (_, records, report) = CacheLog::open(&path, accept_all).unwrap();
        assert_eq!(report.replayed, 2, "duplicates are preserved on disk");
        // replaying through the cache dedups: the later record wins
        let mut cache = DecompCache::new(1 << 16);
        for r in records {
            cache.admit(r.key, r.value);
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.probe(&k).unwrap().body, "fresh body");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn verify_rejects_are_skipped_not_truncated() {
        let path = tmp("verify");
        let (mut log, _, _) = CacheLog::open(&path, accept_all).unwrap();
        for tag in ["keep-0", "reject-me", "keep-1"] {
            let (k, v) = rec(tag, "b");
            log.append(&k, &v).unwrap();
        }
        drop(log);

        let (_, records, report) =
            CacheLog::open(&path, |r| !r.key.canon.starts_with("reject")).unwrap();
        assert_eq!(report.replayed, 2, "replay continues past a rejected record");
        assert_eq!(report.verify_rejects, 1);
        assert!(!report.truncated(), "a semantic reject is not corruption");
        assert_eq!(records[1].key.canon, "keep-1");
        // the rejected record still exists on disk (it may belong to a
        // different build); nothing was truncated
        let (_, all, _) = CacheLog::open(&path, accept_all).unwrap();
        assert_eq!(all.len(), 3);
        let _ = std::fs::remove_file(&path);
    }
}
