//! The one on-disk format of the crate: a file holding one self-verifying
//! block.
//!
//! Both persistent tiers store their data through this module — the column
//! tier one file per chunk, the scenario store one file per realized
//! scenario window — so there is one header layout, one checksum, one
//! verified reader and one typed corruption error.
//!
//! ## Block format
//!
//! Little-endian throughout:
//!
//! ```text
//! magic     8 bytes   b"SPQBLK02"
//! words     1 × u64   number of key words k
//! key       k × u64   the caller's identity of the block
//! length    1 × u64   payload length in bytes
//! checksum  1 × u64   FNV-1a over the key words and the payload
//! payload   length bytes
//! ```
//!
//! [`write()`] puts a block under a temporary name and renames it into place,
//! so a reader of the path sees either no file or a whole block; [`read`]
//! verifies magic, key, length and checksum before returning a payload — a
//! damaged file can cost a rebuild or a regeneration, never wrong data.

use crate::seed::{fnv1a, FNV_OFFSET};
use std::io::{ErrorKind, Write as _};
use std::path::{Path, PathBuf};

/// Magic prefix of every block file.
const MAGIC: &[u8; 8] = b"SPQBLK02";

/// Header bytes of a block with `key_words` key words.
pub const fn header_len(key_words: usize) -> u64 {
    (8 + 8 + 8 * key_words + 8 + 8) as u64
}

/// Why a block could not be read.
#[derive(Debug)]
pub enum BlockError {
    /// The file does not exist.
    Missing,
    /// An I/O failure other than a missing file.
    Io(std::io::Error),
    /// The file is not the expected block (truncated, bad magic, another
    /// key, wrong length, checksum mismatch).
    Corrupt(String),
}

fn checksum(key: &[u64], payload: &[u8]) -> u64 {
    let hash = key
        .iter()
        .fold(FNV_OFFSET, |h, w| fnv1a(h, &w.to_le_bytes()));
    fnv1a(hash, payload)
}

fn word(bytes: &[u8], i: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
    u64::from_le_bytes(w)
}

/// Verify that `block` carries `key` and a whole, intact payload.
fn verify(block: &[u8], key: &[u64]) -> Result<(), BlockError> {
    let header = header_len(key.len()) as usize;
    let corrupt = |detail: &str| Err(BlockError::Corrupt(detail.to_string()));
    if block.len() < header || &block[..8] != MAGIC {
        return corrupt("bad magic or truncated header");
    }
    if word(block, 1) != key.len() as u64 || (0..key.len()).any(|i| word(block, 2 + i) != key[i]) {
        return corrupt("header does not match the addressed block");
    }
    let payload = &block[header..];
    if word(block, 2 + key.len()) != payload.len() as u64 {
        return corrupt("declared payload length disagrees with the file");
    }
    if word(block, 3 + key.len()) != checksum(key, payload) {
        return corrupt("payload checksum mismatch");
    }
    Ok(())
}

/// Read the block file at `path`, verify it carries `key`, and return its
/// payload.
pub fn read(path: &Path, key: &[u64]) -> Result<Vec<u8>, BlockError> {
    let mut block = std::fs::read(path).map_err(|e| match e.kind() {
        ErrorKind::NotFound => BlockError::Missing,
        _ => BlockError::Io(e),
    })?;
    verify(&block, key)?;
    block.drain(..header_len(key.len()) as usize);
    Ok(block)
}

/// Write one block to `path` through a temporary file and a rename, and
/// return the file's length. With `sync` the data reaches the disk before
/// the rename, so a crash cannot publish a block whose bytes were lost.
pub fn write(path: &Path, key: &[u64], payload: &[u8], sync: bool) -> std::io::Result<u64> {
    let mut block = Vec::with_capacity(header_len(key.len()) as usize + payload.len());
    block.extend_from_slice(MAGIC);
    block.extend_from_slice(&(key.len() as u64).to_le_bytes());
    for w in key {
        block.extend_from_slice(&w.to_le_bytes());
    }
    block.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    block.extend_from_slice(&checksum(key, payload).to_le_bytes());
    block.extend_from_slice(payload);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let written = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&block)?;
        if sync {
            file.sync_data()?;
        }
        std::fs::rename(&tmp, path)
    })();
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(block.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spq-blockfile-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn blocks_round_trip_through_a_rename() {
        let dir = tmp("roundtrip");
        let (a, b) = (dir.join("a.blk"), dir.join("b.blk"));
        assert_eq!(
            write(&a, &[1, 2], b"hello", true).unwrap(),
            header_len(2) + 5
        );
        assert_eq!(write(&b, &[3], b"", false).unwrap(), header_len(1));
        assert_eq!(read(&a, &[1, 2]).unwrap(), b"hello");
        assert_eq!(read(&b, &[3]).unwrap(), b"");
        // Rewriting replaces the block whole; no temporary file stays behind.
        write(&a, &[1, 2], &[7u8; 100], false).unwrap();
        assert_eq!(read(&a, &[1, 2]).unwrap(), vec![7u8; 100]);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
        // A failed write (here: no such directory) leaves nothing behind.
        let nowhere = dir.join("missing").join("c.blk");
        assert!(write(&nowhere, &[1], b"x", true).is_err());
        assert!(matches!(read(&nowhere, &[1]), Err(BlockError::Missing)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_kind_of_damage_is_a_typed_corruption() {
        let dir = tmp("damage");
        let path = dir.join("a.blk");
        write(&path, &[9, 8], b"payload", false).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let corrupt = |bytes: Vec<u8>, key: &[u64]| {
            std::fs::write(&path, bytes).unwrap();
            matches!(read(&path, key), Err(BlockError::Corrupt(_)))
        };
        // Every single flipped byte — magic, word count, key, length,
        // checksum, payload — is caught.
        for at in 0..pristine.len() {
            let mut bytes = pristine.clone();
            bytes[at] ^= 0x10;
            assert!(corrupt(bytes, &[9, 8]), "flip at byte {at} went unnoticed");
        }
        // Another key, a truncated file, a trailing byte, a length word near
        // `u64::MAX`.
        assert!(corrupt(pristine.clone(), &[9, 7]));
        assert!(corrupt(pristine.clone(), &[9]));
        assert!(corrupt(pristine[..pristine.len() - 1].to_vec(), &[9, 8]));
        assert!(corrupt(pristine[..10].to_vec(), &[9, 8]));
        assert!(corrupt([pristine.as_slice(), b"!"].concat(), &[9, 8]));
        let mut huge = pristine.clone();
        huge[32..40].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(corrupt(huge, &[9, 8]));
        // A missing file is not corruption.
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(read(&path, &[9, 8]), Err(BlockError::Missing)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
