//! Binary snapshot save/load for datasets.
//!
//! Harness runs generate workloads deterministically from seeds, but a
//! snapshot on disk lets (a) a run be replayed bit-identically across
//! machines/versions and (b) externally captured telemetry be fed to the
//! same harness. The dataset format is deliberately trivial: a magic
//! header, a UTF-8 name, and little-endian `u64` values. Std-only, like
//! everything in this crate. (The wire codecs — varints, packed blocks
//! and the QLVS summary frame — live in the `qlove_wire` crate.)

use std::fs;
use std::io;
use std::path::Path;

/// File magic: "QLVD" + format version 1.
const MAGIC: &[u8; 4] = b"QLVD";
const VERSION: u32 = 1;

/// A named dataset snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dataset {
    /// Human-readable dataset name (e.g. `"netmon-seed42"`).
    pub name: String,
    /// The telemetry values.
    pub values: Vec<u64>,
}

impl Dataset {
    /// Bundle a name and values.
    pub fn new(name: impl Into<String>, values: Vec<u64>) -> Self {
        Self {
            name: name.into(),
            values,
        }
    }

    /// Serialize into the QLVD byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(4 + 4 + 4 + self.name.len() + 8 + self.values.len() * 8);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&(self.name.len() as u32).to_le_bytes());
        buf.extend_from_slice(self.name.as_bytes());
        buf.extend_from_slice(&(self.values.len() as u64).to_le_bytes());
        for &v in &self.values {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf
    }

    /// Parse the QLVD byte format.
    pub fn from_bytes(mut data: &[u8]) -> io::Result<Self> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        fn take<'a>(data: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
            if data.len() < n {
                return None;
            }
            let (head, rest) = data.split_at(n);
            *data = rest;
            Some(head)
        }
        fn take_u32(data: &mut &[u8]) -> Option<u32> {
            take(data, 4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
        }
        fn take_u64(data: &mut &[u8]) -> Option<u64> {
            take(data, 8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
        }

        let magic = take(&mut data, 4).ok_or_else(|| bad("truncated header"))?;
        if magic != MAGIC {
            return Err(bad("not a QLVD dataset file"));
        }
        let version = take_u32(&mut data).ok_or_else(|| bad("truncated header"))?;
        if version != VERSION {
            return Err(bad("unsupported QLVD version"));
        }
        let name_len = take_u32(&mut data).ok_or_else(|| bad("truncated header"))? as usize;
        let name_bytes = take(&mut data, name_len).ok_or_else(|| bad("truncated name"))?;
        let name =
            String::from_utf8(name_bytes.to_vec()).map_err(|_| bad("dataset name is not UTF-8"))?;
        let count = take_u64(&mut data).ok_or_else(|| bad("truncated value count"))?;
        // Compare in u64 with a checked multiply: a corrupt count must
        // error out, not overflow (debug panic / release wraparound).
        if count.checked_mul(8) != Some(data.len() as u64) {
            return Err(bad("value payload length mismatch"));
        }
        let values = data
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
            .collect();
        Ok(Self { name, values })
    }

    /// Write the snapshot to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.to_bytes())
    }

    /// Read a snapshot from a file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::from_bytes(&fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_in_memory() {
        let d = Dataset::new("netmon-test", vec![1, 2, 798, 74_265, u64::MAX]);
        let parsed = Dataset::from_bytes(&d.to_bytes()).unwrap();
        assert_eq!(parsed, d);
    }

    #[test]
    fn roundtrip_empty_values() {
        let d = Dataset::new("empty", vec![]);
        assert_eq!(Dataset::from_bytes(&d.to_bytes()).unwrap(), d);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = Dataset::from_bytes(b"NOPE\x01\x00\x00\x00").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_truncation() {
        let d = Dataset::new("t", vec![1, 2, 3]);
        let bytes = d.to_bytes();
        for cut in [3, 10, bytes.len() - 1] {
            assert!(
                Dataset::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn rejects_overflowing_value_count() {
        // A corrupt count near u64::MAX must fail cleanly, not overflow
        // the `count * 8` payload check.
        let d = Dataset::new("t", vec![1, 2, 3]);
        let mut bytes = d.to_bytes();
        let count_at = 4 + 4 + 4 + 1; // magic + version + name len + "t"
        bytes[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Dataset::from_bytes(&bytes).is_err());
        // Wraparound-exploiting count: (2^61 + len/8) * 8 wraps to len.
        let wrap = (1u64 << 61) + 3;
        bytes[count_at..count_at + 8].copy_from_slice(&wrap.to_le_bytes());
        assert!(Dataset::from_bytes(&bytes).is_err());
    }

    #[test]
    fn roundtrip_via_file() {
        let dir = std::env::temp_dir().join("qlove-io-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.qlvd");
        let d = Dataset::new("file-test", (0..1000u64).collect());
        d.save(&path).unwrap();
        assert_eq!(Dataset::load(&path).unwrap(), d);
        let _ = fs::remove_file(&path);
    }
}
