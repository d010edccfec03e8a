//! The sealed-file codec of the on-disk co-search cache
//! (`layoutloop::persist`, `$FEATHER_CACHE_DIR/cosearch.cache`, header
//! `feather-cosearch-cache v2`).
//!
//! A sealed file is a versioned header line, a body of newline-terminated
//! records the store defines, and a trailer that covers every byte
//! above it:
//!
//! ```text
//! <header>
//! <body>
//! checksum <fnv1a64 of everything above, 16 lower-case hex digits>
//! ```
//!
//! The trailer is compared as text, so no byte of a file has a second
//! spelling: any truncation, bit flip or partial write — and any other
//! version's header — makes [`unseal`] return `None`, and the store treats
//! the file as absent after setting it aside once ([`quarantine`]). What the
//! store makes of a body that unseals is its own input checking. Files are
//! replaced whole ([`write_atomically`]), so processes sharing a cache
//! directory never read a prefix.

use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// FNV-1a 64-bit hash: the trailer of a sealed file, and the schedule
/// fingerprints of plans and programs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The trailer line over `covered`.
fn trailer(covered: &str) -> String {
    format!("checksum {:016x}\n", fnv1a64(covered.as_bytes()))
}

/// `header`, then `body` (newline-terminated records), then the trailer.
pub fn seal(header: &str, body: &str) -> String {
    let mut text = format!("{header}\n{body}");
    let trailer = trailer(&text);
    text.push_str(&trailer);
    text
}

/// The body of a file [`seal`]ed under `header`; `None` for anything else.
pub fn unseal<'a>(text: &'a str, header: &str) -> Option<&'a str> {
    let at = text.len().checked_sub(trailer("").len())?;
    let (covered, sum) = (text.get(..at)?, text.get(at..)?);
    (sum == trailer(covered)).then_some(())?;
    covered.strip_prefix(header)?.strip_prefix('\n')
}

/// Writes `bytes` to a temporary sibling of `path` (creating its directory)
/// and renames it over `path`: readers of a cache directory shared across
/// processes see the old file or the whole new one. The temporary name is
/// unique per process and call, so concurrent savers never share one.
///
/// # Errors
/// Propagates filesystem errors; the temporary file is removed.
pub fn write_atomically(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static SAVES: AtomicU64 = AtomicU64::new(0);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(
        ".{}-{}.tmp",
        std::process::id(),
        SAVES.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    let written = std::fs::File::create(&tmp).and_then(|mut file| {
        file.write_all(bytes)?;
        // On disk before the rename makes it visible under `path`.
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    });
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Renames an unusable file to `<name>.bad` (best-effort) so it is kept for
/// inspection but found — and parsed — exactly once.
pub fn quarantine(path: &Path) {
    let mut bad = path.as_os_str().to_os_string();
    bad.push(".bad");
    let _ = std::fs::rename(path, &bad);
}

/// The cache root the co-search cache lives under: `FEATHER_CACHE_DIR`, or `None`
/// when unset (nothing is persisted).
pub fn cache_dir() -> Option<PathBuf> {
    std::env::var_os("FEATHER_CACHE_DIR").map(PathBuf::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unseal_returns_what_was_sealed_and_nothing_else() {
        for body in ["", "a 1\nb 2\n"] {
            let text = seal("store v1", body);
            assert_eq!(unseal(&text, "store v1"), Some(body));
            // Another store, another version, a header that is a prefix.
            assert_eq!(unseal(&text, "store v2"), None);
            assert_eq!(unseal(&text, "store"), None);
            for cut in 0..text.len() {
                assert_eq!(unseal(&text[..cut], "store v1"), None, "cut at {cut}");
            }
        }
        // The trailer has one spelling.
        let text = seal("h", "x\n");
        let shouted = text.replace("checksum ", "CHECKSUM ");
        assert_eq!(unseal(&shouted, "h"), None);
        // A multi-byte character across the trailer boundary is not a panic.
        assert_eq!(unseal(&format!("{}é", &text[..text.len() - 1]), "h"), None);
    }

    #[test]
    fn fnv1a64_matches_the_published_vectors() {
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
