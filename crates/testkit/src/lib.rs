//! Helpers shared by the rc-hls test suites and benches: a scratch
//! directory that is unique per call and removed on drop, and the byte
//! mutations the never-panic properties apply to valid inputs. Only
//! `[dev-dependencies]` name this crate.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh, empty directory under the system temp dir, owned by one
/// test. The process id plus a per-process counter keep concurrent
/// tests (and concurrent test processes) from sharing files; dropping it
/// removes the directory and everything in it.
#[derive(Debug)]
pub struct TestDir(PathBuf);

impl TestDir {
    /// Creates `rchls-<tag>-<pid>-<n>` under the system temp dir.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    #[must_use]
    pub fn new(tag: &str) -> TestDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("rchls-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("the system temp dir is writable");
        TestDir(dir)
    }

    /// The directory itself.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A path inside the directory.
    #[must_use]
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes that matter to JSON; [`mutate`] draws half its replacement
/// bytes from here so edits reach past the first token.
const JSON_BYTES: &[u8] = b"[]{}\":,.-+eE0123456789 \\untrufalse";

/// Applies `(op, position, byte)` edits to `input`: op 0 overwrites, 2
/// deletes, anything else inserts; positions wrap to the current length,
/// and a byte of 128 or more is replaced by a byte JSON gives meaning to.
#[must_use]
pub fn mutate(input: &str, edits: &[(u8, usize, u8)]) -> String {
    let mut bytes = input.as_bytes().to_vec();
    for &(op, pos, byte) in edits {
        let byte = if byte < 128 {
            byte
        } else {
            JSON_BYTES[usize::from(byte) % JSON_BYTES.len()]
        };
        match op {
            0 if !bytes.is_empty() => {
                let i = pos % bytes.len();
                bytes[i] = byte;
            }
            2 if !bytes.is_empty() => {
                bytes.remove(pos % bytes.len());
            }
            _ => bytes.insert(pos % (bytes.len() + 1), byte),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[cfg(test)]
mod tests {
    use super::{mutate, TestDir};

    #[test]
    fn mutations_overwrite_insert_and_delete() {
        assert_eq!(mutate("abc", &[(0, 1, b'x')]), "axc");
        assert_eq!(mutate("abc", &[(1, 3, b'd')]), "abcd");
        assert_eq!(mutate("abc", &[(2, 4, 0)]), "ac");
        assert_eq!(mutate("", &[(2, 0, 0), (0, 0, b'z')]), "z");
    }

    #[test]
    fn each_call_gets_its_own_directory_and_drop_removes_it() {
        let a = TestDir::new("testdir");
        let b = TestDir::new("testdir");
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_dir() && b.path().is_dir());
        std::fs::write(a.join("file"), "x").unwrap();
        let gone = a.path().to_path_buf();
        drop(a);
        assert!(!gone.exists());
        assert!(b.path().is_dir());
    }
}
