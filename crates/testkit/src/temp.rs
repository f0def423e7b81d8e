use std::fs;
use std::ops::Deref;
use std::path::{Path, PathBuf};

/// A fresh directory under the temp dir, `<name>-<pid>`, removed with what
/// it holds when dropped: at the end of the test that made it, or as its
/// panic unwinds, so a failing test leaves nothing behind either.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Makes the directory, emptying one a killed run left under the name.
    pub fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

impl Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

/// As a `Path` or an `OsStr`, wherever a `PathBuf` would do.
impl<T: ?Sized> AsRef<T> for TempDir
where
    Path: AsRef<T>,
{
    fn as_ref(&self) -> &T {
        self.0.as_path().as_ref()
    }
}
