//! Scaffolding shared by the binary tests.

use std::path::PathBuf;

/// A fresh scratch directory under the system temp dir, removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    /// An empty directory named after the test target, `tag` and this
    /// process, so concurrent tests never share one.
    pub fn new(tag: &str) -> Scratch {
        let name = format!("charm_{}_{tag}_{}", env!("CARGO_CRATE_NAME"), std::process::id());
        let p = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        Scratch(p)
    }

    /// The path of `name` in the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    /// Writes `text` to `name` in the directory and returns its path.
    pub fn write(&self, name: &str, text: &str) -> String {
        let p = self.join(name);
        std::fs::write(&p, text).unwrap();
        p.to_str().unwrap().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
