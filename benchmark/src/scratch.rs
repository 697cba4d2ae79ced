//! The run's scratch directory: stores and sockets live under
//! `benchmark/out/s<pid>/`, relative to the working directory so that Unix
//! socket paths stay far below their 108-byte cap wherever the checkout is,
//! and are removed on exit, panics included.

use std::path::{Path, PathBuf};

pub const OUT_DIR: &str = "benchmark/out";

pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create() -> Scratch {
        let dir = Path::new(OUT_DIR).join(format!("s{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory under benchmark/out");
        // A panic on a daemon or worker thread never unwinds through main's
        // guard, so the hook removes the directory as well.
        let doomed = dir.clone();
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = std::fs::remove_dir_all(&doomed);
            default(info);
        }));
        Scratch(dir)
    }

    /// A fresh, empty subdirectory.
    pub fn sub(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch subdirectory");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
