//! The host record printed with every result: the numbers mean little
//! without the machine, the kernel's timer slack and the filesystem the
//! WAL wrote to.

use std::fs;
use std::path::Path;

use serde_json::{json, Value as Json};

/// Facts about the machine and build that a result depends on.
#[derive(Clone, Debug)]
pub struct Host {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Kernel release.
    pub kernel: String,
    /// This thread's timer slack, which pads every short sleep.
    pub timerslack_ns: Option<u64>,
    /// Filesystem type under the WAL directory.
    pub wal_fs: String,
    /// Commit of the measured tree, when it is a git checkout.
    pub git_commit: String,
    /// Workload seed of this run.
    pub seed: u64,
    /// Whether the counting global allocator is installed.
    pub count_allocs: bool,
}

impl Host {
    /// Samples the host. `wal_dir` must exist.
    #[must_use]
    pub fn probe(wal_dir: &Path, seed: u64) -> Host {
        let read = |p: &str| fs::read_to_string(p).unwrap_or_default();
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model: read("/proc/cpuinfo")
                .lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map_or_else(|| "unknown".into(), |(_, m)| m.trim().to_string()),
            kernel: read("/proc/sys/kernel/osrelease").trim().to_string(),
            timerslack_ns: read("/proc/self/timerslack_ns").trim().parse().ok(),
            wal_fs: fs::canonicalize(wal_dir)
                .ok()
                .and_then(|dir| mount_fs_type(&read("/proc/self/mountinfo"), &dir))
                .unwrap_or_else(|| "unknown".into()),
            git_commit: git_commit(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
            seed,
            count_allocs: tc_bench::alloc::enabled(),
        }
    }

    /// The record as JSON.
    #[must_use]
    pub fn to_json(&self) -> Json {
        json!({
            "nproc": (self.nproc),
            "cpu_model": (self.cpu_model.clone()),
            "kernel": (self.kernel.clone()),
            "timerslack_ns": (self.timerslack_ns.map_or(Json::Null, Json::from)),
            "wal_fs": (self.wal_fs.clone()),
            "git_commit": (self.git_commit.clone()),
            "seed": (self.seed),
            "count_allocs": (self.count_allocs),
        })
    }
}

/// The filesystem type of the longest mount point containing `path`,
/// from `/proc/self/mountinfo` text (mount point is field 5; the type
/// follows the ` - ` separator).
fn mount_fs_type(mountinfo: &str, path: &Path) -> Option<String> {
    mountinfo
        .lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split_whitespace().nth(4)?;
            let fs_type = right.split_whitespace().next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs_type.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

/// The commit `HEAD` names, read straight from the git directory.
fn git_commit(git_dir: &Path) -> Option<String> {
    let head = fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(name) => fs::read_to_string(git_dir.join(name))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                fs::read_to_string(git_dir.join("packed-refs"))
                    .ok()?
                    .lines()
                    .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
            }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_mount_point_wins() {
        let info = "22 1 8:1 / / rw,relatime shared:1 - ext4 /dev/sda1 rw\n\
                    30 22 0:5 / /tmp rw shared:2 - tmpfs tmpfs rw\n\
                    31 22 0:6 / /t rw shared:3 - xfs /dev/sdb rw\n";
        assert_eq!(
            mount_fs_type(info, Path::new("/tmp/x")),
            Some("tmpfs".into())
        );
        assert_eq!(
            mount_fs_type(info, Path::new("/home/x")),
            Some("ext4".into())
        );
        assert_eq!(mount_fs_type("", Path::new("/x")), None);
    }
}
