//! Process readings from `/proc`: CPU time and resident memory, for the
//! benchmark itself or for the server child it spawned.

use std::fs;
use std::io;

/// Clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed at 100
/// on every Linux architecture this repository builds for).
const TICKS_PER_S: f64 = 100.0;

fn proc_file(pid: Option<u32>, name: &str) -> io::Result<String> {
    match pid {
        None => fs::read_to_string(format!("/proc/self/{name}")),
        Some(pid) => fs::read_to_string(format!("/proc/{pid}/{name}")),
    }
}

/// User plus system CPU seconds of every thread of the process so far.
pub fn cpu_seconds(pid: Option<u32>) -> io::Result<f64> {
    let stat = proc_file(pid, "stat")?;
    // Fields after the parenthesised command name, which may hold spaces;
    // utime and stime are fields 14 and 15 of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / TICKS_PER_S)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed stat"))
    };
    Ok(tick(11)? + tick(12)?)
}

/// A `kB` field of `/proc/<pid>/status`, such as `VmHWM` or `VmRSS`, in bytes.
pub fn status_bytes(pid: Option<u32>, field: &str) -> io::Result<u64> {
    let status = proc_file(pid, "status")?;
    status
        .lines()
        .find_map(|line| {
            let value = line.strip_prefix(field)?.strip_prefix(':')?;
            value.trim().strip_suffix("kB")?.trim().parse::<u64>().ok()
        })
        .map(|kb| kb * 1024)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("no {field} in status")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_process() {
        assert!(cpu_seconds(None).unwrap() >= 0.0);
        // Resident first: the peak read after it can only be larger.
        let rss = status_bytes(None, "VmRSS").unwrap();
        let hwm = status_bytes(None, "VmHWM").unwrap();
        assert!(rss > 0 && hwm >= rss);
    }
}
