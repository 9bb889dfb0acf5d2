//! The serving side: the benchmark binary re-executed as a server child.
//!
//! The child parses the same flags as `rtas-svc serve` with the same
//! parser and spawns the same `svc::Server`, so the measured server is the
//! shipped one; running it in its own process lets the benchmark read the
//! serving side's CPU time and peak memory on their own.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use rtas_svc::{cli, Server, SvcConfig};

/// `rtas-svc serve` flags for a workload: one reactor worker (the box has
/// two cores and the load lanes need the other), everything else at the
/// shipped defaults (Combined backend, epoll engine, 8 namespace shards).
pub fn serve_args(capacity: usize) -> Vec<String> {
    ["--workers", "1", "--capacity", &capacity.to_string()]
        .map(String::from)
        .to_vec()
}

/// The configuration the server child runs with, for in-process rungs
/// that must build the same namespace.
pub fn serve_config(capacity: usize) -> SvcConfig {
    cli::parse_serve(&serve_args(capacity)).expect("benchmark serve flags parse")
}

/// Entry point of `perfbench serve <rtas-svc serve flags>`: serve until
/// standard input closes, so the server never outlives the benchmark.
pub fn child_main(args: &[String]) -> ExitCode {
    let config = match cli::parse_serve(args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("perfbench serve: {e}");
            return ExitCode::from(2);
        }
    };
    let server = match Server::spawn(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("perfbench serve: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = io::stdout();
    if writeln!(out, "listening on {}", server.addr())
        .and_then(|()| out.flush())
        .is_err()
    {
        server.shutdown();
        return ExitCode::from(2);
    }
    let _ = io::stdin().read_to_end(&mut Vec::new());
    server.shutdown();
    ExitCode::SUCCESS
}

/// A running server child. Dropping it kills and reaps the child.
pub struct ServerChild {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
}

impl ServerChild {
    pub fn spawn(capacity: usize) -> io::Result<ServerChild> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("serve")
            .args(serve_args(capacity))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("child stdout is piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        match addr {
            Some(addr) => Ok(ServerChild { child, stdin, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "server child did not report its address (got {line:?})"
                )))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Close the child's standard input and wait for a clean exit; kill it
    /// if it has not exited within five seconds.
    pub fn stop(mut self) -> io::Result<()> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!(
                        "server child exited with {status}"
                    )))
                };
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "server child did not stop",
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
