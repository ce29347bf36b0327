//! The daemon under test, run as shipped in a child process: this same
//! executable started as `perfbench daemon --model <checkpoint>` loads the
//! checkpoint, binds an ephemeral loopback port with
//! `ServeConfig::default()` and serves until a client sends `shutdown`.
//! The child's environment has every `QPP_SERVE_*` variable removed, so
//! the defaults are the shipped ones.

use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use qppnet::serve::{Request, ServeAddr, ServeConfig, Server};
use qppnet::QppNet;

use crate::loadgen::Conn;

/// Entry point of the child: serve the checkpoint at `model_path`.
pub fn child_main(model_path: &str) -> io::Result<()> {
    let json = std::fs::read_to_string(model_path)?;
    let model =
        QppNet::from_json(&json).map_err(|e| io::Error::other(format!("bad checkpoint: {e}")))?;
    drop(json);
    let mut server = Server::bind(
        &ServeAddr::parse("127.0.0.1:0").map_err(io::Error::other)?,
        ServeConfig::default(),
    )?;
    server.register(&model);
    println!("listening {}", server.local_addr());
    server.run()
}

/// A running daemon child.
pub struct Daemon {
    child: Child,
    /// Kept open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Starts a daemon on `model_path` and waits until it answers a
    /// `stats` request. Returns it with the time that took.
    pub fn start(model_path: &Path) -> io::Result<(Daemon, Duration)> {
        let t0 = Instant::now();
        let exe = std::env::current_exe()?;
        let mut cmd = Command::new(exe);
        cmd.arg("daemon")
            .arg("--model")
            .arg(model_path)
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("QPP_SERVE_") {
                cmd.env_remove(key);
            }
        }
        let mut child = cmd.spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let Some(addr) = line.trim().strip_prefix("listening ").map(str::to_string) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "daemon did not start: `{}`",
                line.trim()
            )));
        };
        let daemon = Daemon {
            child,
            _stdout: stdout,
            addr,
        };
        Conn::connect(&daemon.addr)?.stats()?;
        Ok((daemon, t0.elapsed()))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to shut down and waits for it to exit.
    pub fn stop(mut self) -> io::Result<()> {
        Conn::connect(&self.addr)?.call(&Request::Shutdown)?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("daemon exited with {status}")))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(io::Error::other("daemon did not exit after shutdown"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
