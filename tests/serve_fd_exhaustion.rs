//! A server that runs out of file descriptors must not spin on its
//! listener: the connection it cannot accept stays in the backlog, so a
//! level-triggered `poll` would report the listener ready again at once,
//! forever.

#![cfg(target_os = "linux")]

use std::io::Read;
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use odbgc_net::{Conn, Request, Response};

/// Kills the server if the test fails before it drains.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn accept_backs_off_when_out_of_descriptors() {
    let dir = std::env::temp_dir().join(format!("odbgc-fd-exhaustion-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let addr_file = dir.join("addr");
    let script = format!(
        "ulimit -n 64; exec {} serve --policy fixed:25 --shards 1 \
         --listen 127.0.0.1:0 --addr-file {}",
        env!("CARGO_BIN_EXE_odbgc"),
        addr_file.display()
    );
    let mut server = Server(
        Command::new("sh")
            .args(["-c", &script])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn odbgc serve"),
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    let addr = loop {
        match std::fs::read_to_string(&addr_file) {
            Ok(a) if !a.is_empty() => break a,
            _ => {
                assert!(Instant::now() < deadline, "serve never wrote its address");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    };

    // More connections than the server has descriptors for: the kernel
    // completes every handshake, the server can accept only some.
    let held: Vec<TcpStream> = (0..100)
        .map(|_| TcpStream::connect(&addr).expect("connect"))
        .collect();
    std::thread::sleep(Duration::from_millis(500));
    drop(held);

    let mut admin = Conn::connect(&addr).expect("admin connect");
    match admin.request(&Request::Shutdown).expect("shutdown") {
        Response::ShutdownOk => {}
        other => panic!("want ShutdownOk, got {other:?}"),
    }
    let mut report = String::new();
    let mut stdout = server.0.stdout.take().expect("piped stdout");
    stdout.read_to_string(&mut report).expect("serve report");
    assert!(server.0.wait().expect("serve exit").success(), "{report}");
    std::fs::remove_dir_all(&dir).ok();

    let wakeups: u64 = report
        .lines()
        .find_map(|l| l.strip_prefix("net loop 0: "))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no loop 0 line in {report}"));
    assert!(
        wakeups < 5_000,
        "loop 0 woke {wakeups} times while out of descriptors"
    );
}
