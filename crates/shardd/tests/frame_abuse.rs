//! Coordinator-frame robustness: a worker process poked with raw bytes.
//!
//! The worker's framing layer faces a coordinator that may be buggy,
//! version-skewed, or dying mid-write; every malformed input must come
//! back as a typed error frame or end in a clean worker exit — never a
//! hang, a panic, or a half-applied mutation. These tests bypass the
//! [`Coordinator`] and write bytes straight onto the worker's stdin,
//! mirroring `tests/serve_protocol.rs` for the TCP daemon.

use std::io::{Read, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use wot_serve::protocol::{read_frame, write_frame, ErrorCode, FrameRead};
use wot_serve::shard_proto::{
    decode_shard_reply, encode_shard_request, ShardReply, ShardRequest, MAX_SHARD_FRAME_LEN, NO_TAG,
};

struct Rig {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: ChildStdout,
    dir: std::path::PathBuf,
}

impl Rig {
    fn boot(tag: &str) -> Rig {
        let dir = std::env::temp_dir().join(format!("wot-abuse-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut child = Command::new(env!("CARGO_BIN_EXE_wot-shardd"))
            .arg("--wal")
            .arg(dir.join("w.wal"))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        let stdin = child.stdin.take().unwrap();
        let stdout = child.stdout.take().unwrap();
        Rig {
            child,
            stdin: Some(stdin),
            stdout,
            dir,
        }
    }

    /// Sends a raw request body and decodes one reply frame.
    fn roundtrip(&mut self, body: &[u8]) -> Result<ShardReply, wot_serve::WireError> {
        write_frame(self.stdin.as_mut().unwrap(), body).unwrap();
        match read_frame(&mut self.stdout, MAX_SHARD_FRAME_LEN).unwrap() {
            FrameRead::Frame(f) => decode_shard_reply(&f).unwrap(),
            other => panic!("expected a reply frame, got {other:?}"),
        }
    }

    fn request(&mut self, req: &ShardRequest) -> Result<ShardReply, wot_serve::WireError> {
        let mut body = Vec::new();
        encode_shard_request(&mut body, req);
        self.roundtrip(&body)
    }

    /// Waits (bounded) for the worker to exit; panics on a hang.
    fn expect_exit(mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if self.child.try_wait().unwrap().is_some() {
                std::fs::remove_dir_all(&self.dir).ok();
                return;
            }
            assert!(Instant::now() < deadline, "worker must exit, not hang");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn finish(mut self) {
        let _ = self.request(&ShardRequest::Shutdown);
        self.expect_exit();
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn expect_err(reply: Result<ShardReply, wot_serve::WireError>, code: ErrorCode) -> String {
    match reply {
        Err(e) => {
            assert_eq!(e.code, code, "{}", e.message);
            e.message
        }
        Ok(ok) => panic!("expected {code:?} error, got {ok:?}"),
    }
}

fn hello(rig: &mut Rig) {
    let reply = rig
        .request(&ShardRequest::Hello {
            num_users: 8,
            num_categories: 2,
            cut: NO_TAG,
            owned: vec![0, 1],
        })
        .unwrap();
    assert!(matches!(reply, ShardReply::Hello(_)));
}

#[test]
fn empty_body_is_a_typed_error() {
    let mut rig = Rig::boot("empty");
    expect_err(rig.roundtrip(&[]), ErrorCode::BadRequest);
    // The session survives: a handshake still works afterwards.
    hello(&mut rig);
    rig.finish();
}

#[test]
fn unknown_opcode_is_a_typed_error() {
    let mut rig = Rig::boot("opcode");
    expect_err(rig.roundtrip(&[0x66, 1, 2, 3]), ErrorCode::BadRequest);
    rig.finish();
}

#[test]
fn retired_opcodes_are_typed_errors() {
    let mut rig = Rig::boot("retired");
    hello(&mut rig);
    for code in [2u8, 3, 4, 10] {
        expect_err(rig.roundtrip(&[code]), ErrorCode::BadRequest);
    }
    rig.finish();
}

#[test]
fn truncated_body_is_a_typed_error() {
    let mut rig = Rig::boot("trunc");
    // A Hello cut off after num_users.
    let mut body = Vec::new();
    encode_shard_request(
        &mut body,
        &ShardRequest::Hello {
            num_users: 8,
            num_categories: 2,
            cut: NO_TAG,
            owned: vec![0, 1],
        },
    );
    expect_err(rig.roundtrip(&body[..5]), ErrorCode::BadRequest);
    rig.finish();
}

#[test]
fn trailing_garbage_is_a_typed_error() {
    let mut rig = Rig::boot("trailing");
    let mut body = Vec::new();
    encode_shard_request(&mut body, &ShardRequest::States { categories: vec![] });
    body.extend_from_slice(&[0xde, 0xad]);
    expect_err(rig.roundtrip(&body), ErrorCode::BadRequest);
    rig.finish();
}

#[test]
fn implausible_adopt_count_is_a_typed_error() {
    let mut rig = Rig::boot("adopt");
    hello(&mut rig);
    // AdoptCategory claiming u32::MAX events in a tiny body.
    let mut body = vec![6u8]; // AdoptCategory opcode
    body.extend_from_slice(&9u32.to_le_bytes()); // category (unowned is fine)
    body.extend_from_slice(&u32::MAX.to_le_bytes()); // event count
    expect_err(rig.roundtrip(&body), ErrorCode::BadRequest);
    rig.finish();
}

#[test]
fn request_before_handshake_is_a_typed_error() {
    let mut rig = Rig::boot("nohello");
    let mut body = Vec::new();
    encode_shard_request(&mut body, &ShardRequest::States { categories: vec![] });
    let msg = expect_err(rig.roundtrip(&body), ErrorCode::BadRequest);
    assert!(msg.contains("handshake"), "{msg}");
    rig.finish();
}

#[test]
fn oversized_frame_ends_the_session_cleanly() {
    let mut rig = Rig::boot("oversize");
    // A length prefix past the cap: the worker must refuse to allocate
    // and exit rather than read (or hang on) a quarter-gigabyte body.
    let len = (MAX_SHARD_FRAME_LEN as u32) + 1;
    rig.stdin
        .as_mut()
        .unwrap()
        .write_all(&len.to_le_bytes())
        .unwrap();
    rig.stdin.as_mut().unwrap().flush().unwrap();
    // No reply frame: the stream just ends.
    let mut rest = Vec::new();
    rig.stdout.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "no bytes after an oversized prefix");
    rig.expect_exit();
}

#[test]
fn coordinator_death_mid_frame_ends_the_worker() {
    let mut rig = Rig::boot("midframe");
    hello(&mut rig);
    // A frame that promises 64 bytes but delivers 10, then the pipe
    // closes — the torn write of a dying coordinator.
    let stdin = rig.stdin.as_mut().unwrap();
    stdin.write_all(&64u32.to_le_bytes()).unwrap();
    stdin.write_all(&[7u8; 10]).unwrap();
    stdin.flush().unwrap();
    rig.expect_exit();
}

#[test]
fn clean_stdin_close_is_a_clean_exit() {
    let mut rig = Rig::boot("close");
    hello(&mut rig);
    drop(rig.stdin.take());
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(s) = rig.child.try_wait().unwrap() {
            break s;
        }
        assert!(Instant::now() < deadline, "worker must exit on EOF");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        status.success(),
        "EOF after a quiet frame boundary is not an error"
    );
}
