//! Failure table: a shard fault ends the run.
//!
//! The shard layer has one failure rule — a failed spawn or handshake, a
//! link that goes down, a message the protocol does not allow, or a shard
//! that makes no progress within the io timeout kills every child and
//! returns an error naming the shard and the check, with which the trainer
//! panics. Each row is a misbehaving child defined in this test binary; each
//! runs at 1 and 2 shards inside a watchdog, must panic with a message that
//! names a shard and the row's check, and must leave this process without a
//! child. A control run with real children must finish and, once the
//! trainer is dropped, leave no child either. `scripts/check.sh` runs this
//! suite in release mode too.

use fedca_core::config::FlConfig;
use fedca_core::shard::test_child_args;
use fedca_core::shard::{FromShard, ToShard, ENV_SHARD_ID, ENV_SOCKET};
use fedca_core::transport::{encode_message, read_frame, MAX_FRAME_LEN};
use fedca_core::{Scheme, Trainer, Workload};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

// The control's child: the real shard server (see `shard::test_child_args`).
fedca_core::shard_child_entry!();

/// A child that connects and then never says a word — no `Hello`, nothing.
/// Like every entry point below, it is an instant no-op pass without the
/// socket variable.
#[test]
fn mute_child_entry() {
    if let Ok(path) = std::env::var(ENV_SOCKET) {
        let _stream = UnixStream::connect(path).expect("connect");
        thread::sleep(Duration::from_secs(600));
    }
}

/// Connects and answers the coordinator's `Init` with a `Hello`, as a real
/// child does. `None` when this process is not a shard child.
fn greet_root() -> Option<UnixStream> {
    let path = std::env::var(ENV_SOCKET).ok()?;
    let shard_id = std::env::var(ENV_SHARD_ID).unwrap().parse().unwrap();
    let mut stream = UnixStream::connect(path).expect("connect");
    read_frame(&mut stream, MAX_FRAME_LEN).expect("read Init");
    let hello = encode_message(0, &FromShard::Hello { shard_id }, None).unwrap();
    stream.write_all(&hello).expect("send Hello");
    Some(stream)
}

/// Reads (and ignores) frames until the coordinator hangs up.
fn read_until_eof(stream: &mut UnixStream) {
    while let Ok(Some(_)) = read_frame(stream, MAX_FRAME_LEN) {}
}

/// The first dispatch's round and first ordinal.
fn read_dispatch(stream: &mut UnixStream) -> (usize, usize) {
    let frame = read_frame(stream, MAX_FRAME_LEN)
        .expect("read RoundStart")
        .expect("a dispatch");
    let meta = std::str::from_utf8(&frame.meta).unwrap();
    match serde_json::from_str::<ToShard>(meta).unwrap() {
        ToShard::RoundStart { round, items } => (round, items[0].ord),
        other => panic!("expected RoundStart, got {other:?}"),
    }
}

/// Sends a `Failed` for `(round, ord)` as the link's first frame, then
/// reads until the coordinator hangs up.
fn answer_failed(mut stream: UnixStream, round: usize, ord: usize) {
    let msg = FromShard::Failed {
        round,
        ord,
        client_id: 0,
        panic_msg: "forged".into(),
    };
    stream
        .write_all(&encode_message(0, &msg, None).unwrap())
        .expect("send Failed");
    read_until_eof(&mut stream);
}

/// A child that exits as soon as it has read its first dispatch.
#[test]
fn exit_when_dispatched_child_entry() {
    if let Some(mut stream) = greet_root() {
        read_dispatch(&mut stream);
    }
}

/// A child that reads every frame and never answers.
#[test]
fn silent_child_entry() {
    if let Some(mut stream) = greet_root() {
        read_until_eof(&mut stream);
    }
}

/// A child that answers its first dispatch for an ordinal it was not sent.
#[test]
fn stray_ordinal_child_entry() {
    if let Some(mut stream) = greet_root() {
        let (round, _) = read_dispatch(&mut stream);
        answer_failed(stream, round, 999);
    }
}

/// A child that answers its first dispatch for the next round.
#[test]
fn wrong_round_child_entry() {
    if let Some(mut stream) = greet_root() {
        let (round, ord) = read_dispatch(&mut stream);
        answer_failed(stream, round + 1, ord);
    }
}

/// Hard wall-clock budget for one row's run.
const WATCHDOG: Duration = Duration::from_secs(10);

/// One misbehaving child, its io timeout, and the check its fault must
/// name.
struct Row {
    child_entry: &'static str,
    io_timeout_secs: f64,
    check: &'static str,
}

const ROWS: &[Row] = &[
    Row {
        child_entry: "mute_child_entry",
        io_timeout_secs: 0.5,
        check: "handshake",
    },
    Row {
        child_entry: "exit_when_dispatched_child_entry",
        io_timeout_secs: 0.0,
        check: "link down: eof",
    },
    Row {
        child_entry: "silent_child_entry",
        io_timeout_secs: 0.5,
        check: "io timeout",
    },
    Row {
        // libtest finds no such test, runs nothing and exits before the
        // child ever connects.
        child_entry: "no_such_child_entry",
        io_timeout_secs: 0.0,
        check: "failed to start shard process",
    },
    Row {
        child_entry: "stray_ordinal_child_entry",
        io_timeout_secs: 0.0,
        check: "event for ordinal 999, which it does not owe",
    },
    Row {
        child_entry: "wrong_round_child_entry",
        io_timeout_secs: 0.0,
        check: "event for round 1 in round 0",
    },
];

fn fl(shards: usize, io_timeout_secs: f64, child_args: Vec<String>) -> FlConfig {
    let mut fl = FlConfig {
        n_clients: 12,
        clients_per_round: 6,
        local_iters: 2,
        batch_size: 8,
        seed: 47,
        ..FlConfig::scaled()
    };
    fl.shard.n_shards = shards;
    fl.shard.io_timeout_secs = io_timeout_secs;
    fl.shard.child_args = child_args;
    fl
}

/// Runs two rounds on its own thread and returns the panic message, `None`
/// if the run finished; panics if it does not end within the watchdog
/// budget. The trainer is dropped before this returns.
fn run_watched(label: &str, fl: FlConfig) -> Option<String> {
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut t =
                Trainer::new_with_workers(fl, Scheme::fedca_default(), Workload::tiny_mlp(47), 1);
            t.run(2);
        }));
        let _ = tx.send(outcome.err().map(|payload| {
            match (
                payload.downcast_ref::<String>(),
                payload.downcast_ref::<&str>(),
            ) {
                (Some(msg), _) => msg.clone(),
                (None, Some(msg)) => msg.to_string(),
                (None, None) => "<non-string panic>".into(),
            }
        }));
    });
    let msg = rx
        .recv_timeout(WATCHDOG)
        .unwrap_or_else(|e| panic!("[{label}] did not end within {WATCHDOG:?}: {e:?}"));
    handle.join().expect("the subject thread caught its panic");
    msg
}

/// Pids of this process's children, read from every thread's list.
fn children() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .flatten()
        .flat_map(|task| {
            let list = std::fs::read_to_string(task.path().join("children")).unwrap_or_default();
            list.split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn every_shard_fault_ends_the_run_and_leaves_no_child() {
    assert_eq!(
        children(),
        Vec::<String>::new(),
        "children before the table"
    );
    for row in ROWS {
        for shards in [1usize, 2] {
            let label = format!("{} at {shards} shards", row.child_entry);
            let args = vec![
                row.child_entry.into(),
                "--exact".into(),
                "--nocapture".into(),
            ];
            let msg = run_watched(&label, fl(shards, row.io_timeout_secs, args))
                .unwrap_or_else(|| panic!("[{label}] the run finished without a fault"));
            assert!(
                msg.contains(row.check),
                "[{label}] the panic does not name `{}`: {msg}",
                row.check
            );
            assert!(
                (0..shards).any(|s| msg.contains(&format!("shard {s}: "))),
                "[{label}] the panic names no shard: {msg}"
            );
            assert_eq!(
                children(),
                Vec::<String>::new(),
                "[{label}] a child outlived the run"
            );
        }
    }
    // The control: real children finish the run, and dropping the trainer
    // shuts them down without leaving one behind.
    for shards in [1usize, 2] {
        let label = format!("healthy children at {shards} shards");
        let msg = run_watched(&label, fl(shards, 0.0, test_child_args()));
        assert_eq!(msg, None, "[{label}] a healthy run failed");
        assert_eq!(
            children(),
            Vec::<String>::new(),
            "[{label}] a child outlived the run"
        );
    }
}
