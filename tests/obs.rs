//! Trace-export smoke test: one short storm that provokes **every**
//! [`EventKind`], then validates the Chrome trace-event export end to end —
//! the document must parse as JSON (checked by a small recursive-descent
//! validator below, since the workspace builds without serde) and must
//! contain an instant record for each of the ten kinds.
//!
//! The recorder is process-global, so the whole storm lives in a single
//! `#[test]` function; this file is its own test binary, which keeps the
//! install from leaking into unrelated suites.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use range_locks_repro::range_lock::{
    ListLockConfig, ListRangeLock, LockMode, Range, RwListRangeLock, TwoPhaseRwRangeLock,
};
use range_locks_repro::rl_file::LockTable;
use range_locks_repro::rl_obs::{trace, EventKind, Recorder, RecorderConfig};
use range_locks_repro::rl_sync::wait::WaitPolicyKind::Block;

// ---------------------------------------------------------------------------
// Minimal JSON validity checker (no values retained — parse-or-panic only).
// ---------------------------------------------------------------------------

struct JsonCheck<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonCheck<'a> {
    fn new(text: &'a str) -> Self {
        JsonCheck {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) {
        assert_eq!(
            self.peek(),
            Some(byte),
            "expected {:?} at byte {}",
            byte as char,
            self.pos
        );
        self.pos += 1;
    }

    fn literal(&mut self, word: &str) {
        let end = self.pos + word.len();
        assert!(
            self.bytes.get(self.pos..end) == Some(word.as_bytes()),
            "expected `{word}` at byte {}",
            self.pos
        );
        self.pos = end;
    }

    fn string(&mut self) {
        self.expect(b'"');
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return;
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'u') => self.pos += 5, // \uXXXX
                        Some(_) => self.pos += 1,
                        None => panic!("dangling escape at end of input"),
                    }
                }
                Some(_) => self.pos += 1,
                None => panic!("unterminated string"),
            }
        }
    }

    fn number(&mut self) {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        assert!(
            text.parse::<f64>().is_ok(),
            "bad number `{text}` at byte {start}"
        );
    }

    fn value(&mut self) {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return;
                }
                loop {
                    self.skip_ws();
                    self.string();
                    self.skip_ws();
                    self.expect(b':');
                    self.value();
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return;
                        }
                        other => panic!("expected , or }} in object, got {other:?}"),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return;
                }
                loop {
                    self.value();
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return;
                        }
                        other => panic!("expected , or ] in array, got {other:?}"),
                    }
                }
            }
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(_) => self.number(),
            None => panic!("unexpected end of input"),
        }
    }
}

/// Panics unless `text` is one complete, well-formed JSON value.
fn assert_valid_json(text: &str) {
    let mut check = JsonCheck::new(text);
    check.value();
    check.skip_ws();
    assert_eq!(
        check.pos,
        check.bytes.len(),
        "trailing bytes after the JSON document"
    );
}

// ---------------------------------------------------------------------------
// The storm.
// ---------------------------------------------------------------------------

/// Spins until `recorder` holds at least one event of `kind` (bounded).
fn wait_for_event(recorder: &Recorder, kind: EventKind) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (events, _) = recorder.collect();
        if events.iter().any(|e| e.kind == kind) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "no {} event appeared within the deadline",
            kind.name()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn short_storm_exports_every_event_kind_as_valid_chrome_trace_json() {
    // Record everything: no fast-path sampling for a smoke test.
    let recorder: &'static Recorder = trace::install(Recorder::new(RecorderConfig {
        sample_shift: 0,
        ..RecorderConfig::default()
    }));
    trace::set_enabled(true);

    // Granted + Release: one uncontended acquire/release pair.
    let lock = ListRangeLock::new();
    drop(lock.write(Range::new(0, 100)));

    // Cancelled: enqueue behind a held conflicting range, then cancel.
    {
        let _held = lock.write(Range::new(200, 300));
        let mut pending = lock.enqueue(Range::new(200, 300), LockMode::Exclusive);
        assert!(lock.poll(&mut pending).is_none());
        lock.cancel(&mut pending);
    }

    // TimedOut: a timed acquisition that can never succeed (the same thread
    // holds the conflicting guard past the deadline).
    {
        let _held = lock.write(Range::new(400, 500));
        assert!(lock
            .write_timeout(Range::new(400, 500), Duration::from_millis(5))
            .is_none());
    }

    // BatchRollback: a lock-table batch rolled back mid-batch. Bob holds
    // [200,300) and is suspended waiting for [0,100); alice's batch commits
    // [120,130), then closes the cycle on [200,300) and rolls back.
    {
        use std::future::Future;
        use std::task::{Context, Poll, Waker};

        let table = Arc::new(LockTable::new(Box::new(RwListRangeLock::new())));
        let mut alice = table.owner("obs-alice");
        let mut bob = table.owner("obs-bob");
        alice.lock(Range::new(0, 10), LockMode::Shared).unwrap();
        bob.lock(Range::new(200, 300), LockMode::Exclusive).unwrap();
        let mut cx = Context::from_waker(Waker::noop());
        let mut bob_fut = Box::pin(bob.lock_async(Range::new(0, 100), LockMode::Exclusive));
        assert!(bob_fut.as_mut().poll(&mut cx).is_pending());
        let items = [
            (Range::new(120, 130), LockMode::Exclusive),
            (Range::new(200, 300), LockMode::Shared),
        ];
        let mut batch = Box::pin(alice.lock_many_async(&items));
        let mut outcome = None;
        for _ in 0..64 {
            match batch.as_mut().poll(&mut cx) {
                Poll::Ready(result) => {
                    outcome = Some(result);
                    break;
                }
                // Let bob re-derive his edge (bob -> alice) after the commit.
                Poll::Pending => assert!(bob_fut.as_mut().poll(&mut cx).is_pending()),
            }
        }
        let outcome = outcome.expect("the batch did not resolve");
        assert!(outcome.is_err(), "the batch must roll back on EDEADLK");
    }

    // AcquireStart + Parked + Woken: a Block-policy waiter that genuinely
    // parks. The holder releases only after the park event is visible in the
    // recorder, so the wake is deterministic rather than a sleep-based race.
    {
        let blocking = Arc::new(ListRangeLock::with_config(ListLockConfig {
            wait: Block,
            ..ListLockConfig::default()
        }));
        let guard = blocking.write(Range::new(0, 64));
        let waiter = {
            let blocking = Arc::clone(&blocking);
            std::thread::spawn(move || drop(blocking.write(Range::new(0, 64))))
        };
        wait_for_event(recorder, EventKind::Parked);
        drop(guard);
        waiter.join().unwrap();
    }

    // SpuriousWake: a keyed parker herded by a broadcast while its
    // predicate is still false — the cost that per-key wakes avoid,
    // provoked here directly on a [`WaitQueue`]. The wake_all
    // loop retries until the parker has genuinely parked and re-checked.
    {
        use range_locks_repro::rl_sync::{WaitQueue, WaitStats};
        use std::sync::atomic::{AtomicBool, Ordering};

        let stats = Arc::new(WaitStats::new("obs-herd"));
        let mut queue = WaitQueue::new(Block);
        queue.attach_stats(Arc::clone(&stats));
        let queue = Arc::new(queue);
        let flag = Arc::new(AtomicBool::new(false));
        let parker = {
            let queue = Arc::clone(&queue);
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || queue.park(0x5157, || flag.load(Ordering::Acquire), None))
        };
        while stats.snapshot().spurious_wakeups == 0 {
            queue.wake_all();
            std::thread::sleep(Duration::from_millis(1));
        }
        flag.store(true, Ordering::Release);
        queue.wake_all();
        parker.join().unwrap();
    }

    // DeadlockDetected: the classic two-owner cross (A holds s0 wants s1,
    // B holds s1 wants s0). Detection guarantees at least one EDEADLK; the
    // loser's unlock_all lets the survivor finish, so the test cannot wedge.
    let deadlock_err = {
        let s0 = Range::new(0, 64);
        let s1 = Range::new(64, 128);
        let table = Arc::new(LockTable::new(Box::new(RwListRangeLock::new())));
        let barrier = Arc::new(Barrier::new(2));
        let thread_a = {
            let table = Arc::clone(&table);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut owner = table.owner("obs-a");
                owner.lock(s0, LockMode::Exclusive).unwrap();
                barrier.wait();
                let err = owner.lock(s1, LockMode::Exclusive).err();
                owner.unlock_all();
                err
            })
        };
        let mut owner = table.owner("obs-b");
        owner.lock(s1, LockMode::Exclusive).unwrap();
        barrier.wait();
        let err_b = owner.lock(s0, LockMode::Exclusive).err();
        owner.unlock_all();
        let err_a = thread_a.join().unwrap();
        assert_eq!(table.held_records(), 0);
        err_a.or(err_b).expect("the cross must surface one EDEADLK")
    };

    // The DOT dump rides on the error itself (satellite of the exporters):
    // a parseable digraph naming the cycle.
    assert!(
        deadlock_err.waits_dot().starts_with("digraph"),
        "waits-for DOT export missing: {:?}",
        deadlock_err.waits_dot()
    );

    trace::set_enabled(false);

    // Every kind must have been recorded…
    let (events, _overwritten) = recorder.collect();
    for kind in EventKind::ALL {
        assert!(
            events.iter().any(|e| e.kind == kind),
            "storm produced no {} event (got {} events)",
            kind.name(),
            events.len()
        );
    }

    // …and the export must be one valid JSON document carrying an instant
    // record for each kind under the traceEvents array.
    let json = recorder.chrome_trace();
    assert_valid_json(&json);
    assert!(json.contains("\"traceEvents\""));
    for kind in EventKind::ALL {
        assert!(
            json.contains(&format!("\"name\":\"{}\"", kind.name())),
            "chrome trace is missing {} instants",
            kind.name()
        );
    }
}
