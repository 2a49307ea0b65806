//! The two `Batch` hooks added for runtimes layered over explicit
//! batching (`brmi-implicit` is the in-tree consumer):
//! `first_failure_from` and `discard_pending`.

mod common;

use brmi::policy::{AbortPolicy, ContinuePolicy};
use brmi_wire::{RemoteError, RemoteErrorKind};
use common::{assert_app_error, Rig, TestNode};

#[test]
fn first_failure_reports_nothing_before_flush() {
    let rig = Rig::chain(&[1, 2]);
    let (batch, root) = rig.batch(AbortPolicy);
    let _pending = root.value();
    assert!(batch.first_failure_from(0).is_none(), "pending ≠ failed");
}

#[test]
fn first_failure_is_the_earliest_one() {
    let rig = Rig::chain(&[1, 2]);
    let (batch, root) = rig.batch(ContinuePolicy);
    let _ok = root.value(); // seq 0
    let _first = root.fail_with("First".into()); // seq 1
    let _second = root.fail_with("Second".into()); // seq 2
    batch.flush().unwrap();
    let err = batch.first_failure_from(0).expect("failures exist");
    assert_app_error(&err, "First");
}

#[test]
fn first_failure_respects_the_watermark() {
    let rig = Rig::chain(&[1, 2]);
    let (batch, root) = rig.batch(ContinuePolicy);
    let _first = root.fail_with("First".into()); // seq 0
    let _second = root.fail_with("Second".into()); // seq 1
    batch.flush().unwrap();
    let err = batch.first_failure_from(1).expect("second failure visible");
    assert_app_error(&err, "Second");
    assert!(batch.first_failure_from(2).is_none());
}

#[test]
fn abort_skips_count_as_failures_with_the_original_cause() {
    let rig = Rig::chain(&[1, 2]);
    let (batch, root) = rig.batch(AbortPolicy);
    let _boom = root.fail_with("Boom".into()); // seq 0
    let skipped = root.value(); // seq 1: skipped by the abort
    batch.flush().unwrap();
    assert_app_error(&skipped.get().unwrap_err(), "Boom");
    let err = batch.first_failure_from(1).expect("skip recorded");
    assert_app_error(&err, "Boom");
}

#[test]
fn discard_pending_fails_futures_without_contacting_the_server() {
    let rig = Rig::chain(&[5, 6]);
    let (batch, root) = rig.batch(AbortPolicy);
    let a = root.value();
    let b = root.name();
    rig.stats.reset();
    let reason = RemoteError::application("Discarded", "speculative");
    assert_eq!(batch.discard_pending(&reason), 2);
    assert_eq!(rig.stats.requests(), 0, "purely client-side");
    assert_app_error(&a.get().unwrap_err(), "Discarded");
    assert_app_error(&b.get().unwrap_err(), "Discarded");
    assert_eq!(rig.root.calls.load(std::sync::atomic::Ordering::Relaxed), 0);
}

#[test]
fn discard_pending_keeps_the_batch_usable() {
    let rig = Rig::chain(&[5, 6]);
    let (batch, root) = rig.batch(AbortPolicy);
    let doomed = root.value();
    let reason = RemoteError::application("Discarded", "speculative");
    batch.discard_pending(&reason);

    // New calls record and flush normally.
    let fresh = root.value();
    batch.flush().unwrap();
    assert_eq!(fresh.get().unwrap(), 5);
    assert_app_error(&doomed.get().unwrap_err(), "Discarded");
}

#[test]
fn discard_pending_preserves_flushed_results_and_session() {
    let rig = Rig::chain(&[7, 8]);
    let (batch, root) = rig.batch(AbortPolicy);
    let second = root.next();
    let kept = second.value();
    batch.flush_and_continue().unwrap();
    assert_eq!(kept.get().unwrap(), 8);
    let session = batch.session().expect("chained session live");

    let doomed = second.value();
    batch.discard_pending(&RemoteError::application("Discarded", "x"));
    assert_eq!(batch.session(), Some(session), "session untouched");
    assert_eq!(kept.get().unwrap(), 8, "resolved futures untouched");
    assert!(doomed.get().is_err());

    // The chained stub still works in a later segment.
    let again = second.value();
    batch.flush().unwrap();
    assert_eq!(again.get().unwrap(), 8);
}

#[test]
fn discard_pending_on_empty_batch_is_a_noop() {
    let rig = Rig::chain(&[1]);
    let (batch, _root) = rig.batch(AbortPolicy);
    assert_eq!(
        batch.discard_pending(&RemoteError::new(RemoteErrorKind::Protocol, "x")),
        0
    );
    batch.flush().unwrap();
}

#[test]
fn discarded_cursor_cannot_be_reused() {
    let rig = Rig::with_children(&[1, 2, 3]);
    let (batch, root) = rig.batch(AbortPolicy);
    let cursor = root.children();
    let _name = cursor.name();
    batch.discard_pending(&RemoteError::application("Discarded", "x"));
    // Recording on the discarded cursor is a contiguity/closed error that
    // poisons the batch rather than silently re-recording.
    let _late = cursor.value();
    assert!(batch.flush().is_err());
}

#[test]
fn first_failure_sees_recording_poison_too() {
    let rig = Rig::chain(&[1]);
    let (batch, root) = rig.batch(AbortPolicy);
    let other_rig = Rig::chain(&[9]);
    let (_other_batch, other_root) = other_rig.batch(AbortPolicy);
    // A foreign stub poisons the recording; the pre-failed slot is
    // visible to the failure scan immediately.
    let _bad = root.add(&other_root);
    assert!(batch.first_failure_from(0).is_some());
    let _ = TestNode::new("unused", 0);
}

#[test]
fn first_failure_scans_only_from_the_watermark_across_chained_flushes() {
    let rig = Rig::chain(&[1, 2]);
    let (batch, root) = rig.batch(ContinuePolicy);
    let _early = root.fail_with("Early".into()); // seq 0
    let _ok = root.value(); // seq 1
    batch.flush_and_continue().unwrap();

    let _fine = root.value(); // seq 2
    let _late = root.fail_with("Late".into()); // seq 3
    let _later = root.fail_with("Later".into()); // seq 4
    batch.flush().unwrap();

    assert_app_error(&batch.first_failure_from(0).unwrap(), "Early");
    // A failure below `start` is never reported, however early it is.
    assert_app_error(&batch.first_failure_from(1).unwrap(), "Late");
    assert_app_error(&batch.first_failure_from(2).unwrap(), "Late");
    assert_app_error(&batch.first_failure_from(4).unwrap(), "Later");
    assert!(batch.first_failure_from(5).is_none());
    assert!(batch.first_failure_from(u32::MAX).is_none());
}
