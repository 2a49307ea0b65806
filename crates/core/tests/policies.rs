//! Exception policies (paper Section 3.3): Abort, Continue and Custom with
//! Break / Continue / Repeat / Restart actions, plus dependency skipping.

mod common;

use std::sync::Arc;

use brmi::policy::{AbortPolicy, ContinuePolicy, CustomPolicy};
use brmi::{remote_interface, Batch};
use brmi_wire::invocation::{ExceptionAction, PolicySpec};
use brmi_wire::{FromValue, RemoteError, ToValue, Value};
use common::{BNode, Node, Rig};
use parking_lot::Mutex;

#[test]
fn abort_policy_skips_everything_after_the_failure() {
    let rig = Rig::chain(&[10]);
    let (batch, root) = rig.batch(AbortPolicy);
    let before = root.value();
    let failing = root.fail_with("Boom".into());
    let after = root.name();
    batch.flush().unwrap();

    assert_eq!(before.get().unwrap(), 10);
    common::assert_app_error(&failing.get().unwrap_err(), "Boom");
    // Skipped calls re-throw the root cause.
    common::assert_app_error(&after.get().unwrap_err(), "Boom");
    // The skipped call never reached the server method.
    assert_eq!(rig.root.calls.load(std::sync::atomic::Ordering::Relaxed), 2);
}

#[test]
fn continue_policy_executes_later_calls() {
    let rig = Rig::chain(&[10]);
    let (batch, root) = rig.batch(ContinuePolicy);
    let failing = root.fail_with("Boom".into());
    let after = root.value();
    batch.flush().unwrap();
    common::assert_app_error(&failing.get().unwrap_err(), "Boom");
    assert_eq!(after.get().unwrap(), 10);
}

#[test]
fn continue_policy_still_skips_dependents() {
    // Even under Continue, calls on a failed call's result cannot run.
    let rig = Rig::chain(&[10]); // n0 has no successor
    let (batch, root) = rig.batch(ContinuePolicy);
    let broken = root.next();
    let dependent = broken.value();
    let independent = root.value();
    batch.flush().unwrap();
    common::assert_app_error(&dependent.get().unwrap_err(), "NoNextNode");
    assert_eq!(independent.get().unwrap(), 10);
}

#[test]
fn custom_policy_breaks_only_on_selected_exception() {
    // The bank pattern: continue by default, break on one named failure.
    let mut policy = CustomPolicy::new();
    policy.set_default_action(ExceptionAction::Continue);
    policy.on_exception("Fatal", ExceptionAction::Break);

    let rig = Rig::chain(&[10]);
    let (batch, root) = rig.batch(policy);
    let minor = root.fail_with("Minor".into());
    let mid = root.value();
    let fatal = root.fail_with("Fatal".into());
    let after = root.value();
    batch.flush().unwrap();

    common::assert_app_error(&minor.get().unwrap_err(), "Minor");
    assert_eq!(mid.get().unwrap(), 10);
    common::assert_app_error(&fatal.get().unwrap_err(), "Fatal");
    common::assert_app_error(&after.get().unwrap_err(), "Fatal");
}

#[test]
fn custom_policy_matches_method_and_index() {
    let mut policy = CustomPolicy::new();
    policy.set_default_action(ExceptionAction::Continue);
    // Only position 0 breaking mirrors the paper's bank lookup rule.
    policy.set_action(
        "Boom",
        common::NodeSkeleton::METHOD_FAIL_WITH,
        0,
        ExceptionAction::Break,
    );

    let rig = Rig::chain(&[10]);
    let (batch, root) = rig.batch(policy.clone());
    let first = root.fail_with("Boom".into());
    let after = root.value();
    batch.flush().unwrap();
    common::assert_app_error(&first.get().unwrap_err(), "Boom");
    common::assert_app_error(&after.get().unwrap_err(), "Boom");

    // Same failure at position 1 falls to the Continue default.
    let (batch, root) = rig.batch(policy);
    let _pad = root.value();
    let second = root.fail_with("Boom".into());
    let after = root.value();
    batch.flush().unwrap();
    common::assert_app_error(&second.get().unwrap_err(), "Boom");
    assert_eq!(after.get().unwrap(), 10);
}

#[test]
fn repeat_action_retries_until_success() {
    let mut policy = CustomPolicy::new();
    policy.on_exception("FlakyError", ExceptionAction::Repeat);

    let rig = Rig::chain(&[10]);
    let (batch, root) = rig.batch(policy);
    // Fails twice, succeeds on attempt 3 (within the bound of 3 repeats).
    let result = root.flaky(2);
    batch.flush().unwrap();
    assert_eq!(result.get().unwrap(), 3);
}

#[test]
fn repeat_action_gives_up_after_the_bound() {
    let mut policy = CustomPolicy::new();
    policy.on_exception("FlakyError", ExceptionAction::Repeat);

    let rig = Rig::chain(&[10]);
    let (batch, root) = rig.batch(policy);
    // Needs 10 attempts; the executor allows 1 + 3 repeats.
    let result = root.flaky(10);
    let after = root.value();
    batch.flush().unwrap();
    common::assert_app_error(&result.get().unwrap_err(), "FlakyError");
    // Exhausted repeats degrade to Break.
    common::assert_app_error(&after.get().unwrap_err(), "FlakyError");
    assert_eq!(
        rig.root.attempts.load(std::sync::atomic::Ordering::Relaxed),
        4,
        "one initial try plus three repeats"
    );
}

#[test]
fn restart_action_replays_the_batch() {
    let mut policy = CustomPolicy::new();
    policy.on_exception("FlakyError", ExceptionAction::Restart);

    let rig = Rig::chain(&[0]);
    let (batch, root) = rig.batch(policy);
    root.set_value(1);
    // Fails on the first full pass, succeeds after one restart.
    let flaky = root.flaky(1);
    batch.flush().unwrap();
    assert_eq!(flaky.get().unwrap(), 2);
    assert_eq!(batch.stats().server_restarts, 1);
    // The restart re-ran the whole batch, including set_value.
    assert!(
        rig.root.calls.load(std::sync::atomic::Ordering::Relaxed) >= 3,
        "set_value executed on both passes"
    );
}

#[test]
fn restart_action_gives_up_after_the_bound() {
    let mut policy = CustomPolicy::new();
    policy.on_exception("FlakyError", ExceptionAction::Restart);

    let rig = Rig::chain(&[0]);
    let (batch, root) = rig.batch(policy);
    let flaky = root.flaky(100); // never recovers within 3 restarts
    batch.flush().unwrap();
    common::assert_app_error(&flaky.get().unwrap_err(), "FlakyError");
    assert_eq!(batch.stats().server_restarts, 3);
}

#[test]
fn middleware_faults_respect_policies_too() {
    // A reference to an unexported object is a NoSuchObject fault; under
    // Continue the rest of the batch still runs.
    use brmi::Batch;
    use common::BNode;

    let rig = Rig::chain(&[10]);
    let bogus_ref = rig.conn.reference(brmi_wire::ObjectId(999));
    let batch = Batch::new(rig.conn.clone(), ContinuePolicy);
    let bogus = BNode::new(&batch, &bogus_ref);
    let root = BNode::new(&batch, &rig.root_ref);
    let broken = bogus.value();
    let fine = root.value();
    batch.flush().unwrap();
    assert_eq!(
        broken.get().unwrap_err().kind(),
        brmi_wire::RemoteErrorKind::NoSuchObject
    );
    assert_eq!(fine.get().unwrap(), 10);
}

/// A by-value record argument.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Label {
    text: String,
    tags: Vec<String>,
}

impl ToValue for Label {
    fn to_value(&self) -> Value {
        Value::Record(vec![
            ("text".into(), self.text.to_value()),
            ("tags".into(), self.tags.to_value()),
        ])
    }
}

impl FromValue for Label {
    fn from_value(value: Value) -> Result<Self, RemoteError> {
        let mut fields = value.into_record()?.into_iter();
        match (fields.next(), fields.next()) {
            (Some((_, text)), Some((_, tags))) => Ok(Label {
                text: String::from_value(text)?,
                tags: Vec::from_value(tags)?,
            }),
            _ => Err(RemoteError::application("BadLabel", "two fields expected")),
        }
    }
}

remote_interface! {
    pub interface Recorder {
        fn flaky_labelled(label: Label, node: remote Node, succeed_after: i32) -> i32;
    }
}

/// Fails until `succeed_after` attempts were made, recording the label and
/// the node's identity that every attempt received.
#[derive(Default)]
struct AttemptLog {
    seen: Mutex<Vec<(Label, usize)>>,
}

impl Recorder for AttemptLog {
    fn flaky_labelled(
        &self,
        label: Label,
        node: Arc<dyn Node>,
        succeed_after: i32,
    ) -> Result<i32, RemoteError> {
        let mut seen = self.seen.lock();
        seen.push((label, Arc::as_ptr(&node) as *const () as usize));
        let attempt = seen.len() as i32;
        if attempt > succeed_after {
            Ok(attempt)
        } else {
            Err(RemoteError::application("FlakyError", "not yet"))
        }
    }
}

/// Runs one `flaky_labelled` call on the result of `root.next()` under
/// `policy`; returns the call's result and what each attempt received.
fn labelled_attempts(
    policy: impl Into<PolicySpec>,
    succeed_after: i32,
) -> (Result<i32, RemoteError>, Label, Vec<(Label, usize)>) {
    let rig = Rig::chain(&[1, 2]);
    let log = Arc::new(AttemptLog::default());
    let id = rig
        .server
        .bind("recorder", RecorderSkeleton::remote_arc(log.clone()))
        .unwrap();
    let batch = Batch::new(rig.conn.clone(), policy);
    let recorder = BRecorder::new(&batch, &rig.conn.reference(id));
    let root = BNode::new(&batch, &rig.root_ref);
    let next = root.next();
    let label = Label {
        text: "same every time".into(),
        tags: vec!["a".into(), "b".into()],
    };
    let result = recorder.flaky_labelled(label.clone(), &next, succeed_after);
    batch.flush().unwrap();
    let seen = log.seen.lock().clone();
    (result.get(), label, seen)
}

fn assert_identical_attempts(seen: &[(Label, usize)], sent: &Label, attempts: usize) {
    assert_eq!(seen.len(), attempts);
    for (label, node) in seen {
        assert_eq!(label, sent);
        assert_eq!(*node, seen[0].1, "every attempt sees the same node");
    }
}

#[test]
fn repeat_by_rule_hands_every_attempt_the_same_arguments() {
    let mut policy = CustomPolicy::new();
    policy.on_exception("FlakyError", ExceptionAction::Repeat);
    let (result, sent, seen) = labelled_attempts(policy, 2);
    assert_eq!(result.unwrap(), 3);
    assert_identical_attempts(&seen, &sent, 3);
}

#[test]
fn repeat_by_default_hands_every_attempt_the_same_arguments() {
    let mut policy = CustomPolicy::new();
    policy.set_default_action(ExceptionAction::Repeat);
    let (result, sent, seen) = labelled_attempts(policy, 10);
    // One initial try plus three repeats, then Break.
    common::assert_app_error(&result.unwrap_err(), "FlakyError");
    assert_identical_attempts(&seen, &sent, 4);
}

#[test]
fn non_repeating_policy_invokes_once_with_the_arguments() {
    let (result, sent, seen) = labelled_attempts(ContinuePolicy, 0);
    assert_eq!(result.unwrap(), 1);
    assert_identical_attempts(&seen, &sent, 1);
}

/// `Label` keeps the default `from_value_in` (one owned copy, then
/// `from_value`): on the owned value and on its borrowed view it agrees
/// with `from_value` on a copy — the same label, or errors of the same
/// kind.
#[test]
fn label_conversions_agree_borrowed_and_owned() {
    let label = Label {
        text: "t".into(),
        tags: vec!["a".into()],
    };
    let values = [
        label.to_value(),
        Value::Record(vec![
            ("text".into(), Value::I32(1)),
            ("tags".into(), Value::Null),
        ]),
        Value::Record(vec![("text".into(), Value::Str("only".into()))]),
        Value::Str("not a record".into()),
    ];
    for value in &values {
        let kind = |r: Result<Label, RemoteError>| r.map_err(|e| e.kind());
        let taken = kind(Label::from_value(value.clone()));
        assert_eq!(kind(Label::from_value_in(value)), taken);
        assert_eq!(kind(Label::from_value_in(&value.to_ref())), taken);
    }
    assert_eq!(Label::from_value_in(&values[0]).unwrap(), label);
}
