//! Integration: the Policy Service "allows multiple workflows to share
//! staged files safely" — duplicate staging is suppressed across workflows
//! and cleanup is deferred until the last user releases a file.

use pwm_core::transport::PolicyTransport;
use pwm_core::{
    CleanupSpec, PolicyConfig, PolicyController, TransferOutcome, TransferSpec, Url, WorkflowId,
    DEFAULT_SESSION,
};
use pwm_rest::PolicyRestClient;

fn spec(file: &str, wf: u64) -> TransferSpec {
    TransferSpec {
        source: Url::new("gsiftp", "gridftp-vm", format!("/data/{file}")),
        dest: Url::new("file", "obelix-nfs", format!("/scratch/shared/{file}")),
        bytes: 50_000_000,
        requested_streams: None,
        workflow: WorkflowId(wf),
        cluster: None,
        priority: None,
    }
}

fn cleanup(file: &str, wf: u64) -> CleanupSpec {
    CleanupSpec {
        file: Url::new("file", "obelix-nfs", format!("/scratch/shared/{file}")),
        workflow: WorkflowId(wf),
    }
}

#[test]
fn two_workflows_share_one_staged_file_lifecycle() {
    let controller = PolicyController::new(PolicyConfig::default());
    let mut wf1 = PolicyRestClient::pipe(controller.clone(), DEFAULT_SESSION);
    let mut wf2 = PolicyRestClient::pipe(controller.clone(), DEFAULT_SESSION);

    // wf1 stages the file.
    let advice1 = wf1.evaluate_transfers(vec![spec("big.dat", 1)]).unwrap();
    assert!(advice1[0].should_execute());
    wf1.report_transfers(vec![TransferOutcome {
        id: advice1[0].id,
        success: true,
    }])
    .unwrap();

    // wf2 requests the same file → skipped, but registered as a user.
    let advice2 = wf2.evaluate_transfers(vec![spec("big.dat", 2)]).unwrap();
    assert!(!advice2[0].should_execute());

    // wf1 finishes and asks for cleanup → suppressed: wf2 still uses it.
    let c1 = wf1.evaluate_cleanups(vec![cleanup("big.dat", 1)]).unwrap();
    assert!(!c1[0].should_execute(), "cleanup must wait for wf2");
    assert_eq!(
        controller.snapshot(DEFAULT_SESSION).unwrap().staged_files,
        1
    );

    // wf2 finishes and asks for cleanup → executes now.
    let c2 = wf2.evaluate_cleanups(vec![cleanup("big.dat", 2)]).unwrap();
    assert!(c2[0].should_execute());
    wf2.report_cleanups(vec![pwm_core::CleanupOutcome {
        id: c2[0].id,
        success: true,
    }])
    .unwrap();
    assert_eq!(
        controller.snapshot(DEFAULT_SESSION).unwrap().staged_files,
        0
    );
}

#[test]
fn concurrent_request_for_in_flight_file_is_skipped_and_protected() {
    let controller = PolicyController::new(PolicyConfig::default());
    let mut wf1 = PolicyRestClient::pipe(controller.clone(), DEFAULT_SESSION);
    let mut wf2 = PolicyRestClient::pipe(controller.clone(), DEFAULT_SESSION);

    // wf1's transfer is in progress (not yet reported).
    let advice1 = wf1
        .evaluate_transfers(vec![spec("inflight.dat", 1)])
        .unwrap();
    assert!(advice1[0].should_execute());

    // wf2 asks for the same file while it is in flight → skipped.
    let advice2 = wf2
        .evaluate_transfers(vec![spec("inflight.dat", 2)])
        .unwrap();
    assert!(!advice2[0].should_execute());

    // wf1 completes; wf2's cleanup request is still blocked by... nobody:
    // wf2 detaches itself, wf1 remains a user.
    wf1.report_transfers(vec![TransferOutcome {
        id: advice1[0].id,
        success: true,
    }])
    .unwrap();
    let c2 = wf2
        .evaluate_cleanups(vec![cleanup("inflight.dat", 2)])
        .unwrap();
    assert!(
        !c2[0].should_execute(),
        "wf1 still uses the file; wf2's cleanup must be suppressed"
    );

    let c1 = wf1
        .evaluate_cleanups(vec![cleanup("inflight.dat", 1)])
        .unwrap();
    assert!(c1[0].should_execute(), "last user's cleanup proceeds");
}

#[test]
fn failed_staging_does_not_poison_sharing() {
    let controller = PolicyController::new(PolicyConfig::default());
    let mut wf1 = PolicyRestClient::pipe(controller.clone(), DEFAULT_SESSION);
    let mut wf2 = PolicyRestClient::pipe(controller.clone(), DEFAULT_SESSION);

    let advice1 = wf1.evaluate_transfers(vec![spec("flaky.dat", 1)]).unwrap();
    wf1.report_transfers(vec![TransferOutcome {
        id: advice1[0].id,
        success: false,
    }])
    .unwrap();

    // The failed staging must not make wf2 believe the file exists.
    let advice2 = wf2.evaluate_transfers(vec![spec("flaky.dat", 2)]).unwrap();
    assert!(
        advice2[0].should_execute(),
        "after a failure the file must be restageable"
    );
}

#[test]
fn many_workflows_one_transfer() {
    let controller = PolicyController::new(PolicyConfig::default());
    let mut first = PolicyRestClient::pipe(controller.clone(), DEFAULT_SESSION);
    let advice = first
        .evaluate_transfers(vec![spec("popular.dat", 0)])
        .unwrap();
    first
        .report_transfers(vec![TransferOutcome {
            id: advice[0].id,
            success: true,
        }])
        .unwrap();

    for wf in 1..=10 {
        let mut t = PolicyRestClient::pipe(controller.clone(), DEFAULT_SESSION);
        let a = t.evaluate_transfers(vec![spec("popular.dat", wf)]).unwrap();
        assert!(
            !a[0].should_execute(),
            "wf{wf} should reuse the staged file"
        );
    }
    let stats = controller.stats(DEFAULT_SESSION).unwrap();
    assert_eq!(stats.transfers_executed, 1);
    assert_eq!(stats.transfers_suppressed, 10);

    // Cleanups: the first nine are suppressed, the tenth (last user left
    // after wf0 and wf1..=9 detach one by one) executes.
    for wf in 0..=9 {
        let mut t = PolicyRestClient::pipe(controller.clone(), DEFAULT_SESSION);
        let c = t
            .evaluate_cleanups(vec![cleanup("popular.dat", wf)])
            .unwrap();
        assert!(
            !c[0].should_execute(),
            "wf{wf}'s cleanup should be suppressed"
        );
    }
    let mut last = PolicyRestClient::pipe(controller.clone(), DEFAULT_SESSION);
    let c = last
        .evaluate_cleanups(vec![cleanup("popular.dat", 10)])
        .unwrap();
    assert!(c[0].should_execute(), "the final user's cleanup executes");
}
