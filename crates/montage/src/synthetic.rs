//! Synthetic workload generators.
//!
//! Smaller, parameterized DAG shapes used by tests, examples, and ablation
//! benches: pipelines and fork-joins.

use pwm_core::Name;
use pwm_workflow::{AbstractJob, AbstractWorkflow, ReplicaCatalog};

fn job(
    name: Name,
    transformation: &str,
    runtime_s: f64,
    inputs: Vec<Name>,
    outputs: Vec<Name>,
) -> AbstractJob {
    AbstractJob {
        name,
        transformation: transformation.into(),
        runtime_s,
        inputs,
        outputs,
    }
}

/// A linear pipeline of `n` jobs, each consuming its predecessor's output.
/// The first job reads an external input of `input_bytes`.
pub fn chain(n: usize, input_bytes: u64) -> AbstractWorkflow {
    assert!(n >= 1);
    let mut wf = AbstractWorkflow::new(format!("chain-{n}"));
    wf.set_file_size("chain_in", input_bytes);
    for i in 0..n {
        let input = if i == 0 {
            Name::from("chain_in")
        } else {
            format_args!("link_{}", i - 1).into()
        };
        let output: Name = format_args!("link_{i}").into();
        wf.set_file_size(&output, 1_000_000);
        wf.add_job(job(
            format_args!("stage_{i}").into(),
            "process",
            4.0,
            vec![input],
            vec![output],
        ));
    }
    wf
}

/// `width` independent workers fanning out of a splitter and joining into a
/// merger. Each worker reads one external input of `input_bytes`.
pub fn fork_join(width: usize, input_bytes: u64) -> AbstractWorkflow {
    assert!(width >= 1);
    let mut wf = AbstractWorkflow::new(format!("forkjoin-{width}"));
    wf.set_file_size("seed_in", 100_000);
    let splits: Vec<Name> = (0..width)
        .map(|i| format_args!("split_{i}").into())
        .collect();
    for s in &splits {
        wf.set_file_size(s, 100_000);
    }
    wf.add_job(job(
        "split".into(),
        "split",
        2.0,
        vec!["seed_in".into()],
        splits.clone(),
    ));
    let mut merged_inputs = Vec::new();
    for i in 0..width {
        let external: Name = format_args!("work_in_{i}").into();
        let out: Name = format_args!("work_out_{i}").into();
        wf.set_file_size(&external, input_bytes);
        wf.set_file_size(&out, 500_000);
        merged_inputs.push(out.clone());
        wf.add_job(job(
            format_args!("work_{i}").into(),
            "work",
            6.0,
            vec![format_args!("split_{i}").into(), external],
            vec![out],
        ));
    }
    wf.set_file_size("merged", 1_000_000);
    wf.add_job(job(
        "merge".into(),
        "merge",
        5.0,
        merged_inputs,
        vec!["merged".into()],
    ));
    wf
}

/// Register every external input of `workflow` on one source host.
pub fn single_source_replicas(
    workflow: &AbstractWorkflow,
    host_name: &str,
    host: pwm_net::HostId,
) -> ReplicaCatalog {
    let mut rc = ReplicaCatalog::new();
    for file in workflow.external_inputs().expect("valid workflow") {
        rc.insert(
            &file,
            pwm_core::Url::new("gsiftp", host_name, format!("/data/{file}")),
            host,
        );
    }
    rc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_is_a_path() {
        let wf = chain(5, 1_000);
        assert_eq!(wf.len(), 5);
        let levels = wf.validate().unwrap();
        assert_eq!(levels, vec![0, 1, 2, 3, 4]);
        assert_eq!(wf.external_inputs().unwrap().len(), 1);
    }

    #[test]
    fn fork_join_shape() {
        let wf = fork_join(6, 1_000);
        assert_eq!(wf.len(), 8); // split + 6 workers + merge
        let levels = wf.validate().unwrap();
        assert_eq!(*levels.iter().max().unwrap(), 2);
        // 1 seed + 6 worker externals.
        assert_eq!(wf.external_inputs().unwrap().len(), 7);
    }

    #[test]
    fn single_source_replicas_cover_externals() {
        let wf = fork_join(3, 1_000);
        let rc = single_source_replicas(&wf, "src", pwm_net::HostId(0));
        assert_eq!(rc.len(), wf.external_inputs().unwrap().len());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn chains_external_bytes_match(n in 1usize..20, bytes in 1u64..1_000_000) {
            let wf = chain(n, bytes);
            prop_assert_eq!(wf.external_input_bytes().unwrap(), bytes);
        }
    }
}
