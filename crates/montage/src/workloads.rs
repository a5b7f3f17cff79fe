//! Additional realistic workflow shapes.
//!
//! The paper motivates the Policy Service with "scientific applications in a
//! number of domains"; the Pegasus group's workflow characterization
//! (Bharathi et al.) describes the canonical shapes. Beyond Montage we
//! provide two of them for cross-workload experiments:
//!
//! * **CyberShake-like** (earthquake hazard): a handful of huge
//!   strain-green-tensor inputs shared by thousands of small seismogram
//!   jobs — a *sharing-heavy* staging pattern (the dedup rules shine here);
//! * **Epigenomics-like** (DNA methylation): long independent lanes of
//!   sequential filtering/mapping stages — a *pipeline-parallel* pattern
//!   with staging only at the head of each lane.

use pwm_core::Name;
use pwm_sim::SimRng;
use pwm_workflow::{AbstractJob, AbstractWorkflow};

/// Parameters for [`cybershake_like`].
#[derive(Debug, Clone)]
pub struct CyberShakeConfig {
    /// Rupture variations (pairs of seismogram + peak-value jobs).
    pub variations: u32,
    /// Shared strain-green-tensor files (each consumed by *every*
    /// seismogram job).
    pub sgt_files: u32,
    /// Size of each shared SGT file in bytes.
    pub sgt_bytes: u64,
    /// Seed for runtime jitter.
    pub seed: u64,
}

impl Default for CyberShakeConfig {
    fn default() -> Self {
        CyberShakeConfig {
            variations: 40,
            sgt_files: 2,
            sgt_bytes: 500_000_000,
            seed: 0,
        }
    }
}

/// Generate a CyberShake-like workflow: `sgt_files` huge shared inputs,
/// `variations` × (ExtractSGT → SeismogramSynthesis → PeakValCalc) chains,
/// and a final ZipSeis collector.
pub fn cybershake_like(config: &CyberShakeConfig) -> AbstractWorkflow {
    assert!(config.variations >= 1 && config.sgt_files >= 1);
    let mut rng = SimRng::for_component(config.seed, "cybershake");
    let mut wf = AbstractWorkflow::new(format!("cybershake-{}v", config.variations));

    let sgt_names: Vec<Name> = (0..config.sgt_files)
        .map(|i| format_args!("sgt_{i}.bin").into())
        .collect();
    for name in &sgt_names {
        wf.set_file_size(name, config.sgt_bytes);
    }

    let mut peaks = Vec::new();
    for v in 0..config.variations {
        let seis: Name = format_args!("seismogram_{v:04}.grm").into();
        let peak: Name = format_args!("peak_{v:04}.bsa").into();
        wf.set_file_size(&seis, 200_000);
        wf.set_file_size(&peak, 1_000);
        // Every synthesis job reads every shared SGT file: the
        // sharing-heavy pattern.
        let mut inputs = sgt_names.clone();
        let rupture: Name = format_args!("rupture_{v:04}.txt").into();
        wf.set_file_size(&rupture, 10_000);
        inputs.push(rupture);
        wf.add_job(AbstractJob {
            name: format_args!("SeismogramSynthesis_{v:04}").into(),
            transformation: "SeismogramSynthesis".into(),
            runtime_s: rng.normal_clamped(25.0, 5.0, 5.0),
            inputs,
            outputs: vec![seis.clone()],
        });
        wf.add_job(AbstractJob {
            name: format_args!("PeakValCalcOkaya_{v:04}").into(),
            transformation: "PeakValCalcOkaya".into(),
            runtime_s: rng.normal_clamped(1.0, 0.3, 0.2),
            inputs: vec![seis],
            outputs: vec![peak.clone()],
        });
        peaks.push(peak);
    }
    wf.set_file_size("hazard.zip", 5_000_000);
    wf.add_job(AbstractJob {
        name: "ZipSeis".into(),
        transformation: "ZipSeis".into(),
        runtime_s: 10.0,
        inputs: peaks,
        outputs: vec!["hazard.zip".into()],
    });
    wf
}

/// Parameters for [`epigenomics_like`].
#[derive(Debug, Clone)]
pub struct EpigenomicsConfig {
    /// Independent sequencing lanes.
    pub lanes: u32,
    /// Chunks each lane's read file is split into.
    pub chunks_per_lane: u32,
    /// Size of each lane's raw read file.
    pub lane_bytes: u64,
    /// Seed for runtime jitter.
    pub seed: u64,
}

impl Default for EpigenomicsConfig {
    fn default() -> Self {
        EpigenomicsConfig {
            lanes: 4,
            chunks_per_lane: 8,
            lane_bytes: 400_000_000,
            seed: 0,
        }
    }
}

/// Generate an Epigenomics-like workflow: per lane, a fastqSplit fans into
/// `chunks_per_lane` chains of filterContams → sol2sanger → fastq2bfq → map,
/// re-joined by mapMerge; a global mapMerge and maqIndex finish.
pub fn epigenomics_like(config: &EpigenomicsConfig) -> AbstractWorkflow {
    assert!(config.lanes >= 1 && config.chunks_per_lane >= 1);
    let mut rng = SimRng::for_component(config.seed, "epigenomics");
    let mut wf = AbstractWorkflow::new(format!(
        "epigenomics-{}x{}",
        config.lanes, config.chunks_per_lane
    ));
    let chunk_bytes = config.lane_bytes / config.chunks_per_lane as u64;

    let mut lane_merges = Vec::new();
    for lane in 0..config.lanes {
        let raw: Name = format_args!("lane_{lane}.fastq").into();
        wf.set_file_size(&raw, config.lane_bytes);
        let chunk_names: Vec<Name> = (0..config.chunks_per_lane)
            .map(|c| format_args!("l{lane}_chunk_{c}.fastq").into())
            .collect();
        for name in &chunk_names {
            wf.set_file_size(name, chunk_bytes);
        }
        wf.add_job(AbstractJob {
            name: format_args!("fastqSplit_{lane}").into(),
            transformation: "fastqSplit".into(),
            runtime_s: rng.normal_clamped(35.0, 8.0, 5.0),
            inputs: vec![raw],
            outputs: chunk_names.clone(),
        });

        let mut maps = Vec::new();
        for (c, chunk) in chunk_names.iter().enumerate() {
            let stages = [
                ("filterContams", 2.5),
                ("sol2sanger", 1.0),
                ("fastq2bfq", 1.5),
                ("map", 110.0),
            ];
            let mut input = chunk.clone();
            for (stage, mean_rt) in stages {
                let output: Name = format_args!("l{lane}_c{c}_{stage}.out").into();
                wf.set_file_size(&output, chunk_bytes / 2);
                wf.add_job(AbstractJob {
                    name: format_args!("{stage}_{lane}_{c}").into(),
                    transformation: stage.into(),
                    runtime_s: rng.normal_clamped(mean_rt, mean_rt * 0.2, 0.2),
                    inputs: vec![input.clone()],
                    outputs: vec![output.clone()],
                });
                input = output;
            }
            maps.push(input);
        }
        let merged: Name = format_args!("lane_{lane}.map").into();
        wf.set_file_size(&merged, config.lane_bytes / 4);
        wf.add_job(AbstractJob {
            name: format_args!("mapMerge_{lane}").into(),
            transformation: "mapMerge".into(),
            runtime_s: rng.normal_clamped(12.0, 3.0, 2.0),
            inputs: maps,
            outputs: vec![merged.clone()],
        });
        lane_merges.push(merged);
    }

    wf.set_file_size("all.map", config.lane_bytes);
    wf.add_job(AbstractJob {
        name: "mapMergeGlobal".into(),
        transformation: "mapMerge".into(),
        runtime_s: 30.0,
        inputs: lane_merges,
        outputs: vec!["all.map".into()],
    });
    wf.set_file_size("all.map.idx", 50_000_000);
    wf.add_job(AbstractJob {
        name: "maqIndex".into(),
        transformation: "maqIndex".into(),
        runtime_s: 45.0,
        inputs: vec!["all.map".into()],
        outputs: vec!["all.map.idx".into()],
    });
    wf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cybershake_validates_and_has_expected_shape() {
        let cfg = CyberShakeConfig::default();
        let wf = cybershake_like(&cfg);
        let levels = wf.validate().unwrap();
        // 2 jobs per variation + zip.
        assert_eq!(wf.len() as u32, cfg.variations * 2 + 1);
        assert_eq!(*levels.iter().max().unwrap(), 2);
        // The SGT files are the external inputs, shared by all synthesis
        // jobs.
        let externals = wf.external_inputs().unwrap();
        assert!(externals.contains("sgt_0.bin"));
        assert_eq!(wf.consumers("sgt_0.bin").len() as u32, cfg.variations);
    }

    #[test]
    fn cybershake_is_sharing_heavy() {
        // Unique external bytes are tiny compared to what naive per-job
        // staging would copy: the dedup rules save a factor of ~variations.
        let cfg = CyberShakeConfig::default();
        let wf = cybershake_like(&cfg);
        let unique: u64 = wf.external_input_bytes().unwrap();
        let naive: u64 = wf
            .jobs()
            .iter()
            .flat_map(|j| j.inputs.iter())
            .filter(|f| f.starts_with("sgt_"))
            .map(|f| wf.file_size(f).unwrap())
            .sum();
        assert!(naive >= unique * cfg.variations as u64 / 2);
    }

    #[test]
    fn epigenomics_validates_and_is_deep() {
        let cfg = EpigenomicsConfig::default();
        let wf = epigenomics_like(&cfg);
        let levels = wf.validate().unwrap();
        // split → 4 chain stages → lane merge → global merge → index = 8 levels.
        assert_eq!(*levels.iter().max().unwrap(), 7);
        // Only the raw lane files are external.
        let externals = wf.external_inputs().unwrap();
        assert_eq!(externals.len() as u32, cfg.lanes);
    }

    #[test]
    fn epigenomics_job_count() {
        let cfg = EpigenomicsConfig {
            lanes: 2,
            chunks_per_lane: 3,
            ..Default::default()
        };
        let wf = epigenomics_like(&cfg);
        // per lane: 1 split + 3 chunks × 4 stages + 1 merge = 14; ×2 + 2 global.
        assert_eq!(wf.len(), 2 * 14 + 2);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = cybershake_like(&CyberShakeConfig::default());
        let b = cybershake_like(&CyberShakeConfig::default());
        for (x, y) in a.jobs().iter().zip(b.jobs()) {
            assert_eq!(x.runtime_s, y.runtime_s);
        }
        let a = epigenomics_like(&EpigenomicsConfig::default());
        let b = epigenomics_like(&EpigenomicsConfig::default());
        for (x, y) in a.jobs().iter().zip(b.jobs()) {
            assert_eq!(x.runtime_s, y.runtime_s);
        }
    }

    #[test]
    #[should_panic]
    fn zero_variations_rejected() {
        cybershake_like(&CyberShakeConfig {
            variations: 0,
            ..Default::default()
        });
    }
}
