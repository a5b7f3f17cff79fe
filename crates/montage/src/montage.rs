//! The Montage astronomy workflow generator.
//!
//! Montage "is used to construct large image mosaics of the sky ... input
//! files are images re-projected onto a sphere, and overlap is calculated
//! for each input image ... the reprojected images are co-added into a final
//! mosaic". We generate the classic nine-transformation shape
//! (mProjectPP → mDiffFit → mConcatFit → mBgModel → mBackground → mImgtbl →
//! mAdd → mShrink → mJPEG) over an `r × c` tile grid with horizontal,
//! vertical, and diagonal overlaps.
//!
//! **Sizing.** The paper's 1-degree-square workflow has **89 data staging
//! jobs** with no clustering (one stage-in per compute job). A 4×5 grid with
//! diagonal overlaps gives 20 + 43 + 1 + 1 + 20 + 1 + 1 + 1 + 1 = 89 compute
//! jobs, each with at least one external input, reproducing that count
//! exactly ([`MontageConfig::default`]).
//!
//! **Augmentation.** `extra_file_bytes > 0` reproduces the paper's
//! augmented workflow: "we augmented the Montage 1 degree square workflow to
//! stage one additional data file for each data staging job", with sizes 10
//! MB – 1 GB in the experiments. Extra files are distinct per job and live
//! on the remote GridFTP host; the ordinary Montage inputs live on the local
//! Apache host ("Montage input image files were stored on the Obelix cluster
//! and staged in via an Apache web server").

use pwm_core::Name;
use pwm_sim::SimRng;
use pwm_workflow::{AbstractJob, AbstractWorkflow, ReplicaCatalog};

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct MontageConfig {
    /// Tile grid rows.
    pub rows: u32,
    /// Tile grid columns.
    pub cols: u32,
    /// Size of the one additional WAN-staged file per compute job
    /// (0 = unaugmented workflow).
    pub extra_file_bytes: u64,
    /// Seed for per-file size jitter.
    pub seed: u64,
}

impl Default for MontageConfig {
    /// The paper's 1-degree-square workflow: 89 compute jobs.
    fn default() -> Self {
        MontageConfig {
            rows: 4,
            cols: 5,
            extra_file_bytes: 0,
            seed: 0,
        }
    }
}

impl MontageConfig {
    /// Number of mProjectPP jobs (grid tiles).
    pub fn projections(&self) -> u32 {
        self.rows * self.cols
    }

    /// Number of mDiffFit jobs: horizontal + vertical + diagonal overlaps.
    pub fn diffs(&self) -> u32 {
        let (r, c) = (self.rows, self.cols);
        r * (c - 1) + (r - 1) * c + (r - 1) * (c - 1)
    }
}

/// Mean runtimes (seconds) per transformation, in the "several seconds"
/// regime the paper describes for mProjectPP, with the long-tail steps
/// (mConcatFit, mBgModel, mAdd) matching published Montage profiles.
fn runtime_for(transformation: &str) -> f64 {
    match transformation {
        "mProjectPP" => 8.0,
        "mDiffFit" => 3.0,
        "mConcatFit" => 25.0,
        "mBgModel" => 20.0,
        "mBackground" => 2.0,
        "mImgtbl" => 3.0,
        "mAdd" => 40.0,
        "mShrink" => 10.0,
        "mJPEG" => 2.0,
        _ => 5.0,
    }
}

/// Generate the Montage workflow.
pub fn montage_workflow(config: &MontageConfig) -> AbstractWorkflow {
    assert!(
        config.rows >= 2 && config.cols >= 2,
        "grid must be at least 2×2"
    );
    let mut wf = AbstractWorkflow::new(format!(
        "montage-{}x{}{}",
        config.rows,
        config.cols,
        if config.extra_file_bytes > 0 {
            "-aug"
        } else {
            ""
        }
    ));
    let mut rng = SimRng::for_component(config.seed, "montage-sizes");
    let mut set_size = |wf: &mut AbstractWorkflow, file: &str, mean: f64, jitter: f64| {
        let bytes = (mean * rng.jitter(jitter)).max(1.0) as u64;
        wf.set_file_size(file, bytes);
    };

    let tile = |i: u32, j: u32| format!("{i:02}_{j:02}");
    let add_compute = |wf: &mut AbstractWorkflow,
                       name: Name,
                       transformation: &str,
                       mut inputs: Vec<Name>,
                       outputs: Vec<Name>| {
        // Every compute job reads a small per-job control file from the
        // local Apache server, so every job has an external input and the
        // no-clustering plan has exactly one stage-in job per compute job —
        // the paper's 89.
        let control: Name = format_args!("params_{name}.tbl").into();
        wf.set_file_size(&control, 10_000);
        inputs.push(control);
        // The augmentation: one additional (distinct) WAN-staged file per
        // data staging job.
        if config.extra_file_bytes > 0 {
            let extra: Name = format_args!("extra_{name}.dat").into();
            wf.set_file_size(&extra, config.extra_file_bytes);
            inputs.push(extra);
        }
        wf.add_job(AbstractJob {
            name,
            transformation: transformation.into(),
            runtime_s: runtime_for(transformation),
            inputs,
            outputs,
        });
    };

    // 1. mProjectPP per tile: raw 2MASS image → reprojected image.
    for i in 0..config.rows {
        for j in 0..config.cols {
            let t = tile(i, j);
            let raw: Name = format_args!("2mass_{t}.fits").into();
            let proj: Name = format_args!("p_{t}.fits").into();
            let area: Name = format_args!("p_area_{t}.fits").into();
            // "the average size of 2 MBytes for stage-in files for the most
            // data-intensive Montage job (mProjectPP)"
            set_size(&mut wf, &raw, 2.0e6, 0.15);
            set_size(&mut wf, &proj, 4.0e6, 0.1);
            set_size(&mut wf, &area, 4.0e6, 0.1);
            add_compute(
                &mut wf,
                format_args!("mProjectPP_{t}").into(),
                "mProjectPP",
                vec![raw],
                vec![proj, area],
            );
        }
    }

    // 2. mDiffFit per overlapping tile pair (horizontal, vertical, diagonal).
    let mut pairs: Vec<(String, String)> = Vec::new();
    for i in 0..config.rows {
        for j in 0..config.cols {
            if j + 1 < config.cols {
                pairs.push((tile(i, j), tile(i, j + 1)));
            }
            if i + 1 < config.rows {
                pairs.push((tile(i, j), tile(i + 1, j)));
            }
            if i + 1 < config.rows && j + 1 < config.cols {
                pairs.push((tile(i, j), tile(i + 1, j + 1)));
            }
        }
    }
    let mut fit_files = Vec::new();
    for (k, (a, b)) in pairs.iter().enumerate() {
        let fit: Name = format_args!("fit_{k:03}.txt").into();
        set_size(&mut wf, &fit, 10_000.0, 0.2);
        fit_files.push(fit.clone());
        add_compute(
            &mut wf,
            format_args!("mDiffFit_{k:03}").into(),
            "mDiffFit",
            vec![
                format_args!("p_{a}.fits").into(),
                format_args!("p_{b}.fits").into(),
            ],
            vec![fit],
        );
    }

    // 3. mConcatFit merges every fit.
    set_size(&mut wf, "fits.tbl", 50_000.0, 0.1);
    add_compute(
        &mut wf,
        "mConcatFit".into(),
        "mConcatFit",
        fit_files,
        vec!["fits.tbl".into()],
    );

    // 4. mBgModel computes background corrections.
    set_size(&mut wf, "corrections.tbl", 20_000.0, 0.1);
    add_compute(
        &mut wf,
        "mBgModel".into(),
        "mBgModel",
        vec!["fits.tbl".into()],
        vec!["corrections.tbl".into()],
    );

    // 5. mBackground per tile: corrected image.
    let mut corrected = Vec::new();
    for i in 0..config.rows {
        for j in 0..config.cols {
            let t = tile(i, j);
            let c: Name = format_args!("c_{t}.fits").into();
            set_size(&mut wf, &c, 4.0e6, 0.1);
            corrected.push(c.clone());
            add_compute(
                &mut wf,
                format_args!("mBackground_{t}").into(),
                "mBackground",
                vec![format_args!("p_{t}.fits").into(), "corrections.tbl".into()],
                vec![c],
            );
        }
    }

    // 6. mImgtbl indexes the corrected images.
    set_size(&mut wf, "images.tbl", 60_000.0, 0.1);
    add_compute(
        &mut wf,
        "mImgtbl".into(),
        "mImgtbl",
        corrected.clone(),
        vec!["images.tbl".into()],
    );

    // 7. mAdd co-adds into the mosaic.
    set_size(&mut wf, "mosaic.fits", 160.0e6, 0.05);
    let mut add_inputs = corrected;
    add_inputs.push("images.tbl".into());
    add_compute(
        &mut wf,
        "mAdd".into(),
        "mAdd",
        add_inputs,
        vec!["mosaic.fits".into()],
    );

    // 8. mShrink and 9. mJPEG finish the pipeline.
    set_size(&mut wf, "shrunken.fits", 20.0e6, 0.05);
    add_compute(
        &mut wf,
        "mShrink".into(),
        "mShrink",
        vec!["mosaic.fits".into()],
        vec!["shrunken.fits".into()],
    );
    set_size(&mut wf, "mosaic.jpg", 2.0e6, 0.05);
    add_compute(
        &mut wf,
        "mJPEG".into(),
        "mJPEG",
        vec!["shrunken.fits".into()],
        vec!["mosaic.jpg".into()],
    );

    wf
}

/// The paper's augmented 1-degree workflow: 89 compute jobs, one extra
/// WAN-staged file of `extra_file_bytes` per staging job.
pub fn montage_one_degree(extra_file_bytes: u64, seed: u64) -> AbstractWorkflow {
    montage_workflow(&MontageConfig {
        extra_file_bytes,
        seed,
        ..Default::default()
    })
}

/// Register replicas for every external input of a Montage workflow:
/// `extra_*` files on the remote GridFTP host (the FutureGrid VM), all other
/// inputs (raw images, control files) on the local Apache host.
pub fn montage_replicas(
    workflow: &AbstractWorkflow,
    apache: (&str, pwm_net::HostId),
    gridftp: (&str, pwm_net::HostId),
) -> ReplicaCatalog {
    let mut rc = ReplicaCatalog::new();
    for file in workflow.external_inputs().expect("valid workflow") {
        if file.starts_with("extra_") {
            rc.insert(
                &file,
                pwm_core::Url::new("gsiftp", gridftp.0, format_args!("/data/{file}")),
                gridftp.1,
            );
        } else {
            rc.insert(
                &file,
                pwm_core::Url::new("http", apache.0, format_args!("/montage/{file}")),
                apache.1,
            );
        }
    }
    rc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_has_89_compute_jobs() {
        let cfg = MontageConfig::default();
        assert_eq!(cfg.projections(), 20);
        assert_eq!(cfg.diffs(), 43);
        let wf = montage_workflow(&cfg);
        assert_eq!(wf.len(), 89);
    }

    #[test]
    fn workflow_validates_as_a_dag() {
        let wf = montage_one_degree(0, 1);
        let levels = wf.validate().unwrap();
        // Pipeline depth: proj(0) → diff(1) → concat(2) → bgmodel(3) →
        // background(4) → imgtbl(5) → add(6) → shrink(7) → jpeg(8).
        assert_eq!(*levels.iter().max().unwrap(), 8);
    }

    #[test]
    fn every_job_has_an_external_input() {
        // This is what makes the no-clustering plan have one stage-in per
        // compute job — the paper's 89 staging jobs.
        let wf = montage_one_degree(0, 1);
        for job in wf.jobs() {
            let has_external = job.inputs.iter().any(|f| wf.producer(f).is_none());
            assert!(has_external, "job {} has no external input", job.name);
        }
    }

    #[test]
    fn augmentation_adds_one_distinct_extra_file_per_job() {
        let wf = montage_one_degree(100_000_000, 1);
        let mut extra_count = 0;
        let mut seen = std::collections::BTreeSet::new();
        for job in wf.jobs() {
            let extras: Vec<&Name> = job
                .inputs
                .iter()
                .filter(|f| f.starts_with("extra_"))
                .collect();
            assert_eq!(extras.len(), 1, "job {} extras {:?}", job.name, extras);
            assert!(seen.insert(extras[0].clone()), "duplicate extra file");
            assert_eq!(wf.file_size(extras[0]), Some(100_000_000));
            extra_count += 1;
        }
        assert_eq!(extra_count, 89);
    }

    #[test]
    fn unaugmented_has_no_extra_files() {
        let wf = montage_one_degree(0, 1);
        for job in wf.jobs() {
            assert!(job.inputs.iter().all(|f| !f.starts_with("extra_")));
        }
    }

    #[test]
    fn raw_images_average_two_megabytes() {
        let wf = montage_one_degree(0, 7);
        let sizes: Vec<u64> = wf
            .external_inputs()
            .unwrap()
            .iter()
            .filter(|f| f.starts_with("2mass_"))
            .map(|f| wf.file_size(f).unwrap())
            .collect();
        assert_eq!(sizes.len(), 20);
        let mean = sizes.iter().sum::<u64>() as f64 / sizes.len() as f64;
        assert!((1.6e6..2.4e6).contains(&mean), "mean raw size {mean}");
    }

    #[test]
    fn size_jitter_is_deterministic_per_seed() {
        let a = montage_one_degree(0, 5);
        let b = montage_one_degree(0, 5);
        let c = montage_one_degree(0, 6);
        let size = |wf: &AbstractWorkflow| wf.file_size("2mass_00_00.fits").unwrap();
        assert_eq!(size(&a), size(&b));
        assert_ne!(size(&a), size(&c));
    }

    #[test]
    fn replicas_split_by_source_host() {
        let wf = montage_one_degree(10_000_000, 1);
        let rc = montage_replicas(
            &wf,
            ("apache-isi", pwm_net::HostId(1)),
            ("gridftp-vm", pwm_net::HostId(0)),
        );
        let extras = rc.lookup("extra_mAdd.dat").unwrap();
        assert_eq!(extras.url.scheme, "gsiftp");
        assert_eq!(extras.host, pwm_net::HostId(0));
        let raw = rc.lookup("2mass_00_00.fits").unwrap();
        assert_eq!(raw.url.scheme, "http");
        assert_eq!(raw.host, pwm_net::HostId(1));
        // Every external input has a replica.
        assert_eq!(rc.len(), wf.external_inputs().unwrap().len());
    }

    #[test]
    fn bigger_grids_scale_job_counts() {
        let cfg = MontageConfig {
            rows: 5,
            cols: 5,
            ..Default::default()
        };
        // proj + diff + concat and bgmodel + background + imgtbl, add,
        // shrink and jpeg
        let wf = montage_workflow(&cfg);
        assert_eq!(wf.len(), 25 + (20 + 20 + 16) + 2 + 25 + 4);
    }

    #[test]
    #[should_panic(expected = "at least 2×2")]
    fn degenerate_grid_rejected() {
        montage_workflow(&MontageConfig {
            rows: 1,
            cols: 5,
            ..Default::default()
        });
    }
}
