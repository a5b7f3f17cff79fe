//! The executor's storage plane: policy-advised backend placement and its
//! metering in dollars.
//!
//! When transfer advice names a backend, the staged flow is redirected to
//! that backend's store host and pays its per-request overhead as extra
//! connection setup; the bytes are metered when the flow lands and stop
//! accruing residency when a cleanup job deletes the file. The executor
//! calls in at three points — a flow starts, lands, or its file is cleaned
//! up. A redirection in flight is a `StagedFlow` on the executor's row of
//! the live flow: a lost flow (failed, killed or corrupt) drops it with the
//! row, so a retry re-resolves whatever backend the fresh advice names.

use pwm_core::Url;
use pwm_net::HostId;
use pwm_obs::Obs;
use pwm_sim::{SimDuration, SimTime};
use pwm_storage::{BackendSpec, CostMeter, StorageCostReport, StorageLayer};
use std::collections::HashMap;

/// A staged flow redirected to a storage backend, held on the flow's row
/// until it lands.
pub(crate) struct StagedFlow {
    backend: String,
    bytes: u64,
    /// Destination URL — the key cleanup jobs will delete by.
    dest: Url,
}

/// Wiring between policy backend advice and an installed [`StorageLayer`]:
/// resolves advised backend names to store hosts, charges each backend's
/// per-request setup on the flow, and meters the run in dollars.
///
/// Build the layer with [`StorageLayer::install`] on the topology *before*
/// constructing the [`pwm_net::Network`], then hand the layer here.
#[derive(Debug, Clone)]
pub struct StorageRuntime {
    layer: StorageLayer,
    meter: CostMeter,
    /// dest URL → (backend, bytes) for files resident on a backend.
    resident: HashMap<Url, (String, u64)>,
}

impl StorageRuntime {
    /// Meter the backends of `layer`, starting the residency clock at zero.
    pub fn new(layer: StorageLayer) -> Self {
        let specs: Vec<BackendSpec> = layer.backends().map(|b| b.spec.clone()).collect();
        let meter = CostMeter::new(&specs);
        StorageRuntime {
            layer,
            meter,
            resident: HashMap::new(),
        }
    }

    /// The installed layer (host/link/spec per backend).
    pub fn layer(&self) -> &StorageLayer {
        &self.layer
    }

    pub(crate) fn attach_obs(&mut self, obs: &Obs) {
        self.meter.attach_obs(obs);
    }

    /// A flow starts: when the advised `backend` is installed, the store host
    /// to send to, the backend's per-request overhead as extra setup, and the
    /// redirection for [`StorageRuntime::landed`]. Unknown names (stale
    /// advice after a reconfiguration) keep the planned destination.
    pub(crate) fn redirect(
        &self,
        backend: Option<&String>,
        bytes: u64,
        dest: &Url,
    ) -> Option<(HostId, SimDuration, StagedFlow)> {
        let name = backend?;
        let b = self.layer.backend(name)?;
        let staged = StagedFlow {
            backend: name.clone(),
            bytes,
            dest: dest.clone(),
        };
        Some((b.host, b.spec.extra_setup(bytes), staged))
    }

    /// The flow landed: meter the put and start the file's residency.
    pub(crate) fn landed(&mut self, staged: StagedFlow, now: SimTime) {
        if let Some(b) = self.layer.backend(&staged.backend) {
            self.meter.on_put(&b.spec, staged.bytes, now);
        }
        self.resident
            .insert(staged.dest, (staged.backend, staged.bytes));
    }

    /// A cleanup job deleted `file`: its residency stops accruing dollars.
    pub(crate) fn deleted(&mut self, file: &Url, now: SimTime) {
        if let Some((backend, bytes)) = self.resident.remove(file) {
            self.meter.on_delete(&backend, bytes, now);
        }
    }

    /// The run's dollars up to `now`.
    pub(crate) fn report(&mut self, now: SimTime) -> StorageCostReport {
        self.meter.report(now)
    }
}
