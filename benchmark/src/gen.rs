//! Seeded input generators. The program under test only ever sees what
//! these produce; the same seed gives byte-identical requests and flow
//! specs, and nothing here is timed.

use pwm_core::{CleanupSpec, TransferSpec, Url, WorkflowId};
use pwm_net::{FlowSpec, HostId};
use pwm_rest::{http, CleanupRequestEnvelope, Method, TransferRequestEnvelope, WireFormat};

/// splitmix64: tiny, seedable, and good enough to spread a workload. Its own
/// generator rather than `pwm_sim::SimRng`, so that a change to the program's
/// RNG cannot change the benchmark's inputs between a parent and a change.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one (purpose, index) of a seed.
    pub fn derive(seed: u64, purpose: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r.0 ^= index.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

// ---------------------------------------------------------------- advice

/// Distinct (source, destination) host pairs the advice traffic spreads
/// over; the shard ring hashes these.
pub const HOST_PAIRS: u64 = 64;
/// `POST /transfers` requests pipelined per window.
pub const WINDOW: usize = 8;
/// New files per transfer request; each request also repeats its first
/// file on behalf of a second workflow, so one transfer in three is a
/// duplicate the service must suppress.
pub const NEW_FILES_PER_REQUEST: usize = 2;
/// HTTP requests of one cycle: the window, `/transfers/complete`, one
/// `/cleanups` per workflow, `/cleanups/complete`.
pub const REQUESTS_PER_CYCLE: usize = WINDOW + 4;

/// The policy session every workload talks to.
pub const SESSION: &str = pwm_core::DEFAULT_SESSION;

fn pair_urls(pair: u64, file: &str) -> (Url, Url) {
    (
        Url::new("gsiftp", format!("gridftp-{pair}"), format!("/data/{file}")),
        Url::new(
            "file",
            format!("scratch-{pair}"),
            format!("/scratch/{file}"),
        ),
    )
}

fn transfer(pair: u64, file: &str, bytes: u64, workflow: u64) -> TransferSpec {
    let (source, dest) = pair_urls(pair, file);
    TransferSpec {
        source,
        dest,
        bytes,
        requested_streams: None,
        workflow: WorkflowId(workflow),
        cluster: None,
        priority: None,
    }
}

/// Resident file `j` of the warm working set: staged once during set-up
/// and never cleaned, so the service answers the measured traffic with
/// that much policy memory to search.
pub fn warm_spec(seed: u64, j: u64) -> TransferSpec {
    let mut rng = Rng::derive(seed, 1, j);
    transfer(
        j % HOST_PAIRS,
        &format!("warm/{j}.dat"),
        1_000_000 + rng.below(9_000_000),
        1_000_000 + j,
    )
}

/// Wire bytes of one `POST /sessions/default/<path>` with a serde-encoded body,
/// exactly as `PolicyRestClient` renders it.
pub fn render_post<T: serde::Serialize>(path: &str, envelope: &T) -> Vec<u8> {
    http::render_request(
        WireFormat::Json,
        Method::Post,
        &format!("/sessions/{SESSION}/{path}"),
        &serde_json::to_vec(envelope).expect("wire envelopes always encode"),
        true,
    )
}

/// One closed-loop cycle of a Transfer-Tool client: a pipelined window of
/// transfer requests, then the completion report and the cleanups that
/// take the cycle's files out of policy memory again. The completion
/// bodies quote service-assigned ids, so only the requests that do not
/// depend on a response are rendered ahead of time.
#[derive(Debug, Clone, PartialEq)]
pub struct Cycle {
    /// Shared by every span of the cycle.
    pub id: u64,
    /// The window's request groups (kept for the in-process replay).
    pub groups: Vec<Vec<TransferSpec>>,
    /// The window on the wire: [`WINDOW`] requests back to back.
    pub window_wire: Vec<u8>,
    /// Byte length of each request inside `window_wire`.
    pub request_lens: Vec<usize>,
    /// Cleanups of the staging workflow: its shared files are still in use
    /// by the second workflow and must be refused, the rest deleted.
    pub cleanups_first: Vec<CleanupSpec>,
    pub cleanups_first_wire: Vec<u8>,
    /// Cleanups of the second workflow, the last user of the shared files.
    pub cleanups_second: Vec<CleanupSpec>,
    pub cleanups_second_wire: Vec<u8>,
}

impl Cycle {
    /// Transfers the service must suppress (one duplicate per request).
    pub const DUPLICATES: u64 = WINDOW as u64;
    /// Transfers the service must approve.
    pub const EXECUTED: u64 = (WINDOW * NEW_FILES_PER_REQUEST) as u64;
}

/// Cycle `index` of client `client`. Every file name is unique to the
/// cycle, so clients never contend for a file and the outcome of every
/// request is known in advance whatever the interleaving.
pub fn cycle(seed: u64, client: u64, index: u64) -> Cycle {
    let mut rng = Rng::derive(seed, 2 + client, index);
    let id = (client << 40) | index;
    let staging_wf = 2 * id;
    let sharing_wf = 2 * id + 1;
    let mut groups = Vec::with_capacity(WINDOW);
    let mut cleanups_first = Vec::new();
    let mut cleanups_second = Vec::new();
    for g in 0..WINDOW {
        let mut group = Vec::with_capacity(NEW_FILES_PER_REQUEST + 1);
        for k in 0..NEW_FILES_PER_REQUEST {
            // A staging job may pull from more than one source, so the
            // files of one request land on independently drawn host pairs.
            let pair = rng.below(HOST_PAIRS);
            let file = format!("c{client}/{index}/{g}-{k}-{:06x}.dat", rng.below(1 << 24));
            let spec = transfer(pair, &file, 1_000_000 + rng.below(99_000_000), staging_wf);
            cleanups_first.push(CleanupSpec {
                file: spec.dest.clone(),
                workflow: WorkflowId(staging_wf),
            });
            group.push(spec);
        }
        let mut shared = group[0].clone();
        shared.workflow = WorkflowId(sharing_wf);
        cleanups_second.push(CleanupSpec {
            file: shared.dest.clone(),
            workflow: WorkflowId(sharing_wf),
        });
        group.push(shared);
        groups.push(group);
    }
    let mut window_wire = Vec::new();
    let mut request_lens = Vec::with_capacity(WINDOW);
    for group in &groups {
        let wire = render_post(
            "transfers",
            &TransferRequestEnvelope {
                transfers: group.clone(),
            },
        );
        request_lens.push(wire.len());
        window_wire.extend_from_slice(&wire);
    }
    let render_cleanups = |cleanups: &[CleanupSpec]| {
        render_post(
            "cleanups",
            &CleanupRequestEnvelope {
                cleanups: cleanups.to_vec(),
            },
        )
    };
    Cycle {
        id,
        window_wire,
        request_lens,
        cleanups_first_wire: render_cleanups(&cleanups_first),
        cleanups_second_wire: render_cleanups(&cleanups_second),
        groups,
        cleanups_first,
        cleanups_second,
    }
}

// ---------------------------------------------------------------- netsim

/// The transfer that replaces a completed one in cluster `cluster`.
pub fn flow_spec(cluster: usize, src: HostId, dst: HostId, rng: &mut Rng) -> FlowSpec {
    FlowSpec {
        src,
        dst,
        bytes: 20.0e6 + rng.below(100) as f64 * 1.0e6,
        streams: 1 + rng.below(8) as u32,
        tag: cluster as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_request_bytes_and_another_seed_does_not() {
        let a = cycle(7, 1, 3);
        assert_eq!(a, cycle(7, 1, 3));
        let b = cycle(8, 1, 3);
        assert_ne!(a.window_wire, b.window_wire);
        assert_ne!(a.cleanups_first_wire, b.cleanups_first_wire);
        // Clients and cycles of one seed never share a file.
        assert_ne!(a.window_wire, cycle(7, 0, 3).window_wire);
        assert_ne!(a.window_wire, cycle(7, 1, 4).window_wire);
        assert_eq!(warm_spec(7, 11), warm_spec(7, 11));
        assert_ne!(warm_spec(7, 11).bytes, warm_spec(8, 11).bytes);
    }

    #[test]
    fn a_cycle_has_the_stated_shape() {
        let c = cycle(1, 0, 0);
        assert_eq!(c.groups.len(), WINDOW);
        assert_eq!(c.request_lens.iter().sum::<usize>(), c.window_wire.len());
        for g in &c.groups {
            assert_eq!(g.len(), NEW_FILES_PER_REQUEST + 1);
            // The last transfer repeats the first for another workflow.
            assert_eq!(g[0].dest, g[2].dest);
            assert_ne!(g[0].workflow, g[2].workflow);
            assert_ne!(g[0].dest, g[1].dest);
        }
        assert_eq!(c.cleanups_first.len() as u64, Cycle::EXECUTED);
        assert_eq!(c.cleanups_second.len() as u64, Cycle::DUPLICATES);
    }

    #[test]
    fn pre_rendered_requests_take_the_servers_fast_codec() {
        let c = cycle(5, 1, 9);
        let mut rest = &c.window_wire[..];
        for (group, &len) in c.groups.iter().zip(&c.request_lens) {
            let (request, consumed) = http::try_parse_request(rest, 1 << 20)
                .expect("well-formed")
                .expect("complete");
            assert_eq!(consumed, len);
            assert!(request.keep_alive);
            let decoded = pwm_rest::fastjson::parse_transfer_request(&request.body)
                .expect("canonical bodies take the fast path");
            assert_eq!(&decoded, group);
            rest = &rest[consumed..];
        }
        assert!(rest.is_empty());
    }

    #[test]
    fn same_seed_gives_identical_flow_specs_and_another_seed_does_not() {
        let draw = |seed| {
            let mut rng = Rng::derive(seed, 9, 0);
            (0..32)
                .map(|i| flow_spec(i, HostId(0), HostId(1), &mut rng))
                .map(|f| (f.bytes.to_bits(), f.streams, f.tag))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }
}
