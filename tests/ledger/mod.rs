//! The exact-cost ledger: what the stack costs, in counts that repeat.
//!
//! Four workloads write one `name value` row per count, named
//! `workload.row`: `campaign` (two Montage 1° workflows run by one executor
//! against the REST Policy Service over loopback, then one-spec client
//! calls), `resident` (policy memory per staged file) and `durable` (what a
//! scripted durable session writes) in `tests/alloc_budget.rs`, `churn` (the
//! simulator alone) in `tests/churn_allocations.rs`. Each test runs its
//! workloads side by side, a thread each, under the one counting
//! `#[global_allocator]` below, and their rows must equal their sections of
//! the committed `scripts/costs.txt` byte for byte, in debug and release
//! builds alike. Rows are integers: a cost per call is a raw total over a
//! stated number of calls. A count that cannot repeat is held under a
//! ceiling, with its reason written beside it. Run with `--nocapture` to read
//! the rows.

use pwm_net::Network;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};

/// The committed ledger, every workload's section.
const COMMITTED: &str = include_str!("../../scripts/costs.txt");

/// Counts every allocating call (`alloc`, `alloc_zeroed`, `realloc`). A
/// workload thread keeps its calls, live bytes and live blocks in a
/// thread-local, so workloads running side by side never see each other;
/// every other thread (the REST server's loop) adds its calls to [`OTHERS`].
struct Counting;

static OTHERS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without destructors, so reading them inside
    // the allocator allocates nothing.
    static WORKLOAD: Cell<bool> = const { Cell::new(false) };
    static OWN: Cell<(u64, i64, i64)> = const { Cell::new((0, 0, 0)) };
}

fn count(calls: u64, bytes: i64, blocks: i64) {
    if WORKLOAD.with(Cell::get) {
        let (c, b, k) = OWN.with(Cell::get);
        OWN.with(|own| own.set((c + calls, b + bytes, k + blocks)));
    } else {
        OTHERS.fetch_add(calls, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64, 1);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64, 1);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as i64 - layout.size() as i64, 0);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64), -1);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// (this thread's allocations, every other thread's) made while `f` ran.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (own, others) = (OWN.with(Cell::get).0, OTHERS.load(Ordering::Relaxed));
    let out = f();
    let own = OWN.with(Cell::get).0 - own;
    (out, own, OTHERS.load(Ordering::Relaxed) - others)
}

/// (blocks, bytes) this thread holds.
#[allow(dead_code)] // `churn` reads what its queue retains, not the heap.
pub fn held() -> (i64, i64) {
    OWN.with(|own| (own.get().2, own.get().1))
}

/// One workload's rows, a line each, named `workload.row`.
pub struct Ledger(pub &'static str, pub String);

impl Ledger {
    pub fn row(&mut self, name: impl Display, value: impl Display) {
        writeln!(self.1, "{}.{name} {value}", self.0).unwrap();
    }
}

/// One row per named integer field of `$value`, as `{$prefix}field`.
macro_rules! fields {
    ($ledger:expr, $prefix:expr, $value:expr; $($field:ident),+) => {{
        let value = $value;
        $($ledger.row(format_args!("{}{}", $prefix, stringify!($field)), value.$field);)+
    }};
}

/// The `AllocStats` counters of a network, as rows.
pub fn alloc_stats(l: &mut Ledger, network: &Network) {
    fields! { l, "net.", network.alloc_stats(); recomputes, skipped, component_runs,
    flows_allocated, links_allocated, unchanged_writes }
}

/// `name → value` of every row, `#` lines skipped.
fn rows(ledger: &str) -> BTreeMap<&str, &str> {
    let rows = ledger.lines().filter(|l| !l.starts_with('#'));
    rows.filter_map(|l| l.split_once(' ')).collect()
}

/// Each workload's section of a ledger, in order; a `#` line belongs to the
/// section of the row after it.
fn sections(ledger: &str) -> Vec<(&str, String)> {
    let (mut sections, mut lines) = (Vec::<(&str, String)>::new(), String::new());
    for line in ledger.lines() {
        writeln!(lines, "{line}").unwrap();
        if line.starts_with('#') {
            continue;
        }
        let workload = line.split('.').next().unwrap_or(line);
        match sections.last_mut() {
            Some((name, text)) if *name == workload => *text += &lines,
            _ => sections.push((workload, lines.clone())),
        }
        lines.clear();
    }
    sections
}

/// Runs `workloads` side by side, a thread each, and asserts that their
/// rows equal their sections of `scripts/costs.txt`. On a difference it lists
/// each differing row as `name: committed → measured`, then prints the whole
/// ledger with these workloads' sections as measured, so re-committing is a
/// copy.
pub fn assert_committed(workloads: &[fn() -> Ledger]) {
    let measured: Vec<Ledger> = std::thread::scope(|scope| {
        let threads: Vec<_> = (workloads.iter())
            .map(|&workload| {
                scope.spawn(move || {
                    WORKLOAD.with(|w| w.set(true));
                    workload()
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    let committed = sections(COMMITTED);
    let section = |name| committed.iter().find(|(n, _)| *n == name);
    let ours = |ledger: &Ledger| section(ledger.0).map_or("", |(_, text)| text.as_str());
    let was: String = measured.iter().map(ours).collect();
    let now: String = measured.iter().map(|l| l.1.as_str()).collect();
    if now == was {
        return println!("{now}");
    }
    let (was, is) = (rows(&was), rows(&now));
    let names: BTreeSet<_> = was.keys().chain(is.keys()).collect();
    let differ: Vec<_> = (names.into_iter())
        .filter(|n| was.get(*n) != is.get(*n))
        .map(|n| {
            let value = |rows: &BTreeMap<_, _>| rows.get(n).copied().unwrap_or("(none)");
            format!("{n}: {} → {}", value(&was), value(&is))
        })
        .collect();
    let ran = |name: &str| measured.iter().find(|l| l.0 == name);
    let kept = (committed.iter()).map(|(name, text)| ran(name).map_or(text.as_str(), |l| &l.1));
    let added = measured.iter().filter(|l| section(l.0).is_none());
    let ledger: String = kept.chain(added.map(|l| l.1.as_str())).collect();
    panic!(
        "the costs differ from scripts/costs.txt:\n{}\n\nthe measured ledger (commit it as \
         scripts/costs.txt if every change is meant):\n{ledger}",
        differ.join("\n")
    );
}
